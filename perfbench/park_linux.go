package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// spinWindow is the last stretch before a due time that a worker spins
// (yielding with Gosched) instead of parking: short enough that two
// spinning workers do not starve the server on a 2-core host, long
// enough to cover the timerfd wake-up latency (tens of µs).
const spinWindow = 60 * time.Microsecond

// parker releases a worker at a scheduled instant. time.Sleep is no use
// below a millisecond: the Go runtime's idle poller sleeps in whole
// milliseconds, so a 100µs sleep returns after ~1ms and an open loop
// built on it measures its own sleep floor. A timerfd is an fd event,
// which wakes the poller at once, so parking on it is precise to the
// kernel's timer slack.
type parker struct {
	f   *os.File
	fd  uintptr
	buf [8]byte
}

type itimerspec struct{ interval, value syscall.Timespec }

func newParker() (*parker, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1 /* CLOCK_MONOTONIC */, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// A non-blocking fd makes os.NewFile register it with the runtime
	// poller, so Read parks the goroutine instead of its thread.
	return &parker{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// until returns at (never before) due.
func (p *parker) until(due time.Time) error {
	if park := time.Until(due) - spinWindow; park > 0 {
		its := itimerspec{value: syscall.NsecToTimespec(int64(park))}
		if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&its)), 0, 0, 0); errno != 0 {
			return fmt.Errorf("timerfd_settime: %w", errno)
		}
		if _, err := p.f.Read(p.buf[:]); err != nil {
			return fmt.Errorf("timerfd read: %w", err)
		}
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
	return nil
}

func (p *parker) close() { p.f.Close() }
