package main

import (
	"math/rand"
	"testing"
)

func TestNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0.1, 1}, {0.5, 5}, {0.55, 6}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.0001, 1},
	} {
		if got := nearestRank(xs, c.p); got != c.want {
			t.Errorf("nearestRank(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := nearestRank(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}
	var d dist
	for _, x := range []float64{9, 1, 5, 3, 7} {
		d.add(x)
	}
	if d.q(0.5) != 5 || d.q(0.99) != 9 {
		t.Errorf("dist p50 %g p99 %g, want 5 9", d.q(0.5), d.q(0.99))
	}
	// Adding after a quantile re-sorts.
	d.add(0)
	if d.q(0.01) != 0 {
		t.Errorf("p1 after add = %g, want 0", d.q(0.01))
	}
}

func TestTailP(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 0}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}} {
		if got := tailP(c.n); got != c.want {
			t.Errorf("tailP(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one nested", []interval{{120, 150}}, 70},
		{"two disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping count once", []interval{{110, 150}, {140, 160}}, 50},
		{"contained in another", []interval{{110, 190}, {120, 130}}, 20},
		{"clipped to parent", []interval{{50, 120}, {180, 250}}, 60},
		{"outside", []interval{{10, 90}, {200, 300}}, 100},
		{"unsorted", []interval{{150, 170}, {110, 120}}, 70},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSplitAddsUp(t *testing.T) {
	// Client: due 0, written 10, read 110. Server 20..100 holds an
	// advance call 30..90 (with a journal record 50..70) and an
	// admission check 22..25.
	o := outcome{due: 0, start: 10, end: 110, ok: true, req: 7}
	spans := []span{
		{req: 7, layer: layerServer, start: 20, end: 100},
		{req: 7, layer: layerBackend, name: bAdvance, inst: "li-1", start: 30, end: 90},
		{req: 7, layer: layerBackend, name: bAdmit, start: 22, end: 25},
		{layer: layerJournal, inst: "li-1", start: 50, end: 70},
		{layer: layerJournal, inst: "li-2", start: 55, end: 60}, // another instance's record
	}
	rs := groupByRequest(spans)[7]
	if rs == nil || len(rs.journal) != 1 {
		t.Fatalf("grouping: %+v", rs)
	}
	st := split(o, rs)
	want := stages{wait: 10, transport: 20, httpapi: 80 - 63, guard: 3, runtime: 40, journal: 20}
	if st != want {
		t.Fatalf("split = %+v, want %+v", st, want)
	}
	sum := 0.0
	for _, v := range st.values() {
		sum += v
	}
	if sum != float64(o.end-o.due) {
		t.Errorf("stages sum to %g, want the end-to-end %d", sum, o.end-o.due)
	}
}

func TestDeckComposition(t *testing.T) {
	m, err := newMix([]share{{"page", 45}, {"timeline", 20}, {"modelpage", 1.5}, {"summary", 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	deck := m.deck(rng, 2000)
	counts := make([]int, len(m.classes))
	for _, c := range deck {
		counts[c]++
	}
	// 2000 x weights / 66.6, rounded by largest remainder.
	want := []int{1351, 601, 45, 3}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("class %s: %d in deck, want %d", m.classes[i].name, counts[i], want[i])
		}
	}
	arr := make([]arrival, 2000)
	m.assign(rng, arr)
	seen := map[int]int{}
	for _, a := range arr {
		if a.k != seen[a.class] {
			t.Fatalf("occurrence %d of class %d numbered %d", seen[a.class], a.class, a.k)
		}
		seen[a.class]++
	}
}

func TestJournalJoinsNarrowestCall(t *testing.T) {
	// An advance of li-1 (request 7) waits on the instance's lock while
	// a callback's Report (request 8) on li-1 writes its record; the
	// record belongs to the Report, and the advance's own record, after
	// the Report ends, to the advance.
	spans := []span{
		{req: 7, layer: layerBackend, name: bAdvance, inst: "li-1", start: 10, end: 100},
		{req: 8, layer: layerBackend, name: bReport, inst: "li-1", start: 20, end: 50},
		{layer: layerJournal, inst: "li-1", start: 30, end: 40},
		{layer: layerJournal, inst: "li-1", start: 60, end: 80},
	}
	by := groupByRequest(spans)
	if j := by[8].journal; len(j) != 1 || j[0].start != 30 {
		t.Errorf("report's records: %+v, want the one at 30", j)
	}
	if j := by[7].journal; len(j) != 1 || j[0].start != 60 {
		t.Errorf("advance's records: %+v, want the one at 60", j)
	}
}
