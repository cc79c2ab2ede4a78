package layout

import (
	"math/rand"
	"testing"

	"repro/internal/simhw"
)

func fill(r, c int) int64 { return int64(r*31 + c) }

func relations(rows, cols int) map[string]Relation {
	return map[string]Relation{
		"nsm": NewNSM(rows, cols, fill),
		"dsm": NewDSM(rows, cols, fill),
		"pax": NewPAX(rows, cols, 512, fill),
	}
}

func TestAllLayoutsAgreeOnGet(t *testing.T) {
	rels := relations(1000, 5)
	for name, rel := range rels {
		if rel.Rows() != 1000 || rel.Cols() != 5 {
			t.Fatalf("%s: shape %dx%d", name, rel.Rows(), rel.Cols())
		}
		for _, rc := range [][2]int{{0, 0}, {999, 4}, {511, 2}, {512, 3}} {
			if got := rel.Get(rc[0], rc[1]); got != fill(rc[0], rc[1]) {
				t.Fatalf("%s: Get(%d,%d) = %d, want %d", name, rc[0], rc[1], got, fill(rc[0], rc[1]))
			}
		}
	}
}

func TestScanSumsAgree(t *testing.T) {
	rels := relations(3000, 6)
	colsets := [][]int{{0}, {1, 3}, {0, 1, 2, 3, 4, 5}}
	for _, cols := range colsets {
		var want int64
		for r := 0; r < 3000; r++ {
			for _, c := range cols {
				want += fill(r, c)
			}
		}
		for name, rel := range rels {
			if got := rel.ScanSum(cols); got != want {
				t.Fatalf("%s cols=%v: %d, want %d", name, cols, got, want)
			}
		}
	}
}

func TestGatherSumsAgree(t *testing.T) {
	rels := relations(2000, 4)
	r := rand.New(rand.NewSource(3))
	rows := make([]int, 500)
	for i := range rows {
		rows[i] = r.Intn(2000)
	}
	cols := []int{0, 2, 3}
	var want int64
	for _, rr := range rows {
		for _, c := range cols {
			want += fill(rr, c)
		}
	}
	for name, rel := range rels {
		if got := rel.GatherSum(rows, cols); got != want {
			t.Fatalf("%s: %d, want %d", name, got, want)
		}
	}
}

func TestPAXTailPage(t *testing.T) {
	// Rows not divisible by pageRows: the tail page must not contribute
	// garbage to scans.
	p := NewPAX(513, 2, 512, fill)
	var want int64
	for r := 0; r < 513; r++ {
		want += fill(r, 0)
	}
	if got := p.ScanSum([]int{0}); got != want {
		t.Fatalf("tail page scan = %d, want %d", got, want)
	}
}

// TestTraceScanFavorsDSM reproduces the E12 scan shape: touching 1 of 8
// columns, DSM reads 1/8 the bytes of NSM, so far fewer misses.
func TestTraceScanFavorsDSM(t *testing.T) {
	h := simhw.Default()
	rows, cols := 1<<16, 8
	nsm := TraceScan(simhw.NewSim(h), LNSM, rows, cols, 1)
	dsm := TraceScan(simhw.NewSim(h), LDSM, rows, cols, 1)
	pax := TraceScan(simhw.NewSim(h), LPAX, rows, cols, 1)
	nm, dm, pm := nsm.Levels[1].Misses(), dsm.Levels[1].Misses(), pax.Levels[1].Misses()
	if dm*4 > nm {
		t.Fatalf("DSM scan misses %d should be <= NSM/4 (%d)", dm, nm)
	}
	// PAX touches only the needed minipages: cache misses like DSM.
	if pm > dm*2 {
		t.Fatalf("PAX scan misses %d should be near DSM (%d)", pm, dm)
	}
}

// TestTraceGatherFavorsNSM reproduces the E12 random-access shape: fetching
// whole rows, NSM pays one line per row, DSM pays one per column.
func TestTraceGatherFavorsNSM(t *testing.T) {
	h := simhw.Default()
	rows, cols, n := 1<<18, 8, 1<<14
	nsm := TraceGather(simhw.NewSim(h), LNSM, rows, cols, cols, n)
	dsm := TraceGather(simhw.NewSim(h), LDSM, rows, cols, cols, n)
	nm, dm := nsm.Levels[1].Misses(), dsm.Levels[1].Misses()
	if nm*3 > dm {
		t.Fatalf("NSM gather misses %d should be well under DSM %d", nm, dm)
	}
}

// TestTraceScanFullWidthNSMCompetitive: touching all columns, NSM scans are
// as good as DSM (same bytes, both sequential).
func TestTraceScanFullWidthNSMCompetitive(t *testing.T) {
	h := simhw.Default()
	rows, cols := 1<<15, 8
	nsm := TraceScan(simhw.NewSim(h), LNSM, rows, cols, cols)
	dsm := TraceScan(simhw.NewSim(h), LDSM, rows, cols, cols)
	nm, dm := nsm.Levels[1].Misses(), dsm.Levels[1].Misses()
	ratio := float64(nm) / float64(dm)
	if ratio > 1.2 || ratio < 0.8 {
		t.Fatalf("full-width scan: NSM %d vs DSM %d should be comparable", nm, dm)
	}
}
