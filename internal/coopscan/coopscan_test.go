package coopscan

import "testing"

var testDisk = Disk{NPages: 400, FetchNS: 10000, PageCPUNS: 100}

func TestSingleQueryBothPoliciesEqual(t *testing.T) {
	lru := RunLRU(testDisk, 1, 100, 0)
	coop := RunCooperative(testDisk, 1, 100, 0)
	if lru.Fetches != testDisk.NPages || coop.Fetches != testDisk.NPages {
		t.Fatalf("single scan must fetch every page once: lru=%d coop=%d",
			lru.Fetches, coop.Fetches)
	}
}

func TestEveryQuerySeesWholeTable(t *testing.T) {
	for _, run := range []func(Disk, int, int, int) Stats{RunLRU, RunCooperative} {
		st := run(testDisk, 4, 100, 37)
		if st.Delivered != 4*testDisk.NPages {
			t.Fatalf("page deliveries = %d, want %d", st.Delivered, 4*testDisk.NPages)
		}
		for q, ns := range st.PerQueryNS {
			if ns <= 0 {
				t.Fatalf("query %d never finished", q)
			}
		}
	}
}

func TestCooperativeSharesFetches(t *testing.T) {
	// 8 concurrent scans, table 4x the buffer: classical LRU with staggered
	// cursors thrashes; cooperative delivery shares each fetched page among
	// all 8 queries, approaching NPages total fetches.
	lru := RunLRU(testDisk, 8, 100, 50)
	coop := RunCooperative(testDisk, 8, 100, 50)
	if coop.Fetches > lru.Fetches/2 {
		t.Fatalf("coop fetches = %d, lru = %d: expected >2x reduction",
			coop.Fetches, lru.Fetches)
	}
	if coop.Fetches < testDisk.NPages {
		t.Fatalf("coop fetched %d < table size %d: impossible", coop.Fetches, testDisk.NPages)
	}
	if coop.TotalNS >= lru.TotalNS {
		t.Fatalf("coop time %.0f should beat lru %.0f", coop.TotalNS, lru.TotalNS)
	}
}

func TestUnstaggeredLRUAlreadyShares(t *testing.T) {
	// With perfectly aligned cursors (stagger 0), LRU queries move in
	// lockstep and share pages, so cooperation gains little — the paper's
	// point is that real arrivals are NOT aligned.
	lru := RunLRU(testDisk, 4, 100, 0)
	if lru.Fetches != testDisk.NPages {
		t.Fatalf("lockstep LRU fetches = %d, want %d", lru.Fetches, testDisk.NPages)
	}
}

func TestStaggerHurtsLRU(t *testing.T) {
	aligned := RunLRU(testDisk, 4, 100, 0)
	staggered := RunLRU(testDisk, 4, 100, 150)
	if staggered.Fetches <= aligned.Fetches {
		t.Fatalf("staggered (%d) should fetch more than aligned (%d)",
			staggered.Fetches, aligned.Fetches)
	}
}

func TestLRUPoolEviction(t *testing.T) {
	p := newLRUPool(2)
	p.touch(1)
	p.touch(2)
	p.touch(1) // 2 becomes LRU
	p.touch(3) // evicts 2
	if p.resident(2) {
		t.Fatal("2 should be evicted")
	}
	if !p.resident(1) || !p.resident(3) {
		t.Fatal("1 and 3 should be resident")
	}
}

func TestMoreQueriesDoNotIncreaseCoopFetchesMuch(t *testing.T) {
	f2 := RunCooperative(testDisk, 2, 100, 50).Fetches
	f16 := RunCooperative(testDisk, 16, 100, 50).Fetches
	if f16 > f2*2 {
		t.Fatalf("coop fetches should stay near table size: 2q=%d 16q=%d", f2, f16)
	}
}
