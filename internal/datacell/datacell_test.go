package datacell

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func genEvents(n int, seed int64) []Event {
	r := rand.New(rand.NewSource(seed))
	out := make([]Event, n)
	for i := range out {
		out[i] = Event{TS: int64(i), Key: r.Int63n(100), Val: r.Int63n(1000)}
	}
	return out
}

func sortResults(rs []WindowResult) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].QueryID != rs[j].QueryID {
			return rs[i].QueryID < rs[j].QueryID
		}
		return rs[i].Window < rs[j].Window
	})
}

func TestBulkMatchesPerEvent(t *testing.T) {
	queries := []Query{
		{ID: 1, Lo: 0, Hi: 50, Window: 200},
		{ID: 2, Lo: 25, Hi: 75, Window: 400},
		{ID: 3, Lo: 90, Hi: 100, Window: 100},
	}
	events := genEvents(2000, 7)
	for _, basket := range []int{1, 10, 50, 100} {
		bulk, err := NewEngine(basket, queries)
		if err != nil {
			t.Fatal(err)
		}
		ref := NewPerEventEngine(queries)
		for _, ev := range events {
			bulk.Push(ev)
			ref.Push(ev)
		}
		bulk.Flush()
		ref.Flush()
		b, r := bulk.Results(), ref.Results()
		sortResults(b)
		sortResults(r)
		if !reflect.DeepEqual(b, r) {
			t.Fatalf("basket=%d: results differ\nbulk=%v\nref =%v", basket, b, r)
		}
	}
}

func TestWindowBoundaries(t *testing.T) {
	q := []Query{{ID: 1, Lo: 0, Hi: 100, Window: 4}}
	e, err := NewEngine(2, q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		e.Push(Event{TS: int64(i), Key: 1, Val: 1})
	}
	e.Flush()
	rs := e.Results()
	if len(rs) != 2 || rs[0].Count != 4 || rs[1].Count != 4 {
		t.Fatalf("results = %v", rs)
	}
	if rs[0].Window != 0 || rs[1].Window != 1 {
		t.Fatalf("window ids = %v", rs)
	}
}

func TestPartialWindowFlushed(t *testing.T) {
	q := []Query{{ID: 1, Lo: 0, Hi: 100, Window: 10}}
	e, err := NewEngine(5, q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 13; i++ {
		e.Push(Event{Key: 1, Val: 2})
	}
	e.Flush()
	rs := e.Results()
	if len(rs) != 2 {
		t.Fatalf("results = %v", rs)
	}
	if rs[1].Count != 3 || rs[1].Sum != 6 {
		t.Fatalf("partial = %v", rs[1])
	}
}

func TestMisalignedWindowRejected(t *testing.T) {
	if _, err := NewEngine(3, []Query{{ID: 1, Window: 10}}); err == nil {
		t.Fatal("expected window/basket alignment error")
	}
	if _, err := NewEngine(0, nil); err == nil {
		t.Fatal("expected basket size error")
	}
}

func TestPredicateWindows(t *testing.T) {
	// Only events within [lo,hi) count; others pass through the window
	// position but not the aggregate.
	q := []Query{{ID: 9, Lo: 10, Hi: 20, Window: 4}}
	e, _ := NewEngine(4, q)
	e.Push(Event{Key: 5, Val: 100})
	e.Push(Event{Key: 15, Val: 7})
	e.Push(Event{Key: 19, Val: 3})
	e.Push(Event{Key: 20, Val: 50})
	e.Flush()
	rs := e.Results()
	if len(rs) != 1 || rs[0].Sum != 10 || rs[0].Count != 2 {
		t.Fatalf("results = %v", rs)
	}
}

// Property: bulk and per-event engines agree for random workloads.
func TestQuickEnginesAgree(t *testing.T) {
	f := func(seed int64, basket8 uint8) bool {
		basket := int(basket8%20) + 1
		w := basket * 4
		queries := []Query{
			{ID: 1, Lo: 0, Hi: 60, Window: w},
			{ID: 2, Lo: 30, Hi: 90, Window: w * 2},
		}
		events := genEvents(basket*37, seed)
		bulk, err := NewEngine(basket, queries)
		if err != nil {
			return false
		}
		ref := NewPerEventEngine(queries)
		for _, ev := range events {
			bulk.Push(ev)
			ref.Push(ev)
		}
		bulk.Flush()
		ref.Flush()
		b, r := bulk.Results(), ref.Results()
		sortResults(b)
		sortResults(r)
		return reflect.DeepEqual(b, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
