package vector

import "testing"

// Close before Open used to close a nil channel (panic) and range over a
// nil channel (deadlock); it must be a safe no-op, and Close must be
// idempotent after a normal run.
func TestExchangeCloseBeforeOpenAndIdempotent(t *testing.T) {
	src, err := NewSource([]string{"x"}, []Col{{Kind: KindInt, Ints: []int64{1, 2, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	e := parallelScan(src, 2)
	if err := e.Close(); err != nil {
		t.Fatalf("Close before Open: %v", err)
	}
	// The operator must still be usable after the premature Close.
	if err := e.Open(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		b, err := e.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		n += b.N
	}
	if n != 3 {
		t.Fatalf("scanned %d rows, want 3", n)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// Close must also stop workers that still have batches in flight.
func TestExchangeCloseMidStream(t *testing.T) {
	vals := make([]int64, 1<<16)
	src, err := NewSource([]string{"x"}, []Col{{Kind: KindInt, Ints: vals}})
	if err != nil {
		t.Fatal(err)
	}
	e := parallelScan(src, 4)
	e.MorselSize = 128
	if err := e.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Next(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
