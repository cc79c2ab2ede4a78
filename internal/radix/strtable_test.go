package radix

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestStrTableBasic(t *testing.T) {
	st := BuildStrTable([]string{"a", "b", "a", "c", "a"})
	if st.Len() != 5 {
		t.Fatalf("Len = %d, want 5", st.Len())
	}
	var rows []int32
	st.ForEach("a", func(r int32) { rows = append(rows, r) })
	sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
	if !reflect.DeepEqual(rows, []int32{0, 2, 4}) {
		t.Fatalf(`rows for "a" = %v, want [0 2 4]`, rows)
	}
	if st.First("b") < 0 {
		t.Fatalf(`First("b") = -1, want a row`)
	}
	if st.First("missing") != -1 {
		t.Fatalf("First(missing) = %d, want -1", st.First("missing"))
	}
}

func TestStrTableEmpty(t *testing.T) {
	st := BuildStrTable(nil)
	if st.Len() != 0 || st.First("") != -1 || st.First("x") != -1 {
		t.Fatal("empty table should match nothing")
	}
}

// Property: for random key sets, StrTable returns exactly the rows a
// map[string][]int oracle holds, for present and absent probes alike.
func TestQuickStrTableMatchesMapOracle(t *testing.T) {
	f := func(picks []uint8, probes []uint8) bool {
		keys := make([]string, len(picks))
		oracle := make(map[string][]int32, len(picks))
		for i, p := range picks {
			// Small alphabet forces duplicates and hash-chain exercise.
			k := fmt.Sprintf("k%d", p%13)
			keys[i] = k
			oracle[k] = append(oracle[k], int32(i))
		}
		st := BuildStrTable(keys)
		n := 0
		for _, rows := range oracle {
			n += len(rows)
		}
		if st.Len() != n {
			return false
		}
		for _, p := range probes {
			k := fmt.Sprintf("k%d", int(p)%17) // %17 > %13: some misses
			var got []int32
			st.ForEach(k, func(r int32) { got = append(got, r) })
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if !reflect.DeepEqual(got, oracle[k]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
