// Command mkdata dumps the synthetic workloads (package workload, the
// stand-ins cmd/experiments (E1–E15) uses for the paper's benchmark data)
// as persisted BAT files, so experiments can be re-run against identical
// inputs.
//
// Usage:
//
//	mkdata -kind uniform -n 1048576 -domain 1000 -o col.bat
//	mkdata -kind zipf    -n 1048576 -o zipf.bat
//	mkdata -kind sorted  -n 1048576 -o sorted.bat
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bat"
	"repro/internal/workload"
)

func main() {
	kind := flag.String("kind", "uniform", "uniform | zipf | sorted | clustered")
	n := flag.Int("n", 1<<20, "number of values")
	domain := flag.Int64("domain", 1<<20, "value domain")
	seed := flag.Int64("seed", 1, "generator seed")
	out := flag.String("o", "", "output file (required)")
	flag.Parse()

	if *out == "" {
		fmt.Fprintln(os.Stderr, "mkdata: -o output file required")
		os.Exit(2)
	}
	var vals []int64
	switch *kind {
	case "uniform":
		vals = workload.UniformInts(*n, *domain, *seed)
	case "zipf":
		vals = workload.ZipfInts(*n, uint64(*domain), 1.3, *seed)
	case "sorted":
		vals = workload.SortedInts(*n, 3, *seed)
	case "clustered":
		vals = workload.ClusteredInts(*n, 8, 256, *seed)
	default:
		fmt.Fprintf(os.Stderr, "mkdata: unknown kind %q\n", *kind)
		os.Exit(2)
	}
	b := bat.FromInts(vals).SetName(*kind)
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mkdata:", err)
		os.Exit(1)
	}
	defer f.Close()
	nbytes, err := b.WriteTo(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mkdata:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d values (%d bytes) to %s\n", len(vals), nbytes, *out)
}
