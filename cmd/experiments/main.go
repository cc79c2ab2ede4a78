// Command experiments regenerates the paper-reproduction tables E1–E15;
// -list prints each id with its title.
//
// Usage:
//
//	experiments            # run everything
//	experiments E3 E6 E9   # run a subset
//	experiments -list      # list experiment ids and titles
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	all := experiments.All()
	if *list {
		for _, id := range experiments.Order() {
			t := all[id]()
			fmt.Printf("%-4s %s\n", t.ID, t.Title)
		}
		return
	}
	ids := flag.Args()
	if len(ids) == 0 {
		ids = experiments.Order()
	}
	for _, id := range ids {
		f, ok := all[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
			os.Exit(1)
		}
		fmt.Println(f().String())
	}
}
