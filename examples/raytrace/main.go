// Raytrace reproduces the paper's most lock-bound data point: the Raytrace
// work-queue signature (one hot lock, tiny critical sections) across
// machine sizes, comparing TTS, explicit QOLB and IQOLB. This is the
// column of Table 3 where queue-based locking matters most.
package main

import (
	"fmt"
	"log"

	"iqolb"
)

func main() {
	systems := []iqolb.System{iqolb.SystemTTS, iqolb.SystemQOLB, iqolb.SystemIQOLB}
	procCounts := []int{1, 4, 16, 32}

	fmt.Println("raytrace signature: one hot work-queue lock, short tasks")
	fmt.Printf("\n  %-6s", "procs")
	for _, s := range systems {
		fmt.Printf(" %14s", s.Name)
	}
	fmt.Println("   (cycles; speedup over 1-proc TTS)")

	var base uint64
	for _, procs := range procCounts {
		fmt.Printf("  %-6d", procs)
		for _, sys := range systems {
			r, err := iqolb.RunSpec(iqolb.Spec{
				Bench:  "raytrace",
				System: sys.Name,
				Procs:  procs,
			})
			if err != nil {
				log.Fatal(err)
			}
			if base == 0 {
				base = r.Cycles
			}
			fmt.Printf(" %8d %4.1fx", r.Cycles, float64(base)/float64(r.Cycles))
		}
		fmt.Println()
	}
	fmt.Println("\nAt 32 processors the TTS invalidation storms serialize the machine;")
	fmt.Println("QOLB hands the lock directly to the next waiter, and IQOLB matches it")
	fmt.Println("without any software or ISA change (paper Table 3).")
}
