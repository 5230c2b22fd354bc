// Quickstart: run one contended-lock benchmark under baseline TTS and
// under IQOLB and compare. The two runs execute byte-identical software —
// only the memory-system mode differs, which is the paper's core claim.
package main

import (
	"fmt"
	"log"

	"iqolb"
)

func main() {
	const procs = 16

	tts, err := iqolb.RunSpec(iqolb.Spec{
		Bench:  "hotlock",
		System: iqolb.SystemTTS.Name,
		Procs:  procs,
	})
	if err != nil {
		log.Fatal(err)
	}
	iq, err := iqolb.RunSpec(iqolb.Spec{
		Bench:  "hotlock",
		System: iqolb.SystemIQOLB.Name,
		Procs:  procs,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("hot lock, %d processors, identical TTS LL/SC software:\n\n", procs)
	fmt.Printf("  %-22s %12s %12s %12s\n", "system", "cycles", "bus txs", "SC fails")
	fmt.Printf("  %-22s %12d %12d %12.3f\n", "baseline LL/SC", tts.Cycles, tts.BusTransactions, tts.SCFailureRate)
	fmt.Printf("  %-22s %12d %12d %12.3f\n", "IQOLB", iq.Cycles, iq.BusTransactions, iq.SCFailureRate)
	fmt.Printf("\n  IQOLB speedup: %.2fx with %.1fx less bus traffic\n",
		float64(tts.Cycles)/float64(iq.Cycles),
		float64(tts.BusTransactions)/float64(iq.BusTransactions))
	fmt.Printf("  (tear-off copies sent: %d; delay time-outs: %d)\n", iq.TearOffs, iq.Timeouts)
}
