package experiments

import (
	"testing"
)

// TestTable3FullScaleBands locks in the calibrated reproduction: the full
// 32-processor Table 3 must stay within bands around both the paper's
// numbers and the values recorded in EXPERIMENTS.md. The run takes ~10 s,
// so it is skipped under -short.
func TestTable3FullScaleBands(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale Table 3 (~10s); run without -short")
	}
	rows, err := Table3Data(Options{}, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	type band struct {
		absLo, absHi float64 // TTS absolute speedup
		relLo, relHi float64 // QOLB relative speedup
	}
	bands := map[string]band{
		"barnes":    {5.5, 9.5, 0.95, 1.3},
		"ocean":     {4.5, 7.5, 1.3, 1.9},
		"radiosity": {1.8, 3.2, 5.0, 9.0},
		"raytrace":  {1.1, 2.0, 6.5, 12.0},
		"water-nsq": {13.0, 21.0, 0.95, 1.3},
	}
	for _, r := range rows {
		b, ok := bands[r.Benchmark]
		if !ok {
			t.Errorf("unexpected benchmark %q", r.Benchmark)
			continue
		}
		if r.TTSAbs < b.absLo || r.TTSAbs > b.absHi {
			t.Errorf("%s: TTS absolute speedup %.2f outside [%.1f, %.1f]",
				r.Benchmark, r.TTSAbs, b.absLo, b.absHi)
		}
		if r.QOLBRel < b.relLo || r.QOLBRel > b.relHi {
			t.Errorf("%s: QOLB relative speedup %.2f outside [%.1f, %.1f]",
				r.Benchmark, r.QOLBRel, b.relLo, b.relHi)
		}
		// The paper's headline: IQOLB within a few percent of QOLB.
		ratio := float64(r.QOLBCycles) / float64(r.IQOLBCycles)
		if ratio < 0.95 || ratio > 1.05 {
			t.Errorf("%s: IQOLB does not track QOLB at full scale (QOLB/IQOLB = %.3f)",
				r.Benchmark, ratio)
		}
		// QOLB and IQOLB never lose to TTS.
		if r.QOLBRel < 0.98 || r.IQOLBRel < 0.98 {
			t.Errorf("%s: queue-based primitive lost to TTS (%.2f / %.2f)",
				r.Benchmark, r.QOLBRel, r.IQOLBRel)
		}
	}
	// The crossover ordering: raytrace and radiosity must be the most
	// lock-sensitive, water and barnes the least.
	rel := map[string]float64{}
	for _, r := range rows {
		rel[r.Benchmark] = r.QOLBRel
	}
	if !(rel["raytrace"] > rel["ocean"] && rel["radiosity"] > rel["ocean"]) {
		t.Error("lock-bound benchmarks not more sensitive than ocean")
	}
	if !(rel["ocean"] > rel["barnes"] && rel["ocean"] > rel["water-nsq"]) {
		t.Error("ocean not more sensitive than the compute-bound benchmarks")
	}
}
