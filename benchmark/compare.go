package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is BENCHMARK.json, as far as the benchmark reads it.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the working directory or its parent:
// the benchmark runs from the repository's root or from its own directory.
func loadSpec() (*benchSpec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		if data, err = os.ReadFile("../BENCHMARK.json"); err != nil {
			return nil, err
		}
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// floors are absolute differences too small to matter, in the metric's
// unit: a change or a spread below a metric's floor is never a regression
// and never unresolved. setup_s is 2 to 3 ms here, where 25 % is the
// wobble of one process start; under 50 ms nobody waits for it.
// BENCHMARK.json has no key for a floor, so the driver applies the bare
// bound; setup_s is a median of many starts to hold within that too.
var floors = map[string]float64{"setup_s": 0.050}

// verdict applies one metric's bound to a baseline a and a candidate b:
// regressed when b's median is worse than a's by more than the bound,
// unresolved when either side's quartiles are further apart than the
// bound, so that the run cannot tell, ok otherwise.
func verdict(m specMetric, a, b stat) string {
	if f := floors[m.Name]; f > 0 && math.Abs(b.Value-a.Value) <= f && a.Q3-a.Q1 <= f && b.Q3-b.Q1 <= f {
		return "ok"
	}
	spread := func(s stat) float64 {
		if s.Value == 0 {
			return 0
		}
		return (s.Q3 - s.Q1) / math.Abs(s.Value)
	}
	worse := (b.Value - a.Value) / math.Abs(a.Value)
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case spread(a) > m.Bound || spread(b) > m.Bound:
		return "unresolved"
	case worse > m.Bound:
		return "regressed"
	}
	return "ok"
}

// compare prints one row per end-to-end metric and workload.
func compare(out io.Writer, pathA, pathB string) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	a, err := loadReport(pathA)
	if err != nil {
		return err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return err
	}
	// The same workloads: a run on other processors or of another length
	// is another benchmark. The seed may differ; it only draws the inputs.
	if ha, hb := a.Header, b.Header; ha.Seconds != hb.Seconds || ha.C != hb.C || ha.Nproc != hb.Nproc {
		return fmt.Errorf("%s ran for %g s with C=%d on %d processors, %s for %g s with C=%d on %d: not comparable",
			pathA, ha.Seconds, ha.C, ha.Nproc, pathB, hb.Seconds, hb.C, hb.Nproc)
	}
	byName := map[string]*measured{}
	for _, m := range b.Workloads {
		byName[m.Name] = m
	}
	fmt.Fprintf(out, "| workload | metric | a | b | change | bound | verdict |\n|---|---|---|---|---|---|---|\n")
	for _, ma := range a.Workloads {
		mb := byName[ma.Name]
		if mb == nil {
			return fmt.Errorf("%s has no workload %s", pathB, ma.Name)
		}
		for _, m := range spec.EndToEnd {
			sa, sb := ma.EndToEnd[m.Name], mb.EndToEnd[m.Name]
			bound := fmt.Sprintf("%.0f%% %s", 100*m.Bound, m.Better)
			if f := floors[m.Name]; f > 0 {
				bound += fmt.Sprintf(", floor %g %s", f, m.Unit)
			}
			fmt.Fprintf(out, "| %s | %s | %.5g %s | %.5g %s | %+.1f%% | %s | %s |\n",
				ma.Name, m.Name, sa.Value, sa.Unit, sb.Value, sb.Unit,
				100*(sb.Value-sa.Value)/math.Abs(sa.Value), bound, verdict(m, sa, sb))
		}
		if ma.Failed != 0 || mb.Failed != 0 {
			fmt.Fprintf(out, "| %s | failed ops | %d | %d | | none allowed | regressed |\n", ma.Name, ma.Failed, mb.Failed)
		}
	}
	return nil
}
