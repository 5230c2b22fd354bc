package iqolb_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iqolb"
)

var updateSim = flag.Bool("update", false, "rewrite the simulator goldens under testdata/sim")

// TestSimulatedOutputsGolden regenerates, in process, what the CLIs print
// for the paper's experiments and compares each output byte for byte with
// the copy committed under testdata/sim. Every simulated number is
// deterministic, so a host-speed change to the simulator must leave every
// file unchanged, and a model change shows up as a readable diff. -update
// rewrites the files; -short runs the quick subset.
//
//	table3.txt                 table3 -q
//	table3_p8_s4.txt           table3 -procs 8 -scale 4 -q
//	report.txt                 report -q
//	report_quick.txt           report -quick -q
//	campaign_hotlock.json      iqolbsim -bench hotlock -procs 4 -scale 16 -fault-campaign
//	figureN.txt                seqtrace -figure N
//	figureN_columns.txt        seqtrace -figure N -columns
//	raytrace_iqolb_p8.sha256   SHA-256 of report trace -bench raytrace -system iqolb -p 8
func TestSimulatedOutputsGolden(t *testing.T) {
	opt := iqolb.Options{Jobs: 2}
	outputs := []struct {
		name  string
		quick bool
		gen   func() (string, error)
	}{
		{"table3_p8_s4.txt", true, func() (string, error) { return table3Out(opt, 8, 4) }},
		{"report_quick.txt", true, func() (string, error) { return reportOut(opt, true) }},
		{"figure2.txt", true, func() (string, error) { return figureOut(2, false) }},
		{"figure2_columns.txt", true, func() (string, error) { return figureOut(2, true) }},
		{"figure3.txt", true, func() (string, error) { return figureOut(3, false) }},
		{"figure3_columns.txt", true, func() (string, error) { return figureOut(3, true) }},
		{"figure4.txt", true, func() (string, error) { return figureOut(4, false) }},
		{"figure4_columns.txt", true, func() (string, error) { return figureOut(4, true) }},
		{"table3.txt", false, func() (string, error) { return table3Out(opt, 32, 1) }},
		{"report.txt", false, func() (string, error) { return reportOut(opt, false) }},
		{"campaign_hotlock.json", false, campaignOut},
		{"raytrace_iqolb_p8.sha256", false, func() (string, error) { return perfettoSHA(t.TempDir()) }},
	}
	for _, o := range outputs {
		t.Run(o.name, func(t *testing.T) {
			if testing.Short() && !o.quick {
				t.Skip("full-scale output; runs without -short")
			}
			got, err := o.gen()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "sim", o.name)
			if *updateSim {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if d := firstDiff(string(want), got); d != "" {
				t.Errorf("%s differs from the committed golden:\n%s", path, d)
			}
		})
	}
}

// firstDiff describes the first differing line of two outputs, or returns
// "" when they are equal.
func firstDiff(want, got string) string {
	if want == got {
		return ""
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, wl, gl)
		}
	}
	return "outputs differ"
}

func table3Out(opt iqolb.Options, procs, scale int) (string, error) {
	out, _, err := iqolb.Table3(opt, procs, scale)
	return out, err
}

// reportOut prints the sections cmd/report prints, in its order.
func reportOut(opt iqolb.Options, quick bool) (string, error) {
	procs, scale, sweepProcs, sweepCS := 32, 1, 16, 1024
	if quick {
		procs, scale, sweepProcs, sweepCS = 8, 8, 8, 256
	}
	var b strings.Builder
	fmt.Fprintln(&b, iqolb.Table1())
	fmt.Fprintln(&b, iqolb.Table2())
	sections := []func() (string, error){
		func() (string, error) { return table3Out(opt, procs, scale) },
		func() (string, error) { s, _, err := iqolb.Figure1(opt, sweepProcs, sweepCS); return s, err },
		func() (string, error) { s, _, err := iqolb.Figure2(); return s, err },
		func() (string, error) { s, _, err := iqolb.Figure3(); return s, err },
		func() (string, error) { s, _, err := iqolb.Figure4(); return s, err },
		func() (string, error) {
			return iqolb.Sweep(opt, iqolb.SweepSpec{
				Kind: iqolb.SweepScalingKind, Bench: "raytrace",
				ProcCounts: []int{1, 2, 4, 8, 16, 32}, Scale: scale,
			})
		},
		func() (string, error) {
			return iqolb.Sweep(opt, iqolb.SweepSpec{
				Kind: iqolb.SweepTimeoutKind, Procs: sweepProcs, TotalCS: sweepCS,
				Budgets: []iqolb.Time{200, 500, 1000, 5000, 10000, 50000},
			})
		},
	}
	for _, kind := range []iqolb.SweepKind{
		iqolb.SweepRetentionKind, iqolb.SweepCollocationKind,
		iqolb.SweepPredictorKind, iqolb.SweepGeneralizedKind,
	} {
		sections = append(sections, func() (string, error) {
			return iqolb.Sweep(opt, iqolb.SweepSpec{Kind: kind, Procs: sweepProcs, TotalCS: sweepCS})
		})
	}
	for _, section := range sections {
		body, err := section()
		if err != nil {
			return "", err
		}
		fmt.Fprintln(&b, body)
	}
	return b.String(), nil
}

// figureOut prints what seqtrace -figure n [-columns] prints.
func figureOut(n int, columns bool) (string, error) {
	figures := map[int]func() (string, *iqolb.Recorder, error){
		2: iqolb.Figure2, 3: iqolb.Figure3, 4: iqolb.Figure4,
	}
	out, rec, err := figures[n]()
	if err != nil {
		return "", err
	}
	if columns {
		procs := 3
		if n == 2 {
			procs = 2
		}
		return rec.RenderColumns(procs), nil
	}
	return out, nil
}

// campaignOut prints what iqolbsim's -fault-campaign prints for the hotlock
// cell with its default fault flags.
func campaignOut() (string, error) {
	rep, err := iqolb.RunCampaign(iqolb.Spec{
		Bench: "hotlock", System: "iqolb", Procs: 4, Scale: 16,
	}, iqolb.CampaignConfig{Seeds: []uint64{1}, Degrade: true})
	if err != nil {
		return "", err
	}
	out, err := rep.JSON()
	return string(out), err
}

// perfettoSHA writes the raytrace/iqolb/p8 Perfetto trace into dir and
// returns its SHA-256 (the trace is megabytes; only the hash is committed).
func perfettoSHA(dir string) (string, error) {
	path := filepath.Join(dir, "raytrace_iqolb_p8.trace.json")
	if _, err := iqolb.RunSpec(iqolb.Spec{
		Bench: "raytrace", System: "iqolb", Procs: 8, Scale: 1,
		Trace: &iqolb.TraceOptions{Perfetto: path},
	}); err != nil {
		return "", err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x\n", sha256.Sum256(data)), nil
}
