package main

import (
	"fmt"
	"os"
	"path/filepath"
	"text/tabwriter"

	"oooback/internal/calib"
	"oooback/internal/microbench"
	"oooback/internal/models"
)

// runCalib closes the Daydream-style calibration loop on the real networks:
// profile a serial training run per net, fit the measured op timings into a
// cost table, validate the fitted (and the hand-written default) table by
// re-simulating each net, and print a what-if estimation table for a few
// canned perturbations. With -o, the raw profile is written to DIR/profile.json.
//
// Like `oooexp bench`, this measures real wall-clock execution, so the numbers
// vary run to run and the command lives outside the deterministic experiments
// registry.
func runCalib(outDir string) error {
	prof, err := microbench.ProfileRefNets()
	if err != nil {
		return err
	}
	if outDir != "" {
		buf, err := prof.WriteJSON()
		if err != nil {
			return err
		}
		path := filepath.Join(outDir, "profile.json")
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n\n", path)
	}

	fitted, err := calib.Fit(prof)
	if err != nil {
		return err
	}
	accFit, err := calib.Validate(prof, fitted)
	if err != nil {
		return err
	}
	accDef, err := calib.Validate(prof, models.DefaultCostTable(models.V100Profile()))
	if err != nil {
		return err
	}

	fmt.Println("simulated vs measured iteration time:")
	tw := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "net\tmeasured ms\tfitted ms\tfitted APE\tdefault ms\tdefault APE")
	for i, n := range accFit.PerNet {
		d := accDef.PerNet[i]
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.1f%%\t%.3f\t%.1f%%\n",
			n.Net, ms(n.MeasuredNs), ms(n.SimulatedNs), 100*n.APE, ms(d.SimulatedNs), 100*d.APE)
	}
	fmt.Fprintf(tw, "MAPE\t\t\t%.1f%%\t\t%.1f%%\n", 100*accFit.MAPE, 100*accDef.MAPE)
	if err := tw.Flush(); err != nil {
		return err
	}
	if accFit.MAPE > calib.DefaultMAPEThreshold {
		return fmt.Errorf("oooexp calib: fitted-table MAPE %.1f%% exceeds the %.0f%% threshold",
			100*accFit.MAPE, 100*calib.DefaultMAPEThreshold)
	}

	fmt.Println("\nwhat-if estimation (fitted table, simulated iteration time):")
	scenarios := []struct {
		title string
		w     calib.WhatIf
	}{
		{"dW kernels 2x faster", calib.WhatIf{ScaleOpKind: map[string]float64{"dW": 0.5}}},
		{"forward 2x faster", calib.WhatIf{ScaleOpKind: map[string]float64{"fwd": 0.5}}},
		{"all backward 2x faster", calib.WhatIf{ScaleOpKind: map[string]float64{"dO": 0.5, "dW": 0.5}}},
		{"optimizer step free", calib.WhatIf{ScaleOpKind: map[string]float64{"update": 1e-3}}},
	}
	tw = tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\tnet\tbase ms\twhat-if ms\tspeedup")
	for _, sc := range scenarios {
		pert, err := sc.w.Apply(fitted)
		if err != nil {
			return err
		}
		for i := range prof.Nets {
			n := &prof.Nets[i]
			if n.Engine != "serial" {
				continue
			}
			base, err := calib.SimulateNet(n, fitted)
			if err != nil {
				return err
			}
			after, err := calib.SimulateNet(n, pert)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.3f\t%.2fx\n",
				sc.title, n.Net, ms(base.Nanoseconds()), ms(after.Nanoseconds()),
				float64(base)/float64(after))
		}
	}
	return tw.Flush()
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
