package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// envInfo records where a result file was measured.
type envInfo struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

func readEnv() envInfo {
	env := envInfo{Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: "unknown"}
	// A checkout that is not a git repository has no commit to record.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// resultFile is what -all -out writes and -compare reads.
type resultFile struct {
	Env     envInfo     `json:"env"`
	Seed    uint64      `json:"seed"`
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

type runRecord struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	runResult
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values returns every reading of one metric on one workload, and how
// many of the file's runs of that workload failed a check or an
// operation.
func (f *resultFile) values(workload string, trace int, metric string) (xs []float64, bad int) {
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		if !r.Correct || r.Failed > 0 {
			bad++
		}
		if v, ok := r.Metrics[metric]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs, bad
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	return math.Abs((quantile(xs, 0.75) - quantile(xs, 0.25)) / m)
}

// allBetter reports whether every reading of the change is better than
// every reading of the parent.
func allBetter(parent, change []float64, lowerBetter bool) bool {
	for _, c := range change {
		for _, p := range parent {
			if lowerBetter && c >= p || !lowerBetter && c <= p {
				return false
			}
		}
	}
	return true
}

// allNear reports whether every x equals ref to 1e-9.
func allNear(ref float64, xs []float64) bool {
	for _, x := range xs {
		if math.Abs(x-ref) > 1e-9*math.Abs(ref) {
			return false
		}
	}
	return true
}

// compareFiles applies each end-to-end metric's bound per (metric,
// workload) and prints worse / no-worse / unresolved; per-layer counts
// that are exact in (workload, seed) must be identical when the two
// files share a seed. It reports whether anything was worse, differed,
// or failed.
func compareFiles(parentPath, changePath string) (bool, error) {
	parent, err := readResultFile(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readResultFile(changePath)
	if err != nil {
		return false, err
	}
	fmt.Printf("parent: %s commit=%s seed=%d\nchange: %s commit=%s seed=%d\n",
		parentPath, parent.Env.Commit, parent.Seed, changePath, change.Env.Commit, change.Seed)
	anyWorse := false

	fmt.Printf("\n%-18s %-24s %12s %12s %8s %7s %7s  %s\n",
		"workload", "metric", "parent p50", "change p50", "change", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			ps, pbad := parent.values(w.name, 0, d.Name)
			cs, cbad := change.values(w.name, 0, d.Name)
			if len(ps) == 0 || len(cs) == 0 {
				continue
			}
			if pbad+cbad > 0 && d.Name == endToEnd[0].Name {
				fmt.Printf("%-18s %d parent and %d change run(s) failed a check or an operation\n", w.name, pbad, cbad)
				anyWorse = true
			}
			pm, cm := median(ps), median(cs)
			lower := d.Better == "lower"
			// worsening is positive when the change is worse.
			worsening := (cm - pm) / pm
			if !lower {
				worsening = -worsening
			}
			sp := math.Max(spread(ps), spread(cs))
			verdict := "no-worse"
			switch {
			case sp > d.Bound && !allBetter(ps, cs, lower):
				verdict = "unresolved"
			case worsening > d.Bound:
				verdict = "worse"
				anyWorse = true
			}
			fmt.Printf("%-18s %-24s %12.6g %12.6g %+7.1f%% %6.1f%% %6.0f%%  %s (n=%d,%d)\n",
				w.name, d.Name, pm, cm, 100*(cm-pm)/pm, 100*sp, 100*d.Bound, verdict, len(ps), len(cs))
		}
	}

	if parent.Seed != change.Seed {
		fmt.Println("\nseeds differ: exact counts are not compared")
		return anyWorse, nil
	}
	fmt.Println("\nexact per-layer counts:")
	differ := 0
	for _, w := range workloads {
		for _, d := range perLayer {
			if !d.Exact {
				continue
			}
			ps, _ := parent.values(w.name, 1, d.Name)
			cs, _ := change.values(w.name, 1, d.Name)
			if len(ps) > 0 && !(allNear(ps[0], ps) && allNear(ps[0], cs)) {
				fmt.Printf("  differs  %-18s %-28s parent %v change %v\n", w.name, d.Name, ps, cs)
				differ++
			}
		}
	}
	if differ == 0 {
		fmt.Println("  identical")
	}
	return anyWorse || differ > 0, nil
}
