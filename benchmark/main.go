// Command benchmark is the repository's wall-clock benchmark: five
// workloads, end-to-end metrics from an untraced run through the public
// surface, and per-layer metrics from a separate traced run recorded
// from outside the program. See README.md in this directory.
//
// One run:   benchmark --workload W --seed S --seconds T --trace 0|1
// Every one: benchmark -all [-seed S] [-runs R] [-out results.json]
// Compare:   benchmark -compare parent.json change.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (see -list)")
		seconds  = flag.Float64("seconds", 19, "wall-clock budget of the measured part of one run")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		traceOut = flag.String("trace-out", "", "write the traced run's spans to this file as JSON")
		smoke    = flag.Bool("smoke", false, "use the smoke test's small sizes")
		all      = flag.Bool("all", false, "run every workload, untraced and traced, each in a fresh process")
		runs     = flag.Int("runs", 1, "with -all: repetitions of every run")
		out      = flag.String("out", "", "with -all: write the result file here")
		compare  = flag.Bool("compare", false, "compare two result files: -compare parent.json change.json")
		list     = flag.Bool("list", false, "list workloads and metrics")
		samples  = flag.Bool("samples", false, "keep each metric's sample count in the result line (-all passes it)")
	)
	seed := seedFlag(defaultSeed)
	flag.Var(&seed, "seed", "seed of every generated input; the only source of randomness")
	flag.Parse()

	var err error
	switch {
	case *list:
		printList()
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
			break
		}
		var worse bool
		if worse, err = compareFiles(flag.Arg(0), flag.Arg(1)); err == nil && worse {
			os.Exit(1)
		}
	case *all:
		err = runAll(uint64(seed), *seconds, *runs, *smoke, *out)
	default:
		var res runResult
		res, err = runOne(*name, runOpts{seed: uint64(seed), seconds: *seconds, smoke: *smoke, traceOut: *traceOut}, *trace == 1)
		if err == nil {
			err = printResult(res, *samples)
		}
		if err == nil && !res.Correct {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

// seedFlag accepts any 64-bit integer, signed or not: the seed only
// selects inputs, so a negative one is as good as any.
type seedFlag uint64

func (s *seedFlag) String() string { return strconv.FormatUint(uint64(*s), 10) }

func (s *seedFlag) Set(v string) error {
	u, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		var i int64
		if i, err = strconv.ParseInt(v, 10, 64); err != nil {
			return err
		}
		u = uint64(i)
	}
	*s = seedFlag(u)
	return nil
}

// printResult writes the run's one-line JSON result, the last line of
// standard output. Sample counts are left out of it unless asked for:
// the line's shape is fixed by the benchmark contract.
func printResult(res runResult, samples bool) error {
	if !samples {
		bare := make(map[string]metricValue, len(res.Metrics))
		for k, v := range res.Metrics {
			v.Samples = 0
			bare[k] = v
		}
		res.Metrics = bare
	}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// benchRoot finds the checkout root: the nearest directory at or above
// the working directory that holds BENCHMARK.json.
func benchRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found at or above the working directory")
		}
		dir = parent
	}
}

// runOne runs one workload in this process. Everything it writes goes to
// a private directory under .bench_build/ in the checkout, removed at
// the end.
func runOne(name string, o runOpts, traced bool) (res runResult, err error) {
	w, err := findWorkload(name)
	if err != nil {
		return res, err
	}
	root, err := benchRoot()
	if err != nil {
		return res, err
	}
	tmp := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return res, err
	}
	if o.scratch, err = os.MkdirTemp(tmp, w.name+"-"); err != nil {
		return res, err
	}
	defer func() {
		if rerr := os.RemoveAll(o.scratch); err == nil {
			err = rerr
		}
	}()
	fmt.Printf("workload %s seed=%d seconds=%g trace=%t smoke=%t\n", w.name, o.seed, o.seconds, traced, o.smoke)
	switch {
	case w.serve:
		return runServe(o, traced)
	case traced:
		return runSimTraced(w, o)
	default:
		return runSimEndToEnd(w, o)
	}
}

// runAll runs every workload untraced and traced, each in a fresh
// process, prints every metric, and fails if any check failed.
func runAll(seed uint64, seconds float64, runs int, smoke bool, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Env: readEnv(), Seed: seed, Seconds: seconds}
	bad := 0
	for rep := 0; rep < runs; rep++ {
		for _, w := range workloads {
			for trace := 0; trace <= 1; trace++ {
				args := []string{"--workload", w.name, "--seed", fmt.Sprint(seed),
					"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace), "-samples"}
				if smoke {
					args = append(args, "-smoke")
				}
				cmd := exec.Command(self, args...)
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				os.Stdout.Write(stdout)
				if err != nil {
					if _, exited := err.(*exec.ExitError); !exited || cmd.ProcessState.ExitCode() != 1 {
						return fmt.Errorf("%s trace=%d: %w", w.name, trace, err)
					}
				}
				lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
				var res runResult
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					return fmt.Errorf("%s trace=%d: no result line: %w", w.name, trace, err)
				}
				if !res.Correct || res.Failed > 0 {
					bad++
				}
				file.Runs = append(file.Runs, runRecord{Workload: w.name, Trace: trace, runResult: res})
			}
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d run(s) failed a check or an operation", bad)
	}
	return nil
}

func printList() {
	fmt.Printf("seeds: default %d, held out %d\n\nworkloads:\n", defaultSeed, heldOutSeed)
	for _, w := range workloads {
		fmt.Printf("  %-18s %s\n", w.name, w.why)
	}
	fmt.Println("\nend-to-end metrics (untraced run):")
	for _, d := range endToEnd {
		fmt.Printf("  %-32s %-6s %-6s better, may worsen by %g of the parent's median\n", d.Name, d.Unit, d.Better, d.Bound)
	}
	fmt.Println("\nper-layer metrics (traced run):")
	for _, d := range perLayer {
		exact := ""
		if d.Exact {
			exact = "  exact in (workload, seed)"
		}
		fmt.Printf("  %-32s %-6s%s\n", d.Name, d.Unit, exact)
	}
}

// setRuntimeMetrics records the Go runtime's view of the process.
func setRuntimeMetrics(ms *metricSet) {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	ms.set("rt.num_gc", float64(mem.NumGC), 1)
	ms.set("rt.gc_pause_s", float64(mem.PauseTotalNs)/1e9, int(mem.NumGC))
	ms.set("rt.heap_peak_mb", float64(mem.HeapSys)/1e6, 1)
}
