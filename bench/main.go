// Command bench is this repository's one benchmark: five named workloads
// driven over live RPC against stores built through the public entry
// points only, reporting client-observed end-to-end metrics (untraced)
// and per-layer metrics (a separate traced run), and checking every
// answer it measures. See README.md; BENCHMARK.json at the repository
// root names the metrics, units, bounds and workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all five in turn)")
		seed    = flag.Int64("seed", 1, "drives corpus, query texts and op order; the served program sees only generated inputs")
		seconds = flag.Int("seconds", 8, "length of one run's measured part (warm-up is the first eighth)")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics and span files instead of end-to-end metrics")
		scaleN  = flag.String("scale", "full", "full | smoke")
		aa      = flag.Int("aa", 0, "repeatability self-check: run N times at one seed and print each metric's spread")
		outDir  = flag.String("out", "out", "directory for span files and the persistent store of ingest-mixed")
	)
	flag.Parse()
	sc, ok := scales[*scaleN]
	if !ok || *seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: bad -scale, -seconds or stray arguments")
		flag.Usage()
		os.Exit(2)
	}
	run := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		run = []workload{w}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("machine: nproc %d, GOMAXPROCS %d, %s %s/%s; %d closed-loop clients; scale %s; seed %d; %d s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, clients, *scaleN, *seed, *seconds)

	defs, measure := endToEnd, runUntraced
	if *trace != 0 {
		defs, measure = perLayer, runTraced
	}
	exit := 0
	var last result
	for _, w := range run {
		reps := max(1, *aa)
		runs := make([]*report, 0, reps)
		for i := 0; i < reps; i++ {
			rep, err := measure(w, *seed, *seconds, sc, *outDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				os.Exit(1)
			}
			last = rep.print(defs)
			if !last.Correct {
				exit = 1
			}
			runs = append(runs, rep)
		}
		if *aa > 0 {
			printSpread(w.name, defs, runs)
		}
	}
	// The last line of standard output is the result of the (last) run.
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	os.Exit(exit)
}

// result is the machine-readable outcome of one run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the run's human-readable report and returns its result.
func (r *report) print(defs []metricDef) result {
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	fmt.Printf("== %s: %d ops attempted, %d failed (failed_share %.6f)\n", r.workload, r.attempted, r.failed, float64(r.failed)/float64(max(1, r.attempted)))
	for _, d := range defs {
		res.Metrics[d.name] = metric{r.values[d.name], d.unit}
		fmt.Printf("   %-26s %14.4f %s\n", d.name, r.values[d.name], d.unit)
	}
	for _, line := range r.diagnostics {
		fmt.Println("   .", line)
	}
	for _, line := range r.notes {
		fmt.Println("   !", line)
	}
	return res
}

// printSpread is the A/A table: per metric the median, the quartiles and
// the interquartile range as a share of the median, over repeated runs
// of one workload at one seed. Counts must repeat exactly (spread 0).
func printSpread(name string, defs []metricDef, runs []*report) {
	fmt.Printf("== A/A %s over %d runs\n   %-26s %14s %14s %14s %9s\n", name, len(runs), "metric", "q1", "median", "q3", "iqr/med")
	for _, d := range defs {
		vals := make([]float64, len(runs))
		for i, r := range runs {
			vals[i] = r.values[d.name]
		}
		sort.Float64s(vals)
		q1, med, q3 := quantile(vals, 0.25), quantile(vals, 0.5), quantile(vals, 0.75)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("   %-26s %14.4f %14.4f %14.4f %8.2f%%\n", d.name, q1, med, q3, 100*spread)
	}
}
