// Command perf is the repo's wall-clock benchmark. It drives the system
// through its two front doors — the waved daemon over TCP and
// wave/shard embedded as a library — on seven fixed workloads, checks
// every answer against an oracle, and reports 15 end-to-end metrics;
// with -trace 1 it replays each workload's ops at every layer's public
// entry point and reports per-layer metrics and a span file. See
// README.md in this directory.
//
//	go run ./perf                          # all workloads, end to end
//	go run ./perf -trace 1                 # all workloads, per layer
//	go run ./perf -selfcheck               # the suite twice, compared
//	go run ./perf -workload probe_tail -seed 3 -seconds 8 -trace 0
//
// The last form is what BENCHMARK.json's driver runs; its last line of
// output is one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// childEnv, when set, makes this process the embed_probe child: it
// holds the run's parameters as JSON.
const childEnv = "WAVEPERF_CHILD"

type childArgs struct {
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"` // 0 = set-up only
	Sizes   sizes   `json:"sizes"`
}

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain())
	}
	var (
		workload  = flag.String("workload", "", "run one workload and end with the driver's JSON line (default: all seven)")
		seed      = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", runSeconds, "length of each workload's timed phase")
		trace     = flag.Int("trace", 0, "1 = the traced run: per-layer metrics and a span file, no end-to-end metrics")
		selfcheck = flag.Bool("selfcheck", false, "run the suite twice and fail if any end-to-end metric differs by more than its bound")
		out       = flag.String("out", ".perf-out", "directory for the built daemon, logs, results and spans (git-ignored)")
		describe  = flag.Bool("describe", false, "print the BENCHMARK.json these workloads and metrics make, and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *describe {
		os.Stdout.Write(benchmarkJSON())
		return
	}
	killChildrenOnSignal()
	env, err := newEnvironment(*out)
	if err != nil {
		fatal(err)
	}
	code := 0
	switch {
	case *workload != "":
		code = driverRun(env, *workload, *seed, *seconds, *trace == 1)
	case *selfcheck:
		code = selfCheck(env, *seed, *seconds)
	default:
		code = suiteRun(env, *seed, *seconds, *trace == 1)
	}
	killChildren()
	os.Exit(code)
}

func fatal(err error) {
	killChildren()
	fmt.Fprintln(os.Stderr, "perf:", err)
	os.Exit(2)
}

// newEnvironment prepares the output directory and builds the daemon.
func newEnvironment(out string) (*environment, error) {
	out, err := filepath.Abs(out)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	waved, err := buildWaved(out)
	if err != nil {
		return nil, err
	}
	return &environment{
		out: out, waved: waved, sizes: fullSizes,
		logf: func(format string, args ...any) { fmt.Fprintf(os.Stderr, "perf: "+format+"\n", args...) },
	}, nil
}

// provenance records where and on what a result was measured.
type provenance struct {
	NProc     int     `json:"nproc"`
	GoVersion string  `json:"go_version"`
	Commit    string  `json:"commit"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Time      string  `json:"time"`
}

func newProvenance(seed int64, seconds float64) provenance {
	commit := "unknown" // the driver's checkout is not a git repository
	if _, err := os.Stat(".git"); err == nil {
		if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(b))
		}
	}
	return provenance{
		NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: commit,
		Seed: seed, Seconds: seconds, Time: time.Now().UTC().Format(time.RFC3339),
	}
}

func (p provenance) String() string {
	return fmt.Sprintf("nproc=%d %s commit=%s seed=%d seconds=%g", p.NProc, p.GoVersion, p.Commit, p.Seed, p.Seconds)
}

// outcome is what one run of one workload produced, end to end or
// per layer.
type outcome struct {
	Workload  string              `json:"workload"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
	Raw       *runResult          `json:"raw,omitempty"`
}

// measure runs w once and prints its metrics by name.
func measure(env *environment, w *workloadSpec, seed int64, seconds float64, traced bool) (*outcome, error) {
	if traced {
		o, err := runTraced(env, w, seed)
		if err == nil {
			printMetrics(w.name, perLayer, o.Metrics)
		}
		return o, err
	}
	res, err := runWorkload(env, w, seed, seconds)
	if err != nil {
		return nil, err
	}
	o := &outcome{Workload: w.name, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.metrics(), Raw: res}
	printMetrics(w.name, endToEnd, o.Metrics)
	fmt.Printf("%-14s ops attempted %d, failed %d; %d replies raced a transition and were exact over the days both windows share\n",
		w.name, o.Attempted, o.Failed, res.Transitional)
	for k := opKind(0); k < numKinds; k++ {
		if s, src := res.latency(k, false); s.N > 0 {
			fmt.Printf("%-14s %-7s n=%-7d p50 %.4f ms, p%g %.4f ms (%s)\n", w.name, k, s.N, s.P50MS, s.Highest, s.HighestMS, src)
		}
	}
	return o, nil
}

// driverRun is one run as BENCHMARK.json's driver asks for it: the
// last line of standard output is the result object.
func driverRun(env *environment, name string, seed int64, seconds float64, traced bool) int {
	w := workloadByName(name)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", name))
	}
	fmt.Println("#", newProvenance(seed, seconds))
	o, err := measure(env, w, seed, seconds, traced)
	if err != nil {
		fatal(err)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.Failed == 0, o.Attempted, o.Failed, map[string]value{}}
	for name, v := range o.Metrics {
		line.Metrics[name] = value{v.Value, v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if o.Failed > 0 {
		return 1
	}
	return 0
}

// suiteResult is the file a suite run writes.
type suiteResult struct {
	Provenance provenance `json:"provenance"`
	Traced     bool       `json:"traced"`
	Workloads  []*outcome `json:"workloads"`
}

func runSuite(env *environment, seed int64, seconds float64, traced bool) (*suiteResult, error) {
	sr := &suiteResult{Provenance: newProvenance(seed, seconds), Traced: traced}
	fmt.Println("#", sr.Provenance)
	for _, w := range workloads {
		o, err := measure(env, w, seed, seconds, traced)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		sr.Workloads = append(sr.Workloads, o)
	}
	return sr, nil
}

func (sr *suiteResult) failed() int {
	n := 0
	for _, o := range sr.Workloads {
		n += o.Failed
	}
	return n
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func suiteRun(env *environment, seed int64, seconds float64, traced bool) int {
	sr, err := runSuite(env, seed, seconds, traced)
	if err != nil {
		fatal(err)
	}
	name := "results.json"
	if traced {
		name = "layers.json"
	}
	path := filepath.Join(env.out, name)
	if err := writeJSON(path, sr); err != nil {
		fatal(err)
	}
	fmt.Println("# wrote", path)
	if n := sr.failed(); n > 0 {
		fmt.Fprintf(os.Stderr, "perf: %d ops failed\n", n)
		return 1
	}
	return 0
}

// selfCheck runs the suite twice on the same binaries and compares
// every end-to-end metric of every workload against its bound.
func selfCheck(env *environment, seed int64, seconds float64) int {
	var runs [2]*suiteResult
	for i := range runs {
		sr, err := runSuite(env, seed, seconds, false)
		if err != nil {
			fatal(err)
		}
		runs[i] = sr
		if err := writeJSON(filepath.Join(env.out, fmt.Sprintf("selfcheck-%d.json", i+1)), sr); err != nil {
			fatal(err)
		}
	}
	bad := 0
	fmt.Printf("%-14s %-20s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i, a := range runs[0].Workloads {
		b := runs[1].Workloads[i]
		for _, d := range endToEnd {
			x, y := a.Metrics[d.name].Value, b.Metrics[d.name].Value
			diff := relDiff(x, y)
			verdict := ""
			if diff > d.bound {
				verdict = "  DISAGREE"
				bad++
			}
			fmt.Printf("%-14s %-20s %14.4f %14.4f %7.1f%% %5.0f%%%s\n", a.Workload, d.name, x, y, 100*diff, 100*d.bound, verdict)
		}
	}
	failed := runs[0].failed() + runs[1].failed()
	if bad > 0 || failed > 0 {
		fmt.Fprintf(os.Stderr, "perf: selfcheck: %d pairs disagree, %d ops failed\n", bad, failed)
		return 1
	}
	fmt.Println("# selfcheck: every pair agrees within its bound")
	return 0
}

// relDiff is |x-y| as a share of x, the first run's value, which plays
// the parent's part.
func relDiff(x, y float64) float64 {
	if x == 0 {
		if y == 0 {
			return 0
		}
		return 1
	}
	d := (y - x) / x
	if d < 0 {
		d = -d
	}
	return d
}
