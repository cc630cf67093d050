// Command perfbench is the repository benchmark. It runs one named
// workload against the program's public API for a host-time budget, checks
// every simulated result against a committed digest, and prints its
// metrics; the last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload bulk-bdp --seed 1 --seconds 30 --trace 0
//
// A run repeats episodes until --seconds have passed: each episode builds
// the workload (timed as set-up), advances it through a fixed simulated
// duration (the timed region), forces a GC to read the live heap, then
// hashes the simulated outputs. Metrics are medians over episodes. With
// --trace 0 the run reports the end-to-end metrics with all tracing off;
// with --trace 1 it alternates untraced and traced episodes and reports
// the per-layer metrics (spans recorded here around the program's public
// seams, the program's telemetry counters, and a CPU profile), plus the
// tracing overhead. Spans, counters and profiles go under --out.
//
// Every episode's digest must equal the others', and the committed one in
// digests.json where the workload, size and seed have one. A seed without
// a committed digest also runs one reference episode at the self-test size
// and seed 1, whose digest is committed, so every run checks the program's
// behaviour against a committed value. A mismatch counts every operation
// as failed and exits 1.
//
// --workload all runs every workload in turn. The self-test runs each
// workload at a tiny size: cd perfbench && go test .
package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

//go:embed digests.json
var digestsJSON []byte

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny selects the self-test size and perturb alters the simulated
	// configuration; only the self-test sets them.
	tiny    bool
	perturb bool
	out     string
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// episode is one build-run-check cycle.
type episode struct {
	traced                    bool
	setup, wall, cpu, simSecs float64 // seconds
	alloc, live               float64 // bytes
	gcs                       float64
	digest                    string
	ops                       ops
	invalid                   error // outputs broke a program invariant
	tr                        *tracer
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var o options
	var traceN int
	fl.StringVar(&o.workload, "workload", "", "workload: bulk-bdp|rpc-fanout|fleet-scale|all")
	fl.Int64Var(&o.seed, "seed", 1, "workload seed")
	fl.Float64Var(&o.seconds, "seconds", 30, "host seconds to measure for")
	fl.IntVar(&traceN, "trace", 0, "1 = traced run reporting per-layer metrics")
	fl.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench-out"), "directory for spans, counters and CPU profiles")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if traceN != 0 && traceN != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = traceN == 1
	return runOptions(o, stdout, stderr)
}

// runOptions runs the workloads o names and prints each one's result.
func runOptions(o options, stdout, stderr io.Writer) int {
	names := []string{o.workload}
	if o.workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	code := 0
	for _, name := range names {
		w, ok := workloadByName(name)
		if !ok {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", name)
			return 2
		}
		res, err := bench(w, o, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: result:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// bench runs one workload for the host-time budget and returns its result.
func bench(w *workload, o options, stdout io.Writer) (*result, error) {
	size := "full"
	if o.tiny {
		size = "tiny"
	}
	key := fmt.Sprintf("%s/%s/%d", w.name, size, o.seed)
	var committed map[string]string
	if err := json.Unmarshal(digestsJSON, &committed); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}

	// Untraced runs need a few episodes for medians; traced runs alternate
	// untraced and traced episodes and need at least two of each.
	minEpisodes := 3
	if o.trace {
		minEpisodes = 4
	}
	cpuNs := map[string]float64{}
	var profiles [][]byte
	var eps []episode
	start := time.Now()
	for i := 0; i < minEpisodes || time.Since(start).Seconds() < o.seconds; i++ {
		traced := o.trace && i%2 == 1
		ep, prof, err := runEpisode(w, o, traced, i == 0)
		if err != nil {
			return nil, err
		}
		if prof != nil {
			ns := map[string]float64{}
			if err := addProfile(prof, ns); err != nil {
				return nil, err
			}
			for k, v := range ns {
				cpuNs[k] += v
			}
			// The sim layer's own cost per event: CPU the profile charges
			// to the engine (event heap and scheduling calls), not the
			// work the events do in other layers.
			if n := ep.tr.vals["sim.events"]; n > 0 {
				ep.tr.set("sim.ns_per_event", ns["sim"]/n)
			}
			profiles = append(profiles, prof)
		}
		eps = append(eps, ep)
	}

	res := &result{Correct: true, Metrics: map[string]value{}}
	want, haveCommitted := committed[key]
	check := "matches committed " + key
	var invalid error
	for _, ep := range eps {
		res.Attempted += ep.ops.attempted
		res.Failed += ep.ops.failed
		if ep.digest != eps[0].digest || (haveCommitted && ep.digest != want) {
			res.Correct = false
			check = fmt.Sprintf("MISMATCH for %s: committed %q, episodes got %s", key, want, distinct(eps))
		}
		if ep.invalid != nil {
			invalid = ep.invalid
		}
	}
	if !haveCommitted && res.Correct {
		// The episodes agree with each other, which alone proves nothing
		// about the program's behaviour; a reference episode checks it
		// against a committed digest.
		refKey := w.name + "/tiny/1"
		ref, _, err := runEpisode(w, options{seed: 1, tiny: true, perturb: o.perturb}, false, true)
		if err != nil {
			return nil, err
		}
		check = "episodes agree (no committed digest for " + key + "); reference matches committed " + refKey
		if ref.digest != committed[refKey] {
			res.Correct = false
			check = fmt.Sprintf("MISMATCH for reference %s: committed %q, got %q", refKey, committed[refKey], ref.digest)
		}
		if ref.invalid != nil {
			invalid = ref.invalid
		}
	}
	if invalid != nil {
		res.Correct = false
		check += "; invalid output: " + invalid.Error()
	}
	if !res.Correct {
		res.Failed = res.Attempted
	}

	untraced, traced := split(eps)
	samples := map[string]int{}
	report := func(m metric, v float64, n int) {
		res.Metrics[m.name] = value{Value: v, Unit: m.unit}
		samples[m.name] = n
	}
	if !o.trace {
		med := func(f func(e episode) float64) float64 { return medianOf(untraced, f) }
		n := len(untraced)
		for _, m := range endToEnd {
			switch m.name {
			case "setup_s":
				report(m, med(func(e episode) float64 { return e.setup }), n)
			case "sim_x":
				report(m, med(func(e episode) float64 { return e.simSecs / e.wall }), n)
			case "cpu_per_sim_s":
				report(m, med(func(e episode) float64 { return e.cpu / e.simSecs }), n)
			case "alloc_mb_per_sim_s":
				report(m, med(func(e episode) float64 { return e.alloc / 1e6 / e.simSecs }), n)
			case "live_heap_mb":
				report(m, med(func(e episode) float64 { return e.live / 1e6 }), n)
			}
		}
	} else {
		var total float64
		for _, ns := range cpuNs {
			total += ns
		}
		simX := func(e episode) float64 { return e.simSecs / e.wall }
		for _, m := range perLayer {
			switch {
			case strings.HasPrefix(m.name, "cpu."):
				report(m, frac(cpuNs[strings.TrimPrefix(m.name, "cpu.")], total), len(profiles))
			case m.name == "gc.cycles":
				report(m, medianOf(traced, func(e episode) float64 { return e.gcs }), len(traced))
			case m.name == "trace.overhead_frac":
				report(m, 1-medianOf(traced, simX)/medianOf(untraced, simX), len(eps))
			default:
				report(m, medianOf(traced, func(e episode) float64 { return e.tr.vals[m.name] }), len(traced))
			}
		}
	}

	meta := map[string]any{
		"workload":        w.name,
		"seed":            o.seed,
		"size":            size,
		"trace":           o.trace,
		"commit":          commit(),
		"go":              runtime.Version(),
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"sim_seconds":     w.simDur(o.tiny).Seconds(),
		"episodes":        len(eps),
		"traced_episodes": len(traced),
		"host_seconds":    time.Since(start).Seconds(),
		"samples":         samples,
		"episode_sim_x":   episodeValues(eps, func(e episode) float64 { return e.simSecs / e.wall }),
		"episode_setup_s": episodeValues(eps, func(e episode) float64 { return e.setup }),
		"digest":          eps[0].digest,
		"digest_check":    check,
		"fail_frac":       frac(float64(res.Failed), float64(res.Attempted)),
		"attempted":       res.Attempted,
		"failed":          res.Failed,
	}
	writeTable(stdout, res, samples, meta)
	if o.trace {
		if err := writeTrace(o, w.name, meta, traced, profiles); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runEpisode builds, runs and checks one instance, checking its operations
// in full when contract is set. A traced episode also returns the CPU
// profile of its timed region.
func runEpisode(w *workload, o options, traced, contract bool) (episode, []byte, error) {
	p := params{seed: o.seed, tiny: o.tiny, dur: w.simDur(o.tiny), perturb: o.perturb}
	ep := episode{traced: traced, simSecs: w.simDur(o.tiny).Seconds()}
	if traced {
		p.tr = newTracer()
		ep.tr = p.tr
	}
	runtime.GC()
	t0 := time.Now()
	if traced {
		p.tr.begin("build")
	}
	inst := w.build(p)
	if traced {
		p.tr.end(1)
	}
	ep.setup = time.Since(t0).Seconds()

	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return ep, nil, fmt.Errorf("cpu profile: %w", err)
		}
		p.tr.begin("run")
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t1 := time.Now()
	inst.run()
	ep.wall = time.Since(t1).Seconds()
	ep.cpu = (cpuTime() - c0).Seconds()
	runtime.ReadMemStats(&m1)
	if traced {
		p.tr.end(1)
		pprof.StopCPUProfile()
	}
	ep.alloc = float64(m1.TotalAlloc - m0.TotalAlloc)
	ep.gcs = float64(m1.NumGC - m0.NumGC)
	// The live heap is read before the instance is checked or dropped, so
	// it counts the state the workload holds at the end of its run.
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	ep.live = float64(m2.HeapAlloc)

	d := newDigest()
	ep.ops, ep.invalid = inst.check(d, contract)
	ep.digest = d.sum()
	if traced {
		return ep, prof.Bytes(), nil
	}
	return ep, nil, nil
}

func split(eps []episode) (untraced, traced []episode) {
	for _, e := range eps {
		if e.traced {
			traced = append(traced, e)
		} else {
			untraced = append(untraced, e)
		}
	}
	return untraced, traced
}

func medianOf(eps []episode, f func(episode) float64) float64 {
	return median(episodeValues(eps, f))
}

func episodeValues(eps []episode, f func(episode) float64) []float64 {
	xs := make([]float64, len(eps))
	for i, e := range eps {
		xs[i] = f(e)
	}
	return xs
}

func distinct(eps []episode) string {
	seen := map[string]bool{}
	var out []string
	for _, e := range eps {
		if !seen[e.digest] {
			seen[e.digest] = true
			out = append(out, e.digest)
		}
	}
	return strings.Join(out, ",")
}

// cpuTime is the process's user+system CPU time across all threads,
// garbage collection included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid pointer cannot fail.
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// commit names the program version measured: the VCS revision stamped
// into the binary when it was built inside a git checkout, else a hash of
// the Go sources under the working directory.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("tree-sha256:%x", h.Sum(nil))
}

func writeTable(w io.Writer, res *result, samples map[string]int, meta map[string]any) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s seed=%v size=%v trace=%v episodes=%v sim_seconds=%v digest: %v\n",
		meta["workload"], meta["seed"], meta["size"], meta["trace"], meta["episodes"], meta["sim_seconds"], meta["digest_check"])
	for _, n := range names {
		v := res.Metrics[n]
		fmt.Fprintf(w, "%-24s %16.6g %-12s n=%d\n", n, v.Value, v.Unit, samples[n])
	}
	fmt.Fprintf(w, "%-24s %16.6g %-12s failed=%d attempted=%d\n", "fail_frac", meta["fail_frac"], "frac", res.Failed, res.Attempted)
	line, _ := json.Marshal(meta)
	fmt.Fprintf(w, "meta %s\n", line)
}

// writeTrace writes the traced run's metadata, spans summed over its
// traced episodes, each episode's per-layer values, the program's
// telemetry counters, the layer table, and each traced episode's CPU
// profile under o.out.
func writeTrace(o options, name string, meta map[string]any, traced []episode, profiles [][]byte) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	spans := map[string]*spanAgg{}
	var vals []map[string]float64
	for _, e := range traced {
		for k, a := range e.tr.spans {
			s := spans[k]
			if s == nil {
				s = &spanAgg{}
				spans[k] = s
			}
			s.Count += a.Count
			s.TotalNs += a.TotalNs
			s.SelfNs += a.SelfNs
		}
		vals = append(vals, e.tr.vals)
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", name, o.seed))
	raw, err := json.MarshalIndent(map[string]any{
		"meta":           meta,
		"spans":          spans,
		"episode_values": vals,
		"counters":       traced[len(traced)-1].tr.counters,
		"layers":         layerTable(),
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	// Profiles left by an earlier run with more traced episodes would
	// read as part of this one.
	stale, _ := filepath.Glob(base + ".cpu*.pprof")
	for _, f := range stale {
		if err := os.Remove(f); err != nil {
			return fmt.Errorf("trace output: %w", err)
		}
	}
	errs := []error{os.WriteFile(base+".trace.json", raw, 0o644)}
	for i, p := range profiles {
		errs = append(errs, os.WriteFile(fmt.Sprintf("%s.cpu%d.pprof", base, i), p, 0o644))
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	return nil
}
