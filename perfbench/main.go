// Command perfbench is the repository benchmark. It drives the simulator
// through its public entry points on three workloads and prints every
// metric by name and unit, then one JSON result line:
//
//	bash perfbench/run.sh --workload disk5k --seed 1 --seconds 30 --trace 0
//
// Load is one closed loop with one client: jobs run one at a time, each on
// its own seed derived from --seed, with a forced GC before each job
// outside the timed region. --trace 0 reports the end-to-end metrics;
// --trace 1 runs every job twice, untraced and then through the existing
// instrumentation hooks, checks that both passes simulate the same thing,
// prints the workload's own per-layer breakdown and reports the per-layer
// metrics every workload measures. See README.md for the workloads and
// which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"lrseluge/internal/image"
)

// units names the unit of every metric the benchmark can emit.
var units = map[string]string{
	// End to end.
	"setup_s":        "s",
	"jobs_per_s":     "1/s",
	"job_p50_s":      "s",
	"job_tail_s":     "s",
	"peak_rss_mb":    "MB",
	"sim_latency_s":  "s",
	"tx_kb_per_node": "KB",
	"completed_frac": "ratio",
	// Per layer.
	"sim.events":                     "count",
	"sim.pops_per_event":             "ratio",
	"sim.queue_s":                    "s",
	"sim.dispatch_s":                 "s",
	"sim.events_per_s":               "1/s",
	"radio.deliver_s":                "s",
	"radio.deliver_calls":            "count",
	"radio.loss_s":                   "s",
	"radio.loss_calls":               "count",
	"radio.channel_drops":            "count",
	"crypt.hash_verify_s":            "s",
	"crypt.hash_verify_calls":        "count",
	"crypt.sig_verify_s":             "s",
	"crypt.sig_verify_calls":         "count",
	"crypt.puzzle_rejects":           "count",
	"crypt.forged_sig_verifications": "count",
	"crypt.auth_drops":               "count",
	"erasure.rs_decode_s":            "s",
	"erasure.rs_decode_calls":        "count",
	"erasure.rs_encode_s":            "s",
	"erasure.rs_encode_calls":        "count",
	"erasure.decodable_units":        "count",
	"core.job_p50_s":                 "s",
	"seluge.job_p50_s":               "s",
	"dissem.data_pkts":               "count",
	"dissem.snack_pkts":              "count",
	"dissem.adv_pkts":                "count",
	"dissem.dup_frac":                "ratio",
	"dissem.dor_victim_tx_defense":   "count",
	"dissem.dor_victim_tx_nodefense": "count",
	"trickle.s":                      "s",
	"trickle.calls":                  "count",
	"mem.alloc_mb_per_job":           "MB",
	"mem.allocs_per_event":           "count",
	"mem.allocs_per_job":             "count",
	"mem.gc_cpu_frac":                "ratio",
	"topo.build_s":                   "s",
	"trace.overhead_frac":            "ratio",
}

// endToEnd lists the metrics of an untraced run, for every workload.
var endToEnd = []string{
	"setup_s", "jobs_per_s", "job_p50_s", "job_tail_s",
	"peak_rss_mb", "sim_latency_s", "tx_kb_per_node", "completed_frac",
}

// perLayer lists the metrics of a traced run's result line. Every workload
// measures each of them through a hook it can reach, so the result line
// has the same metrics whichever workload ran.
var perLayer = []string{
	"crypt.sig_verify_calls",
	"mem.alloc_mb_per_job", "mem.allocs_per_job", "mem.gc_cpu_frac",
	"trace.overhead_frac",
}

// spec describes one workload: how to build it, how many jobs a run
// measures, and which per-layer metrics its traced run prints.
type spec struct {
	name string
	// nominal is the host seconds one job takes on a 2-core Xeon box; it
	// sizes the fixed job list so a run measures about --seconds there.
	nominal float64
	// minJobs and minTraced bound the job list from below for untraced
	// and traced runs.
	minJobs, minTraced int
	// setups is how many times a run sets up; setup_s takes the median.
	setups int
	build  func(toy bool) workload
	// layers are the per-layer metrics only this workload's hooks reach.
	// A traced run prints them beside perLayer, and a missing one fails
	// the run, but the result line carries perLayer alone.
	layers []string
	// notes say what the traced run cannot reach from outside the program.
	notes []string
}

var specs = []spec{
	{
		name:    "disk5k",
		nominal: 12, minJobs: 2, minTraced: 1,
		// One set-up: its warm-up job alone is a whole 5000-node run.
		setups: 1,
		build: func(toy bool) workload {
			if toy {
				return &disk{nodes: 200, imageKB: 2}
			}
			return &disk{nodes: 5000, imageKB: 8}
		},
		layers: []string{
			"sim.events", "sim.pops_per_event", "sim.queue_s", "sim.dispatch_s", "sim.events_per_s",
			"radio.deliver_s", "radio.deliver_calls",
			"crypt.hash_verify_s", "crypt.hash_verify_calls", "crypt.sig_verify_s",
			"erasure.rs_decode_s", "erasure.rs_decode_calls", "erasure.rs_encode_s", "erasure.rs_encode_calls",
			"trickle.s", "trickle.calls",
			"mem.allocs_per_event", "topo.build_s",
		},
		notes: []string{
			"scale.Run does not compare image bytes: jobs are checked for completion of every node reachable from node 0 and for equal simulated figures across passes",
			"scale.Report has no per-packet-type counts, so dissem.* is reported on grid-noise and attack-dense only",
		},
	},
	{
		name:    "grid-noise",
		nominal: 1.25, minJobs: 20, minTraced: 2, setups: 3,
		build: func(toy bool) workload {
			if toy {
				return &grid{side: 4, imageKB: 2}
			}
			return &grid{side: 15, imageKB: 20}
		},
		layers: []string{
			"radio.loss_s", "radio.loss_calls", "radio.channel_drops",
			"crypt.auth_drops", "erasure.decodable_units",
			"core.job_p50_s", "seluge.job_p50_s",
			"dissem.data_pkts", "dissem.snack_pkts", "dissem.adv_pkts", "dissem.dup_frac",
		},
		notes: []string{
			"experiment.Run takes no phase timers, so host time here is split only by protocol and by the loss-model wrapper",
		},
	},
	{
		name:    "attack-dense",
		nominal: 1.25, minJobs: 20, minTraced: 2, setups: 3,
		build: func(toy bool) workload {
			if toy {
				return &attack{receivers: 10, imageKB: 4, params: image.Params{PacketPayload: 72, K: 8, N: 12}}
			}
			return &attack{receivers: 100, imageKB: 20, params: image.DefaultParams()}
		},
		layers: []string{
			"radio.channel_drops", "crypt.puzzle_rejects", "crypt.forged_sig_verifications", "crypt.auth_drops",
			"dissem.data_pkts", "dissem.snack_pkts", "dissem.adv_pkts",
			"dissem.dor_victim_tx_defense", "dissem.dor_victim_tx_nodefense",
		},
		notes: []string{
			"experiment.AttackResilience has no obs, trace or loss hook: its per-layer figures are counts only, and its traced pass differs from the untraced one in nothing, so trace.overhead_frac there is run-to-run noise",
			"sim_latency_s, tx_kb_per_node, completed_frac and dissem.* come from the injection run",
		},
	},
}

func findSpec(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: disk5k, grid-noise or attack-dense")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; every job seed derives from it")
	fs.Float64Var(&o.seconds, "seconds", 30, "host seconds a run should measure; sizes the job list")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := findSpec(o.workload); !ok {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		return o, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	o.trace = traceFlag == 1
	return o, nil
}

// jobCount is the fixed length of a run's job list: as many nominal jobs
// as fit in --seconds, and never fewer than the minimum. It depends on the
// flags alone, so runs with equal flags run equal job lists whatever the
// host's speed. A traced run makes two passes per job, so it runs half as
// many.
func jobCount(sp spec, o options) int {
	if o.trace {
		return max(sp.minTraced, int(o.seconds/(2*sp.nominal)))
	}
	return max(sp.minJobs, int(o.seconds/sp.nominal))
}

// jobSeeds derives n distinct non-negative seeds from the workload seed
// with a SplitMix64 stream, so the list depends on the seed alone.
func jobSeeds(seed int64, n int) []int64 {
	x := uint64(seed)
	out := make([]int64, n)
	for i := range out {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		out[i] = int64((z ^ (z >> 31)) >> 1)
	}
	return out
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	// lines are human-readable remarks printed before the metrics.
	lines []string
}

func (r *result) fail(what string, err error) {
	r.failed++
	r.lines = append(r.lines, fmt.Sprintf("FAILED %s: %v", what, err))
}

// pass is one timed execution of a job.
type pass struct {
	res  jobResult
	secs float64
	mem  runtimeDelta
}

// timed runs one job after a forced GC; neither the GC nor the runtime
// counter reads fall inside the measured time.
func timed(w workload, k int, seed int64, traced bool) pass {
	runtime.GC()
	m0 := readRuntime()
	start := time.Now()
	res := w.job(k, seed, traced)
	secs := time.Since(start).Seconds()
	return pass{res: res, secs: secs, mem: m0.to(readRuntime())}
}

// run executes one benchmark run; start is when the process started.
func run(sp spec, w workload, o options, start time.Time) result {
	n := jobCount(sp, o)
	seeds := jobSeeds(o.seed, n+1) // seeds[0] is the warm-up job's
	r := result{metrics: map[string]float64{}}
	r.lines = append(r.lines, fmt.Sprintf("workload %s: %d timed jobs, seed %d, GOMAXPROCS %d",
		sp.name, n, o.seed, runtime.GOMAXPROCS(0)))

	// A set-up generates the inputs and runs one warm-up job of the
	// workload's shape. A traced run warms up with a traced pass over the
	// first job's seed, whose trace hash the first job must then repeat.
	// setup_s is the process start-up plus the median set-up.
	startup := time.Since(start).Seconds()
	var (
		setupSecs   []float64
		setupLayers map[string]float64
		warm        jobResult
	)
	for i := 0; i < sp.setups; i++ {
		t0 := time.Now()
		r.attempted++
		layers, err := w.setup(seeds)
		if err != nil {
			r.fail("input generation", err)
			return r
		}
		setupLayers = layers
		if o.trace {
			warm = w.job(0, seeds[1], true)
		} else {
			warm = w.job(0, seeds[0], false)
		}
		if warm.err != nil {
			r.fail("warm-up job", warm.err)
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
	}
	r.metrics["setup_s"] = startup + median(setupSecs)

	var plain, traced []pass
	loopStart := time.Now()
	for k, seed := range seeds[1:] {
		r.attempted++
		p := timed(w, k, seed, false)
		plain = append(plain, p)
		r.lines = append(r.lines, fmt.Sprintf("job %d seed %d: %.3f s", k, seed, p.secs))
		if p.res.err != nil {
			r.fail(fmt.Sprintf("job %d (seed %d)", k, seed), p.res.err)
			continue
		}
		if !o.trace {
			continue
		}
		t := timed(w, k, seed, true)
		traced = append(traced, t)
		if err := samePass(p.res, t.res); err != nil {
			r.fail(fmt.Sprintf("job %d (seed %d) traced pass", k, seed), err)
			continue
		}
		if t.res.hash != "" {
			r.lines = append(r.lines, fmt.Sprintf("job %d trace hash %s", k, t.res.hash))
			if k == 0 && t.res.hash != warm.hash {
				r.fail("job 0 trace hash", fmt.Errorf("%s differs from the warm-up's %s for the same seed", t.res.hash, warm.hash))
			}
		}
	}
	loopSecs := time.Since(loopStart).Seconds()

	if o.trace {
		r.metrics = layerMetrics(plain, traced, setupLayers)
		r.lines = append(r.lines, sp.notes...)
		r.lines = append(r.lines, "the result line holds the layer metrics every workload measures; the table below adds this workload's own")
	} else {
		r.lines = append(r.lines, "job_tail_s is the "+endToEndMetrics(r.metrics, plain, loopSecs))
	}
	return r
}

// samePass checks that a traced pass simulated exactly what the untraced
// pass over the same seed did.
func samePass(plain, traced jobResult) error {
	if traced.err != nil {
		return traced.err
	}
	if plain.fig != traced.fig {
		return fmt.Errorf("simulated figures differ: untraced %+v, traced %+v", plain.fig, traced.fig)
	}
	return nil
}

// endToEndMetrics fills m from the untraced passes and returns what the
// reported tail is.
func endToEndMetrics(m map[string]float64, plain []pass, loopSecs float64) string {
	var times, latencies []float64
	var tx, nodes, completed float64
	for _, p := range plain {
		times = append(times, p.secs)
		f := p.res.fig
		latencies = append(latencies, f.latencyS)
		tx += float64(f.txBytes)
		nodes += float64(f.nodes)
		completed += float64(f.completed)
	}
	tailSecs, tailNote := tail(times)
	m["jobs_per_s"] = float64(len(plain)) / loopSecs
	m["job_p50_s"] = median(times)
	m["job_tail_s"] = tailSecs
	m["peak_rss_mb"] = peakRSSMB()
	m["sim_latency_s"] = median(latencies)
	m["tx_kb_per_node"] = ratio(tx/1024, nodes)
	m["completed_frac"] = ratio(completed, nodes)
	return tailNote
}

// layerMetrics aggregates the traced run's per-job figures: times and
// ratios as medians over jobs, counts as means per job.
func layerMetrics(plain, traced []pass, setupLayers map[string]float64) map[string]float64 {
	perJob := map[string][]float64{}
	add := func(name string, v float64) { perJob[name] = append(perJob[name], v) }
	var plainSecs, tracedSecs []float64
	for _, p := range plain {
		plainSecs = append(plainSecs, p.secs)
		add("mem.alloc_mb_per_job", p.mem.allocMB)
		add("mem.allocs_per_job", p.mem.allocs)
		add("mem.gc_cpu_frac", p.mem.gcCPUFrac)
		if ev := float64(p.res.fig.events); ev > 0 {
			add("mem.allocs_per_event", p.mem.allocs/ev)
			add("sim.events_per_s", ev/p.secs)
		}
		if p.res.group != "" {
			add(p.res.group+".job_p50_s", p.secs)
		}
	}
	for _, t := range traced {
		tracedSecs = append(tracedSecs, t.secs)
		for name, v := range t.res.layer {
			add(name, v)
		}
	}
	out := map[string]float64{}
	for name, vs := range perJob {
		if units[name] == "count" {
			out[name] = mean(vs)
		} else {
			out[name] = median(vs)
		}
	}
	for name, v := range setupLayers {
		out[name] = v
	}
	if len(tracedSecs) > 0 {
		out["trace.overhead_frac"] = median(tracedSecs)/median(plainSecs) - 1
	}
	return out
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// report prints the run's remarks and metric table, then the JSON result
// line holding exactly the metrics of the mode's manifest list. A printed
// metric that was not measured, or is not a finite number, fails the run.
func report(w io.Writer, sp spec, o options, r result) error {
	names := endToEnd
	printed := endToEnd
	if o.trace {
		names = perLayer
		printed = append(append([]string(nil), perLayer...), sp.layers...)
	}
	out := resultJSON{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricJSON{}}
	missing := false
	measured := func(name string) (float64, bool) {
		v, ok := r.metrics[name]
		return v, ok && !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	for _, name := range printed {
		if _, ok := measured(name); !ok {
			r.lines = append(r.lines, fmt.Sprintf("FAILED metric %s: not measured", name))
			missing = true
		}
	}
	for _, name := range names {
		if v, ok := measured(name); ok {
			out.Metrics[name] = metricJSON{Value: v, Unit: units[name]}
		}
	}
	out.Correct = out.Failed == 0 && !missing
	for _, line := range r.lines {
		fmt.Fprintln(w, line)
	}
	sorted := append([]string(nil), printed...)
	sort.Strings(sorted)
	for _, name := range sorted {
		if v, ok := measured(name); ok {
			fmt.Fprintf(w, "%-32s %16.6f %s\n", name, v, units[name])
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// initTime stands in for the process start when the launcher did not pass
// one.
var initTime = time.Now()

// processStart returns when the launcher exec'd this process, as passed in
// PERFBENCH_START_NS (Unix nanoseconds), falling back to package
// initialisation.
func processStart() time.Time {
	ns, err := strconv.ParseInt(os.Getenv("PERFBENCH_START_NS"), 10, 64)
	if err != nil {
		return initTime
	}
	t := time.Unix(0, ns)
	if t.After(initTime) || initTime.Sub(t) > time.Minute {
		return initTime
	}
	return t
}

func main() {
	start := processStart()
	o, err := parseOptions(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// One job at a time on at most two threads: the collector gets the
	// second core, and a later multi-core engine has room to show a gain.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	sp, _ := findSpec(o.workload)
	r := run(sp, sp.build(false), o, start)
	if err := report(os.Stdout, sp, o, r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
