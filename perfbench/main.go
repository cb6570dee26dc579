// Command perfbench is the repository's benchmark. It runs one workload
// in-process, checks the workload's outputs, and prints every metric by
// name and unit, ending with one JSON line:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the run measures the end-to-end metrics with tracing
// off. With --trace 1 it spends the first half of its time untraced and
// the second half with spans around every call into a layer, and
// reports the per-layer metrics plus the tracing overhead (traced minus
// untraced host time for the same work). See README.md for the
// workloads, the metric definitions and the layer → end-to-end
// predictions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/netsim"
)

// defaultSeed is the seed the committed expected outcomes are for.
const defaultSeed = 1

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// workers is the DES executor count: nproc, and never more than
	// GOMAXPROCS.
	workers int
}

// report is what a workload hands back to main.
type report struct {
	attempted, failed int64
	e2e               map[string]float64
	layer             map[string]float64
	checks            []check
	digests           []digest
	// info is printed beside the numbers (sizes, counts behind ratios).
	info []string
}

// digest is one kind of outcome digest with one value per same-seed
// repetition inside the run; note says what a repetition is.
type digest struct {
	kind string
	vals []uint64
	note string
}

type check struct {
	name   string
	ok     bool
	detail string
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (r *report) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// notePhases records what the measured phases cost the runtime.
func (r *report) notePhases(plain, traced phaseStats) {
	r.note("untraced phase: %v", plain)
	if traced.tr != nil {
		r.note("traced phase: %v", traced)
	}
}

var workloads = map[string]func(config) (*report, error){
	"discovery-sweep":    runDiscovery,
	"gossip-converge":    runGossip,
	"dtn-courier":        runDTN,
	"community-sessions": runCommunity,
}

// e2eUnits lists the end-to-end metrics in print order with units.
var e2eUnits = [][2]string{
	{"setup_s", "s"},
	{"device_rounds_per_s", "1/cpu_s"},
	{"sessions_per_s", "1/cpu_s"},
	{"peak_rss_mb", "MiB"},
	{"failed_share", "ratio"},
	{"wire_bytes_per_device_round", "B"},
	{"wire_bytes_per_session", "B"},
	{"converge_rounds", "rounds"},
	{"delivery_ratio", "ratio"},
	{"copies_per_delivered", "copies"},
	{"delivery_latency_p50_rounds", "rounds"},
	{"session_modeled_p50_s", "modeled_s"},
}

// layerUnits lists the per-layer metrics in print order with units.
var layerUnits = [][2]string{
	{"des.events", "count"},
	{"des.events_per_s", "1/s"},
	{"des.events_per_device_round", "count"},
	{"des.run_self_s", "s"},
	{"des.multicore_speedup", "x"},
	{"des.settle_skewed_joins", "count"},
	{"radio.neighbors_calls", "count"},
	{"radio.neighbors_s", "s"},
	{"radio.neighbors_ns_per_call", "ns"},
	{"radio.neighbors_per_query", "count"},
	{"netsim.event_calls", "count"},
	{"netsim.event_call_s", "s"},
	{"netsim.dials_attempted", "count"},
	{"netsim.dial_success_ratio", "ratio"},
	{"netsim.messages_delivered", "count"},
	{"netsim.bytes_delivered", "B"},
	{"netsim.link_failures", "count"},
	{"core.discover_groups_calls", "count"},
	{"core.discover_groups_s", "s"},
	{"core.groups_formed", "count"},
	{"gossip.round_calls", "count"},
	{"gossip.round_p50_ms", "ms"},
	{"gossip.round_p99_ms", "ms"},
	{"gossip.push_skip_ratio", "ratio"},
	{"gossip.rumors_died", "count"},
	{"gossip.ae_runs", "count"},
	{"gossip.exchange_errors", "count"},
	{"gossip.frames_rejected", "count"},
	{"dtn.round_calls", "count"},
	{"dtn.round_p50_ms", "ms"},
	{"dtn.offers_sent", "count"},
	{"dtn.copies_sent", "count"},
	{"dtn.duplicate_ratio", "ratio"},
	{"dtn.exchange_errors", "count"},
	{"dtn.frames_rejected", "count"},
	{"peerhood.refresh_now_p50_ms", "ms"},
	{"peerhood.sdp_queries_sent", "count"},
	{"peerhood.discovery_rounds", "count"},
	{"community.refresh_groups_p50_ms", "ms"},
	{"community.online_members_p50_ms", "ms"},
	{"community.view_profile_p50_ms", "ms"},
	{"community.search_modeled_p50_s", "modeled_s"},
	{"community.calls_attempted", "count"},
	{"community.calls_failed", "count"},
	{"community.cache_hit_ratio", "ratio"},
	{"community.not_modified", "count"},
	{"community.singleflight_hits", "count"},
	{"community.fanouts_degraded", "count"},
	{"scenario.build_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.alloc_bytes_per_unit", "B"},
	{"runtime.allocs_per_unit", "count"},
	{"runtime.cpu_per_wall", "ratio"},
	{"runtime.sched_latency_p99_us", "us"},
	{"trace.units", "count"},
	{"trace.spans", "count"},
	{"trace.overhead_s", "s"},
	{"trace.overhead_share", "ratio"},
}

// failedShareFloor is the reporting floor of failed_share: a run with
// no failures reports it instead of 0, so the metric stays positive
// and a relative bound on it means something. One failure in any run's
// attempted count is far above it.
const failedShareFloor = 1e-9

func failedShare(failed, attempted int64) float64 {
	share := float64(failed) / float64(attempted)
	if share < failedShareFloor {
		return failedShareFloor
	}
	return share
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload name: discovery-sweep, gossip-converge, dtn-courier or community-sessions")
	seed := flag.Int64("seed", defaultSeed, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *traceFlag)
		return 2
	}
	workers := runtime.NumCPU()
	if p := runtime.GOMAXPROCS(0); p < workers {
		workers = p
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *traceFlag == 1,
		workers:  workers,
	}
	env := map[string]any{
		"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"des_workers": cfg.workers, "seed": cfg.seed, "workload": cfg.workload,
		"seconds": *seconds, "trace": *traceFlag, "goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
	envJSON, err := json.Marshal(env)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Printf("env %s\n", envJSON)

	rep, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	rep.e2e["peak_rss_mb"] = peakRSSMB()

	for _, line := range rep.info {
		fmt.Printf("info %s\n", line)
	}
	correct := true
	for _, c := range rep.checks {
		status := "ok"
		if !c.ok {
			status = "FAILED"
			correct = false
		}
		fmt.Printf("check %-28s %-6s %s\n", c.name, status, c.detail)
	}
	printDigest(cfg, rep)

	want, values := e2eUnits, rep.e2e
	if cfg.trace {
		want, values = layerUnits, rep.layer
	}
	out := resultLine{Correct: correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricOut{}}
	for _, m := range want {
		v, ok := values[m[0]]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", cfg.workload, m[0])
			return 1
		}
		fmt.Printf("metric %-34s %16.6g %s\n", m[0], v, m[1])
		out.Metrics[m[0]] = metricOut{Value: v, Unit: m[1]}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// printDigest reports each outcome digest, whether the same-seed
// repetitions inside this run agreed, and whether it matches the digest
// an earlier run of the same workload, seed and mode left in the build
// directory. A mismatch is reported, never hidden; it does not fail the
// run, because two known sources of run-to-run variance (README.md) are
// expected to show here.
func printDigest(cfg config, rep *report) {
	mode := "e2e"
	if cfg.trace {
		mode = "trace"
	}
	for _, dg := range rep.digests {
		distinct := map[uint64]bool{}
		for _, d := range dg.vals {
			distinct[d] = true
		}
		hexes := make([]string, 0, len(distinct))
		for d := range distinct {
			hexes = append(hexes, fmt.Sprintf("%016x", d))
		}
		sort.Strings(hexes)
		cur := strings.Join(hexes, ",")
		path := filepath.Join(".bench_build", "digests", fmt.Sprintf("%s-%s-seed%d-%s.txt", cfg.workload, dg.kind, cfg.seed, mode))
		previous := "none"
		if prev, err := os.ReadFile(path); err == nil {
			previous = fmt.Sprintf("%t", strings.TrimSpace(string(prev)) == cur)
		}
		fmt.Printf("digest %s %s repeats=%d in_run_match=%t previous_run_match=%s (%s)\n",
			dg.kind, cur, len(dg.vals), len(distinct) == 1, previous, dg.note)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: digest store: %v\n", err)
			continue
		}
		if err := os.WriteFile(path, []byte(cur+"\n"), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: digest store: %v\n", err)
		}
	}
}

// digestOf folds values into a 64-bit FNV-1a outcome digest.
func digestOf(vals ...any) uint64 {
	h := fnv.New64a()
	for _, v := range vals {
		fmt.Fprintf(h, "%v|", v)
	}
	return h.Sum64()
}

// phases runs the measured phase. Untraced, fn gets the whole budget
// and a nil tracer. Traced, fn first runs untraced for half the budget
// (the baseline for the tracing overhead and the runtime metrics), then
// traced for the other half. fn returns the units of work it completed
// and the host time they took.
func phases(cfg config, fn func(tr *tracer, budget time.Duration) (units float64, busy time.Duration)) (plain, traced phaseStats) {
	if !cfg.trace {
		plain = measurePhase(nil, cfg.seconds, fn)
		return plain, phaseStats{}
	}
	plain = measurePhase(nil, cfg.seconds/2, fn)
	traced = measurePhase(newTracer(), cfg.seconds/2, fn)
	return plain, traced
}

// episodes runs fn at least once, and again while another run as long
// as the last one still fits in the budget.
func episodes(budget time.Duration, fn func() error) error {
	start := time.Now()
	var last time.Duration
	for n := 0; n == 0 || time.Since(start)+last <= budget; n++ {
		t := time.Now()
		if err := fn(); err != nil {
			return err
		}
		last = time.Since(t)
	}
	return nil
}

// phaseStats is one measured phase.
type phaseStats struct {
	tr     *tracer
	units  float64
	busy   time.Duration
	before rtSnapshot
	after  rtSnapshot
}

func measurePhase(tr *tracer, budget time.Duration, fn func(*tracer, time.Duration) (float64, time.Duration)) phaseStats {
	p := phaseStats{tr: tr, before: takeRuntime()}
	p.units, p.busy = fn(tr, budget)
	p.after = takeRuntime()
	return p
}

// String summarises the phase's runtime cost for an info line.
func (p phaseStats) String() string {
	return fmt.Sprintf("units=%.0f busy=%.3fs cpu=%.3fs gc_cycles=%d minor_faults=%d",
		p.units, p.busy.Seconds(), (p.after.procCPU - p.before.procCPU).Seconds(),
		p.after.gcCycles-p.before.gcCycles, p.after.minorFault-p.before.minorFault)
}

// traceLayer adds the trace.* metrics and the runtime.* metrics (from
// the untraced half) to a traced report.
func traceLayer(layer map[string]float64, plain, traced phaseStats) {
	for k, v := range runtimeLayer(plain.before, plain.after, plain.units) {
		layer[k] = v
	}
	layer["trace.units"] = traced.units
	layer["trace.spans"] = float64(traced.tr.spans())
	layer["trace.overhead_s"] = 0
	layer["trace.overhead_share"] = 0
	if plain.units > 0 && traced.units > 0 {
		perUnit := plain.busy.Seconds() / plain.units
		layer["trace.overhead_s"] = traced.busy.Seconds() - traced.units*perUnit
		layer["trace.overhead_share"] = (traced.busy.Seconds()/traced.units)/perUnit - 1
	}
}

// newReport returns a report whose per-layer metrics all start at 0: a
// layer that does no work in a workload reports 0 there.
func newReport() *report {
	r := &report{e2e: map[string]float64{}, layer: map[string]float64{}}
	for _, m := range layerUnits {
		r.layer[m[0]] = 0
	}
	return r
}

// netLayer fills the netsim.* transport counters for a phase.
func netLayer(l map[string]float64, from, to netsim.Counters) {
	dials := float64(to.DialsAttempted - from.DialsAttempted)
	l["netsim.dials_attempted"] = dials
	l["netsim.dial_success_ratio"] = ratio(float64(to.ConnsEstablished-from.ConnsEstablished), dials)
	l["netsim.messages_delivered"] = float64(to.MessagesDelivered - from.MessagesDelivered)
	l["netsim.bytes_delivered"] = float64(to.BytesDelivered - from.BytesDelivered)
	l["netsim.link_failures"] = float64(to.LinkFailures - from.LinkFailures)
}

// addCounters accumulates one world's transport totals into sum.
func addCounters(sum *netsim.Counters, c netsim.Counters) {
	sum.DialsAttempted += c.DialsAttempted
	sum.ConnsEstablished += c.ConnsEstablished
	sum.MessagesDelivered += c.MessagesDelivered
	sum.BytesDelivered += c.BytesDelivered
	sum.LinkFailures += c.LinkFailures
}

// settleHeap collects the garbage of a previous world before a timed
// set-up, so one world's teardown is not billed to the next build.
func settleHeap() { runtime.GC() }

// Set-up timing. Every workload repeats its set-up until setupBudget of
// host time has passed and at least minSetups ran, and reports the
// median build: a build of a few milliseconds is timed hundreds of
// times, so one slow build or a short burst of host noise moves
// setup_s little.
const (
	setupBudget = time.Second
	minSetups   = 3
)

// timeSetups builds a world until the set-up budget is spent, tearing
// the previous one down and collecting its garbage before each build,
// and returns the median build time in seconds and the number of
// builds. The last world is left standing.
func timeSetups(build func() error, teardown func()) (float64, int, error) {
	var took []float64
	start := time.Now()
	for len(took) < minSetups || time.Since(start) < setupBudget {
		if len(took) > 0 {
			teardown()
		}
		settleHeap()
		t := time.Now()
		if err := build(); err != nil {
			return 0, len(took), err
		}
		took = append(took, time.Since(t).Seconds())
	}
	return median(took), len(took), nil
}

// fmtList renders per-unit samples for an info line.
func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
