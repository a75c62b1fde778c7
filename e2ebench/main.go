// Command e2ebench is the end-to-end benchmark of the warm smol serving
// engine. One process generates its inputs from --seed, then runs several
// rounds: each round builds a fresh warm smol.Server (timed as set-up),
// drives it closed-loop from two client goroutines (each sends its next op
// when the previous one returned) for an equal share of --seconds, and
// checks every answer against an oracle. Each end-to-end metric is the
// median over the rounds, so one server start whose planner drew an
// outlying plan does not decide the run. With --trace 1 it instead
// measures half the window untraced, runs the last round's ops again
// traced, replays the traced ops through the exported layer functions, and
// prints the per-layer metrics, the layers' busy shares and the tracing
// overhead.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 212, "failed": 0, "metrics": {"ops_per_s": {"value": 14.2, "unit": "1/s"}, ...}}
//
// The lines before it give each metric with its sample count and the
// environment (GEMM kernel tier, CPU model, GOMAXPROCS, Go version), so runs
// on different kernel tiers are never compared. Run it through run.sh from
// the checkout root; see BENCHMARK.json for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"

	"smol/internal/tensor"
)

// clients is the closed loop's caller count.
const clients = 2

// tracedIDs is the op id offset of a traced run's traced pass. It is a
// multiple of opSeqLen, so op id i and i+tracedIDs run the same op.
const tracedIDs = 1 << 20

// opSeqLen is the length of every workload's seeded op sequence; op ids
// wrap around it.
const opSeqLen = 1 << 12

// rounds is how many times a run builds the system under test and
// measures it; every end-to-end metric is the median over the rounds.
const rounds = 5

// workload is one traffic mix against one warm system.
type workload interface {
	// prepare generates the inputs and model fixtures from the seed. It is
	// not part of set-up time.
	prepare(seed int64, scratch string) error
	// setup builds the system under test and runs its first op, returning
	// that op's latency. Each call replaces what the previous one built.
	setup(ctx context.Context) (first time.Duration, err error)
	// op runs op id of the seeded op sequence on the live system.
	op(ctx context.Context, id int) *opRecord
	// images is how many images or frames the engine classified for rec.
	images(rec *opRecord) int
	// counts are the per-op counters a traced op span carries.
	counts(rec *opRecord) map[string]float64
	// check verifies the answers of a round's ops against the oracles,
	// setting rec.fail. It runs after the round's window, on the round's
	// live system.
	check(ctx context.Context, recs []*opRecord) error
	// finish runs the end-of-run checks and returns their failures.
	finish(ctx context.Context) ([]string, error)
	// replay re-runs the traced ops through the layer functions under tr
	// and sets the per-layer metrics in m.
	replay(ctx context.Context, traced []*opRecord, tr *tracer, m metrics) error
	// close releases the live system and the run's scratch files.
	close()
	// dominant lists the layers expected to take the largest busy share.
	dominant() []string
}

// workloads are the benchmark's traffic mixes. Thumbnails under a strict
// floor (resnet-b@128, nn-bound) are not among them: on a 2-vCPU shared VM
// that workload's throughput swung twofold between the rounds of one run
// (9 to 19 ops/s, while stills-hd-relaxed moved by a third), past any
// bound the benchmark could hold. The nn layer is measured on
// stills-hd-relaxed.
var workloads = map[string]func() workload{
	"stills-hd-relaxed": func() workload { return newStills(stillsHD) },
	"video-store":       func() workload { return newVideoStore() },
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced run (--trace 0).
var endToEnd = []metricDef{
	{"images_per_s", "1/s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"setup_s", "s"},
	{"rss_mb", "MB"},
}

// perLayer are the metrics of the traced run (--trace 1). A metric whose
// layer the workload never reaches reads 0 with sample count 0.
var perLayer = []metricDef{
	{"jpeg.decode_us", "us"},
	{"preproc.us_per_image", "us"},
	{"nn.forward_us_per_image", "us"},
	{"nn.gmacs_per_s", "GMAC/s"},
	{"engine.batch_fill", "frac"},
	{"engine.pool_reuse_frac", "frac"},
	{"engine.queue_stalls_per_op", "count"},
	{"engine.wait_ms_per_image", "ms"},
	{"engine.overhead_us_per_image", "us"},
	{"vid.decode_us_per_frame", "us"},
	{"vid.frames_decoded_per_sample", "ratio"},
	{"store.gops_touched_frac", "frac"},
	{"store.scores_cached_frac", "frac"},
	{"store.bytes_written_per_input_byte", "ratio"},
	{"store.reopen_ms", "ms"},
	{"blazeit.oracle_calls_per_select", "count"},
	{"blazeit.oracle_precision", "frac"},
	{"blazeit.target_calls_per_aggregate", "count"},
	{"blazeit.ci_covers_frac", "frac"},
	{"smol.first_op_ms", "ms"},
	{"smol.pred_tput_ratio", "ratio"},
	{"smol.pred_latency_ratio", "ratio"},
	{"smol.select_cost_ratio", "ratio"},
	{"smol.primary_stream_frac", "frac"},
	{"select_p50_ms", "ms"},
	{"classify_video_p50_ms", "ms"},
	{"aggregate_p50_ms", "ms"},
	{"ingest_p50_ms", "ms"},
	{"jpeg.busy_share", "frac"},
	{"preproc.busy_share", "frac"},
	{"nn.busy_share", "frac"},
	{"engine.busy_share", "frac"},
	{"vid.busy_share", "frac"},
	{"store.busy_share", "frac"},
	{"blazeit.busy_share", "frac"},
	{"trace.overhead_ratio", "ratio"},
}

// sample is one metric value with the number of samples behind it.
type sample struct {
	value float64
	n     int
}

// metrics collects the run's metric values by name.
type metrics map[string]sample

func (m metrics) set(name string, v float64, n int) {
	if n == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		v, n = 0, 0
	}
	m[name] = sample{v, n}
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	scratch  string
}

func main() {
	os.Exit(run())
}

func run() int {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&o.scratch, "scratch", ".bench_build", "directory for stores, traces and result files")
	flag.Parse()
	o.trace = trace == 1
	newW, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: usage: --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	if err := checkerSelfTest(); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	res, err := bench(newW(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result is the JSON object the last output line carries.
type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

// bench runs one workload end to end: generate, then per round set up,
// measure and check, and for traced runs re-run the last round traced and
// replay it.
func bench(w workload, o options) (result, error) {
	ctx := context.Background()
	t0 := time.Now()
	if err := w.prepare(o.seed, o.scratch); err != nil {
		return result{}, fmt.Errorf("generating inputs: %w", err)
	}
	defer w.close()
	prepared := time.Since(t0)
	var checking time.Duration
	window := time.Duration(o.seconds) * time.Second
	if o.trace {
		window /= 2
	}
	var (
		setups, firsts []float64
		ops, imgs, rss []float64
		p50s, p90s     []float64
		untraced, last []*opRecord
		images         int
		lastLat        []float64
	)
	for i := 0; i < rounds; i++ {
		runtime.GC() // start each set-up from the same heap
		start := time.Now()
		first, err := w.setup(ctx)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		firsts = append(firsts, ms(first))

		// rss_mb is the mean resident set over the window, sampled every
		// rssEvery: the peak of a collected heap hinges on where the
		// collections fall, and varied by up to a third between the
		// windows of one run.
		// Two collections (the second inside FreeOSMemory) empty the
		// sync.Pool victim caches and hand the freed heap back to the OS,
		// so the previous round's system does not carry into the window.
		runtime.GC()
		debug.FreeOSMemory()
		sampler := startRSS()
		// Every round runs the same prefix of the op sequence (ids from 0)
		// on a fresh system, so the rounds measure the same work.
		ph := closedLoop(ctx, clients, 0, 0, window/rounds, w.op, nil, nil)
		rss = append(rss, sampler.stop())
		// The answers are checked after the window, on the round's live
		// system, so neither the oracles' work nor their memory overlaps it.
		tc := time.Now()
		if err := w.check(ctx, ph.recs); err != nil {
			return result{}, fmt.Errorf("checking answers: %w", err)
		}
		checking += time.Since(tc)
		n := 0
		for _, r := range ph.recs {
			n += w.images(r)
		}
		images += n
		if i < rounds-1 {
			// Earlier rounds' answers are checked; dropping them keeps
			// their systems' data out of the later rounds' resident set.
			for _, r := range ph.recs {
				r.out = nil
			}
		}
		last = ph.recs
		lastLat = latenciesMS(ph.recs, nil)
		untraced = append(untraced, ph.recs...)
		ops = append(ops, float64(len(ph.recs))/ph.wall.Seconds())
		imgs = append(imgs, float64(n)/ph.wall.Seconds())
		p50s = append(p50s, median(lastLat))
		p90s = append(p90s, quantile(lastLat, 0.9))
		fmt.Printf("round %d: setup %.3f s, %d ops, %.2f ops/s, %.2f images/s, p50 %.2f ms, p90 %.2f ms, rss %.1f MB\n",
			i, setups[i], len(ph.recs), ops[i], imgs[i], p50s[i], p90s[i], rss[i])
	}
	var tr *tracer
	var traced phase
	if o.trace {
		// The traced pass runs the last round's ops again on the same
		// system (op ids tracedIDs apart pick the same op of the
		// sequence), so the traced and untraced mean latencies compare the
		// same work.
		tr = &tracer{}
		traced = closedLoop(ctx, clients, tracedIDs, len(last), 0, w.op, tr, w.counts)
		if err := w.check(ctx, traced.recs); err != nil {
			return result{}, fmt.Errorf("checking answers: %w", err)
		}
	}
	all := slices.Concat(untraced, traced.recs)
	tf := time.Now()
	finishFails, err := w.finish(ctx)
	if err != nil {
		return result{}, fmt.Errorf("end-of-run checks: %w", err)
	}
	fmt.Printf("time: inputs %.1f s, round checks %.1f s, end checks %.1f s, whole run %.1f s\n",
		prepared.Seconds(), checking.Seconds(), time.Since(tf).Seconds(), time.Since(t0).Seconds())

	m := metrics{}
	m.set("images_per_s", median(imgs), images)
	m.set("ops_per_s", median(ops), len(untraced))
	m.set("latency_p50_ms", median(p50s), len(untraced))
	m.set("latency_p90_ms", median(p90s), len(untraced))
	m.set("setup_s", median(setups), len(setups))
	m.set("rss_mb", median(rss), len(rss))
	m.set("smol.first_op_ms", median(firsts), len(firsts))
	for _, kind := range []string{"select", "classify_video", "aggregate", "ingest"} {
		l := latenciesMS(untraced, func(r *opRecord) bool { return r.kind == kind })
		m.set(kind+"_p50_ms", median(l), len(l))
	}

	if o.trace {
		if err := w.replay(ctx, traced.recs, tr, m); err != nil {
			return result{}, fmt.Errorf("replay: %w", err)
		}
		layerShares(tr, m)
		m.set("trace.overhead_ratio", mean(latenciesMS(traced.recs, nil))/mean(lastLat), len(traced.recs))
	}

	res := result{Attempted: len(all), Metrics: map[string]map[string]any{}}
	for _, r := range all {
		if r.failed() {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0 && len(finishFails) == 0
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	report(o, w.dominant(), defs, m, res, all, finishFails, tr)
	for _, d := range defs {
		res.Metrics[d.name] = map[string]any{"value": m[d.name].value, "unit": d.unit}
	}
	return res, nil
}

// layerShares sets each engine layer's share of the replay spans' busy time
// and reports which layer is largest.
func layerShares(tr *tracer, m metrics) {
	busy := tr.layerBusy()
	var total time.Duration
	for _, l := range engineLayers {
		total += busy[l]
	}
	for _, l := range engineLayers {
		n := 0
		if busy[l] > 0 {
			n = 1
		}
		m.set(l+".busy_share", float64(busy[l])/float64(total), n)
	}
}

// dominantLayer names the engine layer with the most replay busy time.
func dominantLayer(m metrics) string {
	best, bestV := "", -1.0
	for _, l := range engineLayers {
		if v := m[l+".busy_share"].value; v > bestV {
			best, bestV = l, v
		}
	}
	return best
}

// environment identifies the machine tier a result was measured on.
func environment() map[string]any {
	return map[string]any{
		"f32_kernel": tensor.F32KernelName(),
		"cpu":        cpuModel(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
}

// cpuModel reads the CPU model name (Linux), or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report prints every metric with its sample count, the environment, any
// failed answers, and writes the same as a JSON result file (and the spans,
// for traced runs) under the scratch directory.
func report(o options, expect []string, defs []metricDef, m metrics, res result, recs []*opRecord, finishFails []string, tr *tracer) {
	env := environment()
	var kernels []string
	byKind := map[string][]float64{}
	plans := map[string]map[string]int{}
	for _, r := range recs {
		if r.kernel != "" && !slices.Contains(kernels, r.kernel) {
			kernels = append(kernels, r.kernel)
		}
		byKind[r.kind] = append(byKind[r.kind], ms(r.dur))
		if r.plan != "" {
			if plans[r.kind] == nil {
				plans[r.kind] = map[string]int{}
			}
			plans[r.kind][r.plan]++
		}
	}
	sort.Strings(kernels)
	env["serve_kernels"] = kernels
	envLine, _ := json.Marshal(env)
	fmt.Printf("workload %s seed %d seconds %d trace %v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Printf("env %s\n", envLine)
	var fails []string
	for _, r := range recs {
		switch {
		case r.err != nil:
			fails = append(fails, fmt.Sprintf("op %d %s: error: %v", r.id, r.kind, r.err))
		case r.fail != "":
			fails = append(fails, fmt.Sprintf("op %d %s: wrong answer: %s", r.id, r.kind, r.fail))
		}
	}
	fails = append(fails, finishFails...)
	for i, f := range fails {
		if i == 20 {
			fmt.Printf("... %d more failures\n", len(fails)-i)
			break
		}
		fmt.Println("FAIL", f)
	}
	summary := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"env": env, "attempted": res.Attempted, "failed": res.Failed, "failures": fails,
	}
	named := map[string]any{}
	for _, d := range defs {
		s := m[d.name]
		fmt.Printf("%-36s %14.4f %-7s n=%d\n", d.name, s.value, d.unit, s.n)
		named[d.name] = map[string]any{"value": s.value, "unit": d.unit, "n": s.n}
	}
	summary["metrics"] = named
	opLat := map[string]any{}
	var kinds []string
	for kind := range byKind {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		l := byKind[kind]
		fmt.Printf("op %-16s n=%-5d p50 %10.3f ms  p90 %10.3f ms\n", kind, len(l), median(l), quantile(l, 0.9))
		opLat[kind] = map[string]any{"n": len(l), "p50_ms": median(l), "p90_ms": quantile(l, 0.9)}
		for plan, n := range plans[kind] {
			fmt.Printf("   plan %s: %d ops\n", plan, n)
		}
	}
	summary["op_latency"] = opLat
	summary["plans"] = plans
	if o.trace {
		dom := dominantLayer(m)
		verdict := "NOT MET"
		if slices.Contains(expect, dom) {
			verdict = "as expected"
		}
		fmt.Printf("largest busy share: %s (expected one of %v): %s\n", dom, expect, verdict)
		summary["dominant_layer"] = dom
		summary["dominant_layer_expected"] = expect
	}
	base := filepath.Join(o.scratch, fmt.Sprintf("result-%s-seed%d-trace%d", o.workload, o.seed, boolInt(o.trace)))
	if tr != nil {
		if err := tr.write(base+"-spans.json", summary); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: writing spans:", err)
		}
	}
	if b, err := json.MarshalIndent(summary, "", "  "); err == nil {
		if err := os.WriteFile(base+".json", b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: writing result:", err)
		}
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// engineOpMetrics sets the engine metrics that come from the ops' own
// engine.Stats: batch fill (images over batches times the batch size), the
// tensor pool's reuse fraction and the queue-full stalls per op. Pool and
// stall counters are cumulative over the pipeline's life, so the stalls of
// the window are the spread of the ops' snapshots.
func engineOpMetrics(recs []*opRecord, batchSize int, m metrics) {
	var images, slots, ops int
	var allocs, reuses int
	minStalls, maxStalls := math.MaxInt, 0
	for _, r := range recs {
		if r.err != nil || r.stats.Batches == 0 {
			continue
		}
		ops++
		images += r.stats.Images
		slots += r.stats.Batches * batchSize
		if r.stats.PoolAllocs+r.stats.PoolReuses > allocs+reuses {
			allocs, reuses = r.stats.PoolAllocs, r.stats.PoolReuses
		}
		minStalls = min(minStalls, r.stats.QueueFullStalls)
		maxStalls = max(maxStalls, r.stats.QueueFullStalls)
	}
	m.set("engine.batch_fill", float64(images)/float64(slots), ops)
	m.set("engine.pool_reuse_frac", float64(reuses)/float64(allocs+reuses), ops)
	m.set("engine.queue_stalls_per_op", float64(maxStalls-minStalls)/float64(ops), ops)
}

// rssEvery is the resident-set sampling interval.
const rssEvery = 10 * time.Millisecond

// rssSampler samples the process's resident set size while a window runs.
type rssSampler struct {
	done chan struct{}
	mean chan float64
}

// startRSS starts sampling the resident set every rssEvery.
func startRSS() *rssSampler {
	s := &rssSampler{done: make(chan struct{}), mean: make(chan float64)}
	go func() {
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		var sum float64
		n := 0
		for {
			if v := residentMB(); !math.IsNaN(v) {
				sum += v
				n++
			}
			select {
			case <-s.done:
				s.mean <- sum / float64(n)
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the samples' mean in MiB (NaN when
// the resident set could not be read).
func (s *rssSampler) stop() float64 {
	close(s.done)
	return <-s.mean
}

// residentMB reads the process's resident set size (Linux) in MiB.
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return math.NaN()
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(b), &size, &resident); err != nil {
		return math.NaN()
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20)
}
