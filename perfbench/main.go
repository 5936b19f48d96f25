// Command perfbench is the repository's benchmark. One process runs one
// named workload in a closed loop for a fixed time and prints every
// end-to-end metric (or, with -trace 1, every per-layer metric) as the
// last line of standard output:
//
//	perfbench -workload capture-up -seed 1 -seconds 20 -trace 0
//
// Every op checks its simulated outputs (trace bytes, record counts,
// instructions, cycles, simulator results) against pins.json, so an
// optimisation that perturbs the simulation shows up as failed ops,
// never as a gain. Layers are timed from outside, around calls into
// their public functions; run.sh builds and runs it from a checkout.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

//go:embed pins.json
var pinsJSON []byte

// work is the simulated work an op covered: instructions whose
// execution it captured or whose references it replayed, and trace
// records it captured or replayed.
type work struct{ instrs, refs uint64 }

func (w *work) add(o work) {
	w.instrs += o.instrs
	w.refs += o.refs
}

// bench is a set-up workload. op runs the i-th op of one client,
// recording its layer calls on r, and returns an error for any output
// that differs from its pin.
type bench interface {
	op(r *rec, client, i int) (work, error)
	close() error
}

// laner is a bench with per-layer lanes: extra timed calls, outside
// the op span, that a traced run makes after each op.
type laner interface {
	lanes(r *rec) error
}

// reporter is a bench that reads layer counters at the end of a traced
// phase.
type reporter interface {
	report(r *rec) error
}

// env is what every workload's set-up receives.
type env struct {
	seed int64
	pins *pinSet
	dir  string // scratch directory inside the checkout
}

type workloadDef struct {
	name    string
	clients int
	setup   func(e *env, r *rec) (bench, error)
}

// workloads, in the order traced runs fill missing layers from.
var workloads = []workloadDef{
	{"capture-up", 1, setupCaptureUp},
	{"stream-smp", 1, setupStreamSMP},
	{"analyze-file", 1, setupAnalyzeFile},
	{"serve-mixed", serveClients, setupServeMixed},
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median, so one slow start-up does not set the figure.
const setupReps = 5

func main() {
	var (
		name    = flag.String("workload", "", "workload: capture-up, stream-smp, analyze-file or serve-mixed")
		seed    = flag.Int64("seed", 1, "op rotation seed")
		seconds = flag.Int("seconds", 20, "measured seconds")
		traced  = flag.Int("trace", 0, "1 records spans and prints per-layer metrics")
		dir     = flag.String("dir", ".bench_build/run", "scratch directory for temp traces and span files")
		commit  = flag.String("commit", "unknown", "commit being measured, for the run record")
		repin   = flag.Bool("repin", false, "run every workload's set-up and print the outputs as pins.json, without checking them")
	)
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace %d: want 0 or 1\n", *traced)
		os.Exit(2)
	}
	if err := run(*name, *seed, *seconds, *traced == 1, *dir, *commit, *repin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, dir, commit string, repin bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	pins, err := loadPins(pinsJSON, repin)
	if err != nil {
		return err
	}
	e := &env{seed: seed, pins: pins, dir: dir}
	if repin {
		return printPins(e)
	}
	def, ok := lookup(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d: need at least 1", seconds)
	}
	if err := printRunRecord(name, seed, seconds, traced, commit); err != nil {
		return err
	}

	var t *tracer
	if traced {
		t = newTracer()
	}
	setupS, b, err := setUp(def, e, t)
	if err != nil {
		return err
	}

	runtime.GC() // the measured loop starts from a collected heap too
	d := time.Duration(seconds) * time.Second
	var out result
	if !traced {
		res := runLoop(b, def.clients, d, nil, tailOps)
		out = res.endToEnd(setupS)
	} else {
		out, err = tracedRun(def, b, e, t, d, setupS)
		if err != nil {
			return err
		}
	}
	if err := b.close(); err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func lookup(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// setUp sets the workload up setupReps times and keeps the last. Each
// set-up ends with one warm-up op, timed as set-up rather than as an
// op, whose outputs must pass the pins. It returns the median set-up
// seconds.
func setUp(def workloadDef, e *env, t *tracer) (float64, bench, error) {
	var secs []float64
	var b bench
	for i := 0; i < setupReps; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return 0, nil, err
			}
			// Each set-up starts from a collected heap, so garbage from
			// the previous one neither slows it nor adds to the peak RSS.
			runtime.GC()
		}
		r := t.newRec("setup")
		start := time.Now()
		var err error
		b, err = def.setup(e, r)
		if err == nil {
			_, err = b.op(r, 0, 0)
		}
		secs = append(secs, time.Since(start).Seconds())
		r.flush()
		if err != nil {
			return 0, nil, fmt.Errorf("%s set-up: %w", def.name, err)
		}
	}
	return median(secs), b, nil
}

// loopResult is what one closed-loop phase measured.
type loopResult struct {
	clients   int
	attempted int
	failed    int
	wallMS    []float64 // per passing op
	cpuMS     []float64 // process CPU per passing op, shared out over the clients
	elapsed   time.Duration
	work      work
}

// tailOps is the op count at which op_ms_p90 has minBeyond samples
// beyond it.
const tailOps = 10 * minBeyond

// runLoop runs clients closed-loop clients for d: each sends its next
// op when the previous one returns. A phase that must report op_ms_p90
// (minOps > 0) and has not finished minOps ops by then goes on until
// it has, for at most half as long again, so a slow stretch of the
// host costs the run a few seconds rather than the metric. With a
// tracer every op is recorded and followed by the bench's lanes, if
// any.
func runLoop(b bench, clients int, d time.Duration, t *tracer, minOps int) loopResult {
	res := loopResult{clients: clients}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline, hardStop := start.Add(d), start.Add(d+d/2)
	more := func() bool {
		now := time.Now()
		if now.Before(deadline) {
			return true
		}
		mu.Lock()
		defer mu.Unlock()
		return now.Before(hardStop) && len(res.wallMS) < minOps
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; more(); i++ {
				wall, cpu, w, err := runOp(b, t, c, i)
				mu.Lock()
				res.add(wall, cpu, w, err)
				if err != nil && res.failed <= 5 {
					fmt.Fprintf(os.Stderr, "perfbench: op %d of client %d failed: %v\n", i, c, err)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// runOp runs op i of client c; with a tracer it is recorded as one op
// span and followed by the bench's lanes, if any.
func runOp(b bench, t *tracer, c, i int) (wall, cpu time.Duration, w work, err error) {
	r := t.newRec("op")
	cpu0, t0 := cpuTime(), time.Now()
	end := r.begin(opSpan)
	w, err = b.op(r, c, i)
	end(0)
	wall, cpu = time.Since(t0), cpuTime()-cpu0
	r.flush()
	if l, ok := b.(laner); ok && t != nil && err == nil {
		lr := t.newRec("lane")
		err = l.lanes(lr)
		lr.flush()
	}
	return wall, cpu, w, err
}

// add accounts one finished op.
func (res *loopResult) add(wall, cpu time.Duration, w work, err error) {
	res.attempted++
	if err != nil {
		res.failed++
		return
	}
	res.wallMS = append(res.wallMS, float64(wall)/1e6)
	res.cpuMS = append(res.cpuMS, float64(cpu)/1e6/float64(res.clients))
	res.work.add(w)
}

// report lets a reporter read its layer counters into a lane record.
func report(b bench, t *tracer) error {
	rp, ok := b.(reporter)
	if !ok {
		return nil
	}
	r := t.newRec("lane")
	defer r.flush()
	return rp.report(r)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (res loopResult) passed() int { return res.attempted - res.failed }

func (res loopResult) opsPerSec() float64 {
	return float64(res.passed()) / res.elapsed.Seconds()
}

// endToEnd derives the end-to-end metrics of an untraced phase.
func (res loopResult) endToEnd(setupS float64) result {
	secs := res.elapsed.Seconds()
	m := map[string]metric{
		"setup_s":         {setupS, "s"},
		"ops_per_s":       {res.opsPerSec(), "1/s"},
		"op_ms_p50":       {median(res.wallMS), "ms"},
		"max_rss_mb":      {maxRSSMB(), "MB"},
		"ok_op_share":     {float64(res.passed()) / float64(max(res.attempted, 1)), "ratio"},
		"sim_mips":        {float64(res.work.instrs) / secs / 1e6, "MIPS"},
		"sim_mrefs_per_s": {float64(res.work.refs) / secs / 1e6, "Mrefs/s"},
	}
	if tailReportable(len(res.wallMS), 0.9) {
		m["op_ms_p90"] = metric{percentile(append([]float64(nil), res.wallMS...), 0.9), "ms"}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: %d ops: too few for op_ms_p90 (needs %d beyond it)\n", len(res.wallMS), minBeyond)
	}
	return result{
		Correct:   res.failed == 0 && res.attempted > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   m,
	}
}

// tracedRun measures the per-layer metrics: an untraced phase gives the
// host lane and the tracing-overhead base, a traced phase records the
// workload's spans, and set-ups plus a few traced ops of every other
// workload fill the layers this one never calls.
func tracedRun(def workloadDef, b bench, e *env, t *tracer, d time.Duration, setupS float64) (result, error) {
	plain := runLoop(b, def.clients, d/2, nil, 0)
	tracedRes := runLoop(b, def.clients, d/2, t, 0)
	if err := report(b, t); err != nil {
		return result{}, err
	}
	spans := t.snapshot()
	sources := []layerSource{{def.name, spans, t.countsCopy()}}
	if err := writeTrace(e.dir, def.name, e.seed, spans); err != nil {
		return result{}, err
	}

	failed := plain.failed + tracedRes.failed
	attempted := plain.attempted + tracedRes.attempted
	for _, other := range workloads {
		if other.name == def.name {
			continue
		}
		src, fres, err := fill(other, e)
		if err != nil {
			return result{}, err
		}
		attempted += fres.attempted
		failed += fres.failed
		sources = append(sources, src)
	}

	m := layerMetrics(sources)
	m["host.op_cpu_ms_p50"] = metric{median(plain.cpuMS), "ms"}
	m["host.preempt_share"] = metric{preemptShare(plain), "ratio"}
	untraced, tracedOps := plain.opRate(), tracedRes.opRate()
	m["bench.untraced_ops_per_s"] = metric{untraced, "1/s"}
	m["bench.traced_ops_per_s"] = metric{tracedOps, "1/s"}
	m["bench.trace_overhead_x"] = metric{untraced / tracedOps, "x"}
	m["bench.ops_covered_share"] = metric{coveredShare(spans), "ratio"}
	writeLayerTable(os.Stderr, m)
	fmt.Fprintf(os.Stderr, "perfbench: set-up %.3f s; %d ops untraced, %d traced; tracing overhead %.3fx\n",
		setupS, plain.passed(), tracedRes.passed(), untraced/tracedOps)
	fmt.Fprintf(os.Stderr, "perfbench: ATUM dilation: kernel.run %.2f ms traced vs %.2f ms untraced = %.2fx host time; %.2fx simulated cycles\n",
		m["kernel.run_ms"].Value, m["kernel.run_untraced_ms"].Value, m["atum.host_dilation_x"].Value, m["atum.dilation_x"].Value)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// opRate is passing ops per second of op time, per client: unlike
// opsPerSec it leaves out the lanes a traced phase runs between ops,
// so traced and untraced rates compare the same work.
func (res loopResult) opRate() float64 {
	var sum float64
	for _, ms := range res.wallMS {
		sum += ms
	}
	return float64(len(res.wallMS)) * float64(res.clients) / (sum / 1000)
}

// preemptShare is 1 − CPU ÷ wall over the ops: the share of op time the
// process spent off the CPU. It goes negative when the collector's
// work on the other core outweighs the time the op was preempted.
func preemptShare(res loopResult) float64 {
	var cpu, wall float64
	for i := range res.wallMS {
		cpu += res.cpuMS[i]
		wall += res.wallMS[i]
	}
	return 1 - cpu/wall
}

// fillOps is how many traced ops a run makes of each other workload:
// enough to cover every request of the longest rotation, serve-mixed's.
const fillOps = 20

// fill sets another workload up and records a few traced ops of it.
func fill(def workloadDef, e *env) (layerSource, loopResult, error) {
	t := newTracer()
	r := t.newRec("setup")
	b, err := def.setup(e, r)
	r.flush()
	if err != nil {
		return layerSource{}, loopResult{}, fmt.Errorf("%s set-up: %w", def.name, err)
	}
	res := loopResult{clients: 1}
	for i := 0; i < fillOps; i++ {
		wall, cpu, w, err := runOp(b, t, 0, i)
		res.add(wall, cpu, w, err)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s fill op %d failed: %v\n", def.name, i, err)
		}
	}
	if err := report(b, t); err != nil {
		b.close()
		return layerSource{}, loopResult{}, err
	}
	return layerSource{def.name, t.snapshot(), t.countsCopy()}, res, b.close()
}

// writeTrace writes the span file and prints the self-time tables.
func writeTrace(dir, name string, seed int64, spans []span) error {
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, name, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	byKind := map[string][]span{}
	for _, s := range spans {
		byKind[s.Kind] = append(byKind[s.Kind], s)
	}
	for _, kind := range []string{"op", "lane", "setup"} {
		if len(byKind[kind]) > 0 {
			writeSelfTable(os.Stderr, name+" "+kind+" spans", selfTable(byKind[kind]))
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	return nil
}

// printRunRecord prints what the run measured on: commit, source
// digest, toolchain, cores.
func printRunRecord(name string, seed int64, seconds int, traced bool, commit string) error {
	src, err := sourceDigest(".")
	if err != nil {
		return err
	}
	rec := map[string]any{
		"workload":   name,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      traced,
		"commit":     commit,
		"source":     src,
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
	}
	b, err := json.Marshal(map[string]any{"run": rec})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// sourceDigest hashes go.mod and every .go file under root outside
// hidden directories, naming the code measured when no commit is known.
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// pinOps covers every rotation: more ops than any workload's rotation
// has requests.
const pinOps = 24

// printPins runs each workload's set-up and pinOps ops in record mode
// and prints the outputs in pins.json form.
func printPins(e *env) error {
	for _, def := range workloads {
		b, err := def.setup(e, nil)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", def.name, err)
		}
		for i := 0; i < pinOps; i++ {
			if _, err := b.op(nil, 0, i); err != nil {
				return fmt.Errorf("%s op %d: %w", def.name, i, err)
			}
		}
		if l, ok := b.(laner); ok {
			if err := l.lanes(nil); err != nil {
				return fmt.Errorf("%s lanes: %w", def.name, err)
			}
		}
		if err := b.close(); err != nil {
			return err
		}
	}
	out, err := json.MarshalIndent(e.pins.recorded(), "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
