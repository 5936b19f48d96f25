package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"atum/internal/findings"
	"atum/internal/serve"
	"atum/internal/serve/api"
	"atum/internal/stackdist"
	"atum/internal/sweep"
	"atum/internal/trace"
)

const (
	serveClients = 2
	serveTenant  = "bench"
	traceUP      = "mix-up"  // the capture-up container
	traceSMP     = "mix-smp" // the merged stream-smp trace
)

// sessionMix is the short capture a session op runs, and the trace a
// small upload stores.
var sessionMix = []string{"sieve"}

// serveCall is one op of the serve-mixed rotation.
type serveCall struct {
	name string
	span string
	call func(b *serveBench, c *serve.Client, client int) (any, error)
	want func(b *serveBench, client int) any // the local answer
	work func(b *serveBench) work
}

// storedTrace is a trace the set-up uploads, with what the local
// computation needs to predict the server's answers.
type storedTrace struct {
	name   string
	data   []byte
	file   *trace.File
	arena  *trace.Arena // whole trace
	instrs []uint64     // per CPU of the captured run
}

// work is what an op replaying the whole trace covers.
func (s *storedTrace) work() work {
	w := work{refs: uint64(s.arena.NumRecords())}
	for _, v := range s.instrs {
		w.instrs += v
	}
	return w
}

// Analysis requests of the rotation. Every one replays serially on the
// server, like the analyze-file ops.
var serveAnalyses = []struct {
	name string
	req  api.AnalysisRequest
}{
	{"analyze-up", api.AnalysisRequest{Trace: traceUP, Kind: api.KindCaches, Caches: analyzeCaches}},
	{"analyze-smp", api.AnalysisRequest{Trace: traceSMP, Kind: api.KindCaches, Caches: analyzeCaches}},
	{"analyze-stackdist", api.AnalysisRequest{Trace: traceUP, Kind: api.KindStackdist, Stackdist: &analyzeDist}},
}

// serveRotation is one client's op cycle; the seed permutes its order.
// Slots are laid out by latency so that each reported percentile falls
// in the middle of a block of similar ops, never on the edge between
// two kinds, where it would jump between them from run to run: sorted
// by latency, the four short ops fill 0-20%, the twelve cache sweeps
// 20-80% (the median sits at their centre) and the four stack-distance
// profiles 80-100% (so does the p90).
var serveRotation = []string{
	"info", "upload", "lint", "capture",
	"analyze-up", "analyze-up", "analyze-up", "analyze-up", "analyze-up", "analyze-up",
	"analyze-smp", "analyze-smp", "analyze-smp", "analyze-smp", "analyze-smp", "analyze-smp",
	"analyze-stackdist", "analyze-stackdist", "analyze-stackdist", "analyze-stackdist",
}

// serveBench: an in-process daemon on loopback, driven by two
// closed-loop clients of one tenant. Most ops are analyses over two
// stored traces whose decoded size exceeds the arena cache, so hits
// and evictions both happen steadily; beside them run trace info,
// lint, small uploads and short capture sessions.
type serveBench struct {
	env     *env
	srv     *httptest.Server
	clients []*serve.Client
	up, smp *storedTrace
	small   *capture // local capture of sessionMix, also the upload payload

	// Answers computed locally in set-up; uploads and sessions carry
	// the client in their names, so theirs are per client.
	wantAn      map[string]api.AnalysisResponse
	wantInfo    api.TraceInfo
	wantLint    api.LintResponse
	wantUpload  []api.TraceInfo
	wantSession []api.SessionInfo
	rots        [][]serveCall // per client rotation

	hits0, miss0 float64 // arena counters when set-up finished
}

var serveCalls = buildServeCalls()

func buildServeCalls() map[string]serveCall {
	calls := map[string]serveCall{}
	add := func(c serveCall) { calls[c.name] = c }
	for _, a := range serveAnalyses {
		a := a
		add(serveCall{
			name: a.name,
			span: "serve.analyze",
			call: func(b *serveBench, c *serve.Client, _ int) (any, error) {
				req := a.req
				req.Workers, req.DecodeWorkers = 1, 1
				return c.Analyze(req)
			},
			want: func(b *serveBench, _ int) any { return b.wantAn[a.name] },
			work: func(b *serveBench) work {
				if a.req.Trace == traceSMP {
					return b.smp.work()
				}
				return b.up.work()
			},
		})
	}
	add(serveCall{
		name: "info",
		span: "serve.info",
		call: func(b *serveBench, c *serve.Client, _ int) (any, error) { return c.Trace(traceUP) },
		want: func(b *serveBench, _ int) any { return b.wantInfo },
		work: func(*serveBench) work { return work{} },
	})
	add(serveCall{
		name: "lint",
		span: "serve.lint",
		call: func(b *serveBench, c *serve.Client, _ int) (any, error) { return c.Lint(traceUP) },
		want: func(b *serveBench, _ int) any { return b.wantLint },
		work: func(b *serveBench) work { return b.up.work() },
	})
	add(serveCall{
		name: "upload",
		span: "serve.upload",
		call: func(b *serveBench, c *serve.Client, client int) (any, error) {
			return c.UploadTrace(uploadName(client), b.small.container)
		},
		want: func(b *serveBench, client int) any { return b.wantUpload[client] },
		work: func(*serveBench) work { return work{} },
	})
	add(serveCall{
		name: "capture",
		span: "serve.capture",
		call: func(b *serveBench, c *serve.Client, client int) (any, error) { return capture1(c, sessionName(client)) },
		want: func(b *serveBench, client int) any { return b.wantSession[client] },
		work: func(b *serveBench) work { return work{instrs: b.small.totalInstrs(), refs: b.small.records} },
	})
	return calls
}

func uploadName(client int) string  { return "up-c" + strconv.Itoa(client) }
func sessionName(client int) string { return "cap-c" + strconv.Itoa(client) }

// capture1 starts a session and polls until its capture has finished.
func capture1(c *serve.Client, name string) (api.SessionInfo, error) {
	info, err := c.CreateSession(api.CreateSessionRequest{Name: name, Workloads: sessionMix})
	for err == nil && info.State == api.SessionRunning {
		time.Sleep(time.Millisecond)
		info, err = c.Session(name)
	}
	return info, err
}

func setupServeMixed(e *env, r *rec) (bench, error) {
	upM, err := assemble(r, upMix)
	if err != nil {
		return nil, err
	}
	smpM, err := assemble(r, smpMix)
	if err != nil {
		return nil, err
	}
	smallM, err := assemble(r, sessionMix)
	if err != nil {
		return nil, err
	}
	b := &serveBench{env: e, wantAn: map[string]api.AnalysisResponse{}}
	upC, err := captureUP(r, upM, captureUpMeta)
	if err != nil {
		return nil, err
	}
	smpC, err := captureSMP(r, smpM, streamSMPMeta, nil)
	if err != nil {
		return nil, err
	}
	if b.small, err = captureUP(r, smallM, "perfbench small"); err != nil {
		return nil, err
	}
	err = r.do("bench.verify", func() error {
		if err := e.pins.checkAll("capture-up", capturePins(upC)); err != nil {
			return err
		}
		if err := e.pins.checkAll("stream-smp", capturePins(smpC)); err != nil {
			return err
		}
		return e.pins.checkAll("serve-mixed.small", capturePins(b.small))
	})
	if err != nil {
		return nil, err
	}
	if err := r.do("bench.local", func() error { return b.computeLocal(upC, smpC) }); err != nil {
		return nil, err
	}

	// The arena cache holds the whole uniprocessor trace but only half
	// of the SMP one, so every SMP analysis evicts part of the other.
	budget := int64(b.up.arena.NumRecords()+b.smp.arena.NumRecords()/2) * trace.RecordBytes
	b.srv = httptest.NewServer(serve.NewServer(serve.Options{ArenaCacheBytes: budget, SegmentBytes: segmentBytes}))
	for i := 0; i < serveClients; i++ {
		b.clients = append(b.clients, serve.NewClient(b.srv.URL, serveTenant))
	}
	for _, st := range []*storedTrace{b.up, b.smp} {
		if err := r.do("serve.upload", func() error {
			_, err := b.clients[0].UploadTrace(st.name, st.data)
			return err
		}); err != nil {
			b.close()
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(e.seed))
	for range b.clients {
		var rot []serveCall
		for _, i := range rng.Perm(len(serveRotation)) {
			rot = append(rot, serveCalls[serveRotation[i]])
		}
		b.rots = append(b.rots, rot)
	}
	if b.hits0, b.miss0, err = b.arenaCounters(); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// computeLocal computes, with the same library calls the daemon makes,
// every answer the rotation expects.
func (b *serveBench) computeLocal(upC, smpC *capture) error {
	var err error
	if b.up, err = newStoredTrace(traceUP, upC); err != nil {
		return err
	}
	if b.smp, err = newStoredTrace(traceSMP, smpC); err != nil {
		return err
	}
	for _, a := range serveAnalyses {
		st := b.up
		if a.req.Trace == traceSMP {
			st = b.smp
		}
		resp, err := localAnalysis(st, a.req)
		if err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		b.wantAn[a.name] = resp
	}
	b.wantInfo = traceInfo(traceUP, b.up.data, b.up.file)
	fs := append(trace.LintFindings(b.up.arena.Flatten()), b.up.file.LintContainer()...)
	if fs == nil {
		fs = []findings.Finding{}
	}
	b.wantLint = api.LintResponse{Trace: traceUP, Findings: fs}

	small, err := trace.OpenReaderAt(bytes.NewReader(b.small.container), int64(len(b.small.container)))
	if err != nil {
		return err
	}
	defer small.Close()
	for client := 0; client < serveClients; client++ {
		b.wantUpload = append(b.wantUpload, traceInfo(uploadName(client), b.small.container, small))
		b.wantSession = append(b.wantSession, api.SessionInfo{
			Name:      sessionName(client),
			Tenant:    serveTenant,
			State:     api.SessionDone,
			Workloads: sessionMix,
			Trace:     sessionName(client),
			Recorded:  b.small.records,
			Spilled:   b.small.records,
			Segments:  uint32(b.small.segments),
		})
	}
	return nil
}

func newStoredTrace(name string, c *capture) (*storedTrace, error) {
	f, err := trace.OpenReaderAt(bytes.NewReader(c.container), int64(len(c.container)))
	if err != nil {
		return nil, err
	}
	a, err := f.Arena(1)
	if err != nil {
		return nil, err
	}
	return &storedTrace{name: name, data: c.container, file: f, arena: a, instrs: c.instrs}, nil
}

// localAnalysis answers an analysis request over a local arena.
func localAnalysis(st *storedTrace, req api.AnalysisRequest) (api.AnalysisResponse, error) {
	var src trace.Source = st.arena
	resp := api.AnalysisResponse{Trace: req.Trace, Kind: req.Kind}
	var err error
	switch req.Kind {
	case api.KindCaches:
		resp.Caches, err = sweep.Caches(src, req.Caches, req.Run, 1)
	case api.KindStackdist:
		resp.Stackdist = stackdist.FromSource(src, *req.Stackdist)
	default:
		err = fmt.Errorf("kind %q", req.Kind)
	}
	return resp, err
}

func traceInfo(name string, data []byte, f *trace.File) api.TraceInfo {
	return api.TraceInfo{
		Name:      name,
		Tenant:    serveTenant,
		Meta:      f.Meta(),
		Bytes:     uint64(len(data)),
		Records:   f.NumRecords(),
		Segmented: f.Segmented(),
		Complete:  true,
		Segments:  f.Segments(),
	}
}

func (b *serveBench) op(r *rec, client, i int) (work, error) {
	rot := b.rots[client]
	call := rot[i%len(rot)]
	var got any
	if err := r.do(call.span, func() (err error) {
		got, err = call.call(b, b.clients[client], client)
		return err
	}); err != nil {
		return work{}, fmt.Errorf("%s: %w", call.name, err)
	}
	if err := r.do("bench.verify", func() error {
		return sameJSON(got, call.want(b, client))
	}); err != nil {
		return work{}, fmt.Errorf("%s: %w", call.name, err)
	}
	return call.work(b), nil
}

// sameJSON reports whether a response decoded from the wire encodes
// exactly as the locally computed answer.
func sameJSON(got, want any) error {
	g, err := json.Marshal(got)
	if err != nil {
		return err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("response differs from the local computation:\n got %.300s\nwant %.300s", g, w)
	}
	return nil
}

// arenaCounters scrapes the daemon's arena-cache hit and miss counters
// from its metrics page.
func (b *serveBench) arenaCounters() (hits, misses float64, err error) {
	resp, err := http.Get(b.srv.URL + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		switch f[0] {
		case "atum_serve_arena_cache_hits_total":
			hits, err = strconv.ParseFloat(f[1], 64)
		case "atum_serve_arena_cache_misses_total":
			misses, err = strconv.ParseFloat(f[1], 64)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	return hits, misses, sc.Err()
}

// report records the arena hit ratio over the ops since set-up.
func (b *serveBench) report(r *rec) error {
	return r.do("serve.metrics", func() error {
		hits, misses, err := b.arenaCounters()
		if err != nil {
			return err
		}
		dh, dm := hits-b.hits0, misses-b.miss0
		if dh+dm == 0 {
			return fmt.Errorf("no arena-cache lookups since set-up")
		}
		r.count("serve.arena_hit_ratio", dh/(dh+dm))
		return nil
	})
}

func (b *serveBench) close() error {
	if b.srv != nil {
		b.srv.Close()
		b.srv = nil
	}
	for _, st := range []*storedTrace{b.up, b.smp} {
		if st != nil {
			st.file.Close()
		}
	}
	return nil
}
