package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"

	"atum/internal/atum"
	"atum/internal/kernel"
	"atum/internal/micro"
	"atum/internal/sweep"
	"atum/internal/trace"
	"atum/internal/vax"
	"atum/internal/workload"
)

// Capture settings every workload shares. The memory size stays at the
// kernel default: smaller machines cannot hold the kernel stack for
// some mixes.
const (
	segmentBytes = 64 << 10
	runBudget    = 50_000_000 // instruction cap; every mix halts far below it
)

var (
	// upMix is the standard four-process mix on one CPU.
	upMix = workload.StandardMix
	// smpMix adds the pipe pair, so the SMP kernel's pipe and
	// cross-CPU wake-ups run too.
	smpMix = append(append([]string(nil), workload.StandardMix...), "producer", "consumer")
)

// mix is a workload mix assembled once and booted many times.
type mix struct {
	names []string
	progs []*vax.Program
	heap  []uint32
}

// assemble assembles every program of the mix (the vax layer).
func assemble(r *rec, names []string) (*mix, error) {
	m := &mix{names: names}
	err := r.do("vax.assemble", func() error {
		for _, n := range names {
			w, ok := workload.ByName(n)
			if !ok {
				return fmt.Errorf("unknown workload %q", n)
			}
			p, err := w.Program()
			if err != nil {
				return err
			}
			m.progs = append(m.progs, p)
			m.heap = append(m.heap, w.HeapPages)
		}
		return nil
	})
	return m, err
}

// boot builds a ready-to-run system for the mix on cpus processors.
func (m *mix) boot(r *rec, cpus int) (*kernel.System, error) {
	var sys *kernel.System
	err := r.do("kernel.boot", func() error {
		cfg := kernel.DefaultConfig()
		cfg.CPUs = cpus
		var err error
		if sys, err = kernel.NewSystem(cfg); err != nil {
			return err
		}
		for i, p := range m.progs {
			if _, err := sys.Spawn(m.names[i], p, m.heap[i]); err != nil {
				return err
			}
		}
		return sys.Finalize()
	})
	return sys, err
}

// runToHalt runs the booted mix to completion under span name.
func runToHalt(r *rec, name string, sys *kernel.System) error {
	return r.do(name, func() error {
		reason, err := sys.Run(runBudget)
		if err != nil {
			return err
		}
		if reason != micro.StopHalt {
			return fmt.Errorf("run stopped early: %v", reason)
		}
		return nil
	})
}

// capture is what one traced run of a mix produced.
type capture struct {
	container []byte   // the whole container (uniprocessor) or the merged trace (SMP)
	instrs    []uint64 // per CPU
	cycles    []uint64 // per CPU
	records   uint64   // records spilled, all CPUs
	segments  uint64
	lost      uint64
}

func (c *capture) totalInstrs() (n uint64) {
	for _, v := range c.instrs {
		n += v
	}
	return n
}

func (c *capture) totalCycles() (n uint64) {
	for _, v := range c.cycles {
		n += v
	}
	return n
}

// countInto records the capture's exact counts on the op's recorder.
func (c *capture) countInto(r *rec) {
	r.count("micro.instructions", float64(c.totalInstrs()))
	r.count("micro.cycles", float64(c.totalCycles()))
	r.count("atum.records", float64(c.records))
	r.count("kernel.spill_segments", float64(c.segments))
	r.count("kernel.spill_lost", float64(c.lost))
	r.count("trace.bytes", float64(len(c.container)))
}

func spillConfig(meta string) kernel.SpillConfig {
	return kernel.SpillConfig{
		Options:      atum.DefaultOptions(),
		SegmentBytes: segmentBytes,
		Codec:        trace.CodecDelta,
		Meta:         meta,
	}
}

// closeSpills closes every spill service and checks the accounting
// identity ATUM's completeness rests on: every record the microcode
// wrote reached the sink, none lost, none dropped.
func closeSpills(r *rec, c *capture, svcs []*kernel.SpillService) error {
	var firstErr error
	r.do("kernel.spill_close", func() error {
		for _, s := range svcs {
			if err := s.Close(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("spill close: %w", err)
			}
		}
		return nil
	})
	for cpu, s := range svcs {
		col := s.Collector()
		if col.Recorded != s.SpilledRecords()+s.LostRecords() {
			return fmt.Errorf("cpu %d: recorded %d != spilled %d + lost %d", cpu, col.Recorded, s.SpilledRecords(), s.LostRecords())
		}
		if s.LostRecords() != 0 || col.Dropped != 0 {
			return fmt.Errorf("cpu %d: %d records lost, %d dropped", cpu, s.LostRecords(), col.Dropped)
		}
		c.records += s.SpilledRecords()
		c.segments += uint64(s.Segments())
		c.lost += s.LostRecords()
	}
	return firstErr
}

// captureUP runs the mix on one CPU under the kernel spill service into
// an in-memory segmented container.
func captureUP(r *rec, m *mix, meta string) (*capture, error) {
	sys, err := m.boot(r, 1)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	var svc *kernel.SpillService
	if err := r.do("kernel.spill_start", func() (err error) {
		svc, err = kernel.StartSpill(sys, &buf, spillConfig(meta))
		return err
	}); err != nil {
		return nil, err
	}
	c := &capture{}
	runErr := runToHalt(r, "kernel.run", sys)
	if err := closeSpills(r, c, []*kernel.SpillService{svc}); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	c.container = buf.Bytes()
	c.instrs = []uint64{sys.M.Instrs}
	c.cycles = []uint64{sys.M.Cycles}
	c.countInto(r)
	return c, nil
}

// captureSMP runs the mix on two CPUs with one spill stream per core and
// merges the streams by sequence mark. With a pipeline, every spilled
// segment is also fed to its simulators as it reaches the sink, and the
// pipeline is drained before the merge.
func captureSMP(r *rec, m *mix, meta string, pipe *sweep.Pipeline) (*capture, error) {
	sys, err := m.boot(r, 2)
	if err != nil {
		return nil, err
	}
	bufs := make([]*bytes.Buffer, sys.NumCPUs())
	sinks := make([]io.Writer, len(bufs))
	for i := range bufs {
		bufs[i] = new(bytes.Buffer)
		sinks[i] = bufs[i]
	}
	cfg := spillConfig(meta)
	cfg.Seq = new(trace.SeqCounter)
	if pipe != nil {
		feed := pipe.OnSegment()
		cfg.OnSegment = func(seg trace.StreamSegment) {
			end := r.begin("sweep.pipeline_feed")
			feed(seg)
			end(int64(seg.Info.Records))
		}
	}
	var svcs []*kernel.SpillService
	if err := r.do("kernel.spill_start", func() (err error) {
		svcs, err = kernel.StartSpillCPUs(sys, sinks, cfg)
		return err
	}); err != nil {
		return nil, err
	}
	c := &capture{}
	runErr := runToHalt(r, "kernel.run", sys)
	if err := closeSpills(r, c, svcs); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	if pipe != nil {
		if err := r.do("sweep.pipeline_drain", pipe.Drain); err != nil {
			return nil, err
		}
	}
	var merged bytes.Buffer
	if err := r.do("trace.merge", func() error {
		files := make([]*trace.File, len(bufs))
		for i, b := range bufs {
			f, err := trace.OpenReaderAt(bytes.NewReader(b.Bytes()), int64(b.Len()))
			if err != nil {
				return fmt.Errorf("cpu %d stream: %w", i, err)
			}
			defer f.Close()
			files[i] = f
		}
		return trace.MergeCPUs(&merged, meta+" merged", files...)
	}); err != nil {
		return nil, err
	}
	c.container = merged.Bytes()
	for i := range bufs {
		c.instrs = append(c.instrs, sys.Cores[i].Instrs)
		c.cycles = append(c.cycles, sys.Cores[i].Cycles)
	}
	c.countInto(r)
	return c, nil
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// jsonSHA is the digest of v's JSON encoding: the pin for a result
// struct.
func jsonSHA(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return sha(b), nil
}

// pinSet holds the simulated outputs every op must reproduce, loaded
// from pins.json. In record mode it collects what the ops produced
// instead of comparing, which is how pins.json is regenerated after a
// change that is meant to alter the simulation.
type pinSet struct {
	want map[string]string

	record bool
	mu     sync.Mutex
	got    map[string]string // guarded by mu
}

func loadPins(data []byte, record bool) (*pinSet, error) {
	p := &pinSet{record: record, got: map[string]string{}}
	if err := json.Unmarshal(data, &p.want); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

// check compares one output against its pin.
func (p *pinSet) check(key string, v any) error {
	s := fmt.Sprint(v)
	if p.record {
		p.mu.Lock()
		p.got[key] = s
		p.mu.Unlock()
		return nil
	}
	want, ok := p.want[key]
	if !ok {
		return fmt.Errorf("no pin for %s", key)
	}
	if s != want {
		return fmt.Errorf("%s = %s, pinned %s", key, s, want)
	}
	return nil
}

// recorded returns the outputs collected in record mode.
func (p *pinSet) recorded() map[string]string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]string, len(p.got))
	for k, v := range p.got {
		out[k] = v
	}
	return out
}

// pin is one named output and its value.
type pin struct {
	key string
	v   any
}

// checkAll checks every pin under prefix, stopping at the first miss.
func (p *pinSet) checkAll(prefix string, pins []pin) error {
	for _, pn := range pins {
		if err := p.check(prefix+"."+pn.key, pn.v); err != nil {
			return err
		}
	}
	return nil
}

// capturePins are a capture's bytes and exact counts.
func capturePins(c *capture) []pin {
	pins := []pin{
		{"container_sha256", sha(c.container)},
		{"container_bytes", len(c.container)},
		{"records", c.records},
		{"segments", c.segments},
	}
	for cpu := range c.instrs {
		n := strconv.Itoa(cpu)
		pins = append(pins,
			pin{"cpu" + n + ".instructions", c.instrs[cpu]},
			pin{"cpu" + n + ".cycles", c.cycles[cpu]})
	}
	return pins
}
