package main

import (
	"bytes"
	"fmt"
	"io"

	"atum/internal/cache"
	"atum/internal/stackdist"
	"atum/internal/sweep"
	"atum/internal/tlbsim"
	"atum/internal/trace"
)

// captureUpBench: each op boots the standard mix on one CPU, captures
// it into an in-memory container and checks the bytes. No simulator
// runs, so interpreter, collector, kernel and encoder carry the op.
type captureUpBench struct {
	env  *env
	mix  *mix
	last *capture // the last op's capture, re-encoded by the lanes
}

const captureUpMeta = "perfbench capture-up"

func setupCaptureUp(e *env, r *rec) (bench, error) {
	m, err := assemble(r, upMix)
	if err != nil {
		return nil, err
	}
	return &captureUpBench{env: e, mix: m}, nil
}

func (b *captureUpBench) op(r *rec, _, _ int) (work, error) {
	c, err := captureUP(r, b.mix, captureUpMeta)
	if err != nil {
		return work{}, err
	}
	if err := r.do("bench.verify", func() error {
		return b.env.pins.checkAll("capture-up", capturePins(c))
	}); err != nil {
		return work{}, err
	}
	b.last = c
	return work{instrs: c.totalInstrs(), refs: c.records}, nil
}

// lanes times what the op cannot show from outside: the same mix run
// with no ATUM installed (the host-clock side of the dilation
// question) and the encoder alone, re-encoding the op's records raw
// and flate-compressed.
func (b *captureUpBench) lanes(r *rec) error {
	sys, err := b.mix.boot(r, 1)
	if err != nil {
		return err
	}
	if err := runToHalt(r, "kernel.run_untraced", sys); err != nil {
		return err
	}
	r.count("atum.dilation_x", float64(b.last.totalCycles())/float64(sys.M.Cycles))

	var segs [][]trace.Record
	var infos []trace.SegmentInfo
	if err := r.do("trace.decode", func() error {
		f, err := trace.OpenReaderAt(bytes.NewReader(b.last.container), int64(len(b.last.container)))
		if err != nil {
			return err
		}
		defer f.Close()
		infos = f.Segments()
		for i := range infos {
			recs, err := f.Segment(i)
			if err != nil {
				return err
			}
			segs = append(segs, recs)
		}
		return nil
	}); err != nil {
		return err
	}
	for _, enc := range []struct {
		span string
		enc  uint8
	}{{"trace.encode.raw", trace.SegEncRaw}, {"trace.encode.flate", trace.SegEncFlate}} {
		var out bytes.Buffer
		if err := r.do(enc.span, func() error {
			return encode(&out, segs, infos, enc.enc)
		}); err != nil {
			return err
		}
		// Raw re-encoding must reproduce the spilled container byte for
		// byte; the flate form is pinned.
		if enc.enc == trace.SegEncRaw && !bytes.Equal(out.Bytes(), b.last.container) {
			return fmt.Errorf("raw re-encode differs from the spilled container")
		}
		if enc.enc == trace.SegEncFlate {
			if err := b.env.pins.check("capture-up.flate_sha256", sha(out.Bytes())); err != nil {
				return err
			}
		}
	}
	return nil
}

// encode writes the segments as a fresh container with the spill
// service's codec and meta.
func encode(w io.Writer, segs [][]trace.Record, infos []trace.SegmentInfo, enc uint8) error {
	sw, err := trace.NewSegmentWriter(w, trace.CodecDelta, captureUpMeta)
	if err != nil {
		return err
	}
	if err := sw.SetEncoding(enc); err != nil {
		return err
	}
	for i, recs := range segs {
		if _, err := sw.WriteSegment(recs, infos[i].Dropped, infos[i].DilationCycles); err != nil {
			return err
		}
	}
	return sw.Close()
}

func (b *captureUpBench) close() error { return nil }

// streamSMPBench: each op runs the standard mix plus the pipe pair on
// two CPUs, tees every spilled segment into one pipeline of
// incremental cache, TB and stack-distance simulators, then merges the
// per-CPU streams.
type streamSMPBench struct {
	env *env
	mix *mix
}

const streamSMPMeta = "perfbench smp"

func setupStreamSMP(e *env, r *rec) (bench, error) {
	m, err := assemble(r, smpMix)
	if err != nil {
		return nil, err
	}
	return &streamSMPBench{env: e, mix: m}, nil
}

// Simulators the pipeline carries: one of each kind, sized like the
// analysis workloads' middle configurations.
var (
	streamCache = cache.Config{SizeBytes: 32 << 10, BlockBytes: 32, Assoc: 4, WriteAllocate: true, PIDTags: true}
	streamTB    = tlbsim.Config{Entries: 64, Assoc: 2, PIDTags: true, IncludeSystem: true}
	streamDist  = stackdist.Options{BlockBytes: 32, PIDTag: true}
)

// streamResults are the pipeline's outputs, pinned by digest.
type streamResults struct {
	Cache     cache.Result
	TB        tlbsim.Stats
	Stackdist *stackdist.Profile
}

func (b *streamSMPBench) op(r *rec, _, _ int) (work, error) {
	// Two workers, one per core: the simulators of a segment run side
	// by side while the blocked capture waits for them.
	pipe := sweep.NewPipeline(2)
	csim, err := cache.NewUnifiedSim(streamCache, cache.RunOptions{})
	if err != nil {
		return work{}, err
	}
	tsim, err := tlbsim.NewSim(streamTB)
	if err != nil {
		return work{}, err
	}
	getCache := sweep.AddSim(pipe, "cache", csim)
	getTB := sweep.AddSim(pipe, "tb", tsim)
	getDist := sweep.AddSim(pipe, "stackdist", stackdist.NewStream(streamDist))
	pipe.SetBackpressure(sweep.BackpressureBlock, 0)

	c, err := captureSMP(r, b.mix, streamSMPMeta, pipe)
	if err != nil {
		return work{}, err
	}
	r.count("sweep.pipeline_records_fed", float64(pipe.RecordsFed()))
	r.count("sweep.pipeline_dropped", float64(pipe.DroppedRecords()))
	if err := r.do("bench.verify", func() error {
		var res streamResults
		var err error
		if res.Cache, err = getCache(); err != nil {
			return err
		}
		if res.TB, err = getTB(); err != nil {
			return err
		}
		if res.Stackdist, err = getDist(); err != nil {
			return err
		}
		digest, err := jsonSHA(res)
		if err != nil {
			return err
		}
		if pipe.DroppedRecords() != 0 {
			return fmt.Errorf("pipeline dropped %d records", pipe.DroppedRecords())
		}
		return b.env.pins.checkAll("stream-smp", append(capturePins(c),
			pin{"pipeline_records_fed", pipe.RecordsFed()},
			pin{"results_sha256", digest}))
	}); err != nil {
		return work{}, err
	}
	return work{instrs: c.totalInstrs(), refs: c.records}, nil
}

func (b *streamSMPBench) close() error { return nil }
