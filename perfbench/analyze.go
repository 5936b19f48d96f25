package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"atum/internal/cache"
	"atum/internal/stackdist"
	"atum/internal/sweep"
	"atum/internal/tlbsim"
	"atum/internal/trace"
)

// An analysis is one request of the analyze-file rotation: which
// processor's records it replays (-1 for the merged whole) and the
// batch simulation it runs over them, timed as span.
type analysis struct {
	name string
	cpu  int
	span string
	// configs is how many configurations replay every record, so the
	// span's work is records × configs.
	configs int
	run     func(src trace.Source) (any, error)
}

// Configurations. The three unified sizes straddle the mixes' working
// sets; the rest are one mid-sized point per simulator.
var (
	analyzeCaches = cache.SizeConfigs(
		cache.Config{BlockBytes: 32, Assoc: 4, WriteAllocate: true, PIDTags: true},
		[]uint32{4 << 10, 32 << 10, 256 << 10})
	splitI = cache.Config{SizeBytes: 8 << 10, BlockBytes: 32, Assoc: 2, PIDTags: true}
	splitD = cache.Config{SizeBytes: 8 << 10, BlockBytes: 32, Assoc: 2, WriteAllocate: true, PIDTags: true}
	hier   = []cache.HierarchyConfig{{
		L1: cache.Config{SizeBytes: 8 << 10, BlockBytes: 32, Assoc: 2, WriteAllocate: true, PIDTags: true},
		L2: cache.Config{SizeBytes: 256 << 10, BlockBytes: 64, Assoc: 8, WriteAllocate: true, PIDTags: true},
	}}
	analyzeTBs = []tlbsim.Config{
		{Entries: 32, Assoc: 2, SplitSystem: true, FlushOnSwitch: true, IncludeSystem: true},
		{Entries: 64, Assoc: 2, SplitSystem: true, FlushOnSwitch: true, IncludeSystem: true},
		{Entries: 128, Assoc: 2, SplitSystem: true, FlushOnSwitch: true, IncludeSystem: true},
	}
	analyzeDist = stackdist.Options{BlockBytes: 32, PIDTag: true}
)

// analyses is the analyze-file rotation; the seed permutes its order.
var analyses = []analysis{
	{"caches", -1, "cache.sweep", len(analyzeCaches), func(src trace.Source) (any, error) {
		return sweep.Caches(src, analyzeCaches, cache.RunOptions{}, 1)
	}},
	{"split", -1, "cache.split", 1, func(src trace.Source) (any, error) {
		return cache.RunSplitSource(src, splitI, splitD, cache.RunOptions{})
	}},
	{"hierarchy", -1, "cache.hierarchy", 1, func(src trace.Source) (any, error) {
		return sweep.Hierarchies(src, hier, cache.RunOptions{}, 1)
	}},
	{"tbs", -1, "tlbsim.sweep", len(analyzeTBs), func(src trace.Source) (any, error) {
		return sweep.TBs(src, analyzeTBs, 1)
	}},
	{"stackdist", 1, "stackdist.profile", 1, func(src trace.Source) (any, error) {
		return stackdist.FromSource(src, analyzeDist), nil
	}},
}

// analyzeBench: set-up captures the SMP mix and writes the merged
// trace to a file; each op opens it mapped, decodes the records one
// request needs on one worker and runs that request's simulation. No
// interpreter runs, so decode and the batch simulators carry the op.
type analyzeBench struct {
	env    *env
	path   string
	instrs []uint64 // per CPU of the captured run
	order  []int    // rotation order
}

func setupAnalyzeFile(e *env, r *rec) (bench, error) {
	m, err := assemble(r, smpMix)
	if err != nil {
		return nil, err
	}
	c, err := captureSMP(r, m, streamSMPMeta, nil)
	if err != nil {
		return nil, err
	}
	if err := e.pins.checkAll("stream-smp", capturePins(c)); err != nil {
		return nil, err
	}
	path := filepath.Join(e.dir, fmt.Sprintf("analyze-%d.trc", os.Getpid()))
	if err := r.do("bench.write_file", func() error {
		return os.WriteFile(path, c.container, 0o644)
	}); err != nil {
		return nil, err
	}
	return &analyzeBench{
		env:    e,
		path:   path,
		instrs: c.instrs,
		order:  rand.New(rand.NewSource(e.seed)).Perm(len(analyses)),
	}, nil
}

func (b *analyzeBench) op(r *rec, _, i int) (work, error) {
	a := analyses[b.order[i%len(b.order)]]
	var f *trace.File
	if err := r.do("trace.open", func() (err error) {
		f, err = trace.OpenFileMapped(b.path)
		return err
	}); err != nil {
		return work{}, err
	}
	end := r.begin("trace.arena")
	arena, err := f.ArenaCPU(1, a.cpu)
	if err != nil {
		end(0)
		f.Close()
		return work{}, err
	}
	n := int64(arena.NumRecords())
	end(n)

	end = r.begin(a.span)
	res, err := a.run(arena)
	end(n * int64(a.configs))
	if cerr := r.do("trace.close", f.Close); err == nil {
		err = cerr
	}
	if err != nil {
		return work{}, fmt.Errorf("%s: %w", a.name, err)
	}
	if err := r.do("bench.verify", func() error {
		digest, err := jsonSHA(res)
		if err != nil {
			return err
		}
		return b.env.pins.check("analyze-file."+a.name+"_sha256", digest)
	}); err != nil {
		return work{}, err
	}
	w := work{refs: uint64(n)}
	for cpu, v := range b.instrs {
		if a.cpu < 0 || a.cpu == cpu {
			w.instrs += v
		}
	}
	return w, nil
}

func (b *analyzeBench) close() error {
	if err := os.Remove(b.path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}
