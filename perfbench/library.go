package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	episim "repro"
	"repro/internal/artifact"
	"repro/internal/obs"
)

// setupRuns is how many times each workload sets up; setup_s is the
// median.
const setupRuns = 5

// library is an in-process workload: sweeps through
// episim.RunSweepContext with one worker.
type library struct {
	spec *episim.SweepSpec
	// cache returns the cache the next sweep runs against and its
	// directory; it runs on the sweep's clock. release frees it off the
	// clock.
	cache   func() (*episim.SweepCache, string, error)
	release func(dir string)
	// verify checks a sweep's execution accounting (which builds it did).
	verify func(res *episim.SweepResult) error
	// ref and refRes are the run's first sweep: its canonical bytes and
	// its result.
	ref    []byte
	refRes *episim.SweepResult
}

// sample is one timed sweep.
type sample struct {
	start, end      time.Time
	wall, firstCell float64
	res             *episim.SweepResult
	spans           []obs.Span
	dirBytes        int64   // bytes the sweep added to its cache directory
	plHits, plGets  float64 // placement-cache hits and lookups
}

// sweep runs and checks one sweep; tl, when non-nil, records the
// executor's spans.
func (l *library) sweep(o *outcome, tl *episim.SweepTrace) (sample, bool) {
	var s sample
	start := time.Now()
	cache, dir, err := l.cache()
	if err != nil {
		o.check(false, "cache: %v", err)
		return s, false
	}
	defer l.release(dir)
	var dirBefore int64
	plBefore := cache.PlacementStats()
	if tl != nil {
		dirBefore = dirBytes(dir)
	}
	var first atomic.Int64
	res, err := episim.RunSweepContext(context.Background(), l.spec, &episim.SweepOptions{
		Cache: cache,
		Trace: tl,
		OnCell: func(episim.SweepCellResult) {
			first.CompareAndSwap(0, int64(time.Since(start)))
		},
	})
	s.start, s.end = start, time.Now()
	s.wall = s.end.Sub(start).Seconds()
	s.firstCell = time.Duration(first.Load()).Seconds()
	s.res = res
	if !checkResult(o, res, err, l.ref, l.verify) {
		return s, false
	}
	if tl != nil {
		s.spans, _ = tl.Snapshot()
		s.dirBytes = dirBytes(dir) - dirBefore
		plAfter := cache.PlacementStats()
		s.plHits = float64(plAfter.Hits - plBefore.Hits)
		s.plGets = s.plHits + float64(plAfter.Misses-plBefore.Misses)
	}
	return s, true
}

// canonical is a result's canonical JSON, the bytes the service serves.
func canonical(res *episim.SweepResult) []byte {
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return nil
	}
	return buf.Bytes()
}

// checkResult counts one sweep as an operation: it fails on an error, a
// failed cell, a verify error, or canonical bytes that differ from ref.
func checkResult(o *outcome, res *episim.SweepResult, err error, ref []byte, verify func(*episim.SweepResult) error) bool {
	if err == nil && res == nil {
		err = fmt.Errorf("no result")
	}
	if err == nil {
		for _, c := range res.Cells {
			if c.Error != "" {
				err = fmt.Errorf("cell %d failed: %s", c.Index, c.Error)
				break
			}
		}
	}
	if err == nil && verify != nil {
		err = verify(res)
	}
	if err == nil && ref != nil && !bytes.Equal(canonical(res), ref) {
		err = fmt.Errorf("result differs from the run's first sweep")
	}
	o.check(err == nil, "sweep: %v", err)
	return err == nil
}

// totalBuilds sums one build-accounting map of a result.
func totalBuilds(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// populationPersons reads the population a sweep wrote through to its
// cache directory and returns its person count.
func populationPersons(cacheDir string, spec *episim.SweepSpec) (int, error) {
	s := *spec
	s.Normalize()
	store, err := artifact.NewStore(filepath.Join(cacheDir, "populations"))
	if err != nil {
		return 0, err
	}
	payload, err := store.Get(artifact.KindPopulation, s.Cells()[0].Population.Key(s.Seed))
	if err != nil {
		return 0, fmt.Errorf("population artifact: %w", err)
	}
	pop, err := artifact.DecodePopulation(payload)
	if err != nil {
		return 0, err
	}
	return pop.NumPersons(), nil
}

// loop calls fn back to back until d has elapsed and at least min calls
// were made, giving up on min at 3·d.
func loop(d time.Duration, min int, fn func()) {
	start := time.Now()
	for n := 0; ; n++ {
		el := time.Since(start)
		if n > 0 && ((el >= d && n >= min) || el >= 3*d) {
			return
		}
		fn()
	}
}

// endToEnd reports the end-to-end metrics of a timed phase.
func endToEnd(o *outcome, setup float64, walls, firsts []float64, personDays float64, peak obs.ResourcePeak) {
	o.set("setup_s", "s", setup)
	o.set("sweep_p50_s", "s", quantile(walls, 0.5))
	o.set("sweep_p90_s", "s", tail(walls))
	o.set("first_cell_p50_s", "s", quantile(firsts, 0.5))
	o.set("person_days_per_s", "person-day/s", personDays*float64(len(walls))/sum(walls))
	o.set("peak_rss_mb", "MB", float64(peak.PeakBytes)/1e6)
}

// measureLibrary runs a library workload's timed phase. Untraced, it
// reports the end-to-end metrics. Traced, it times the workload once
// untraced and once traced, reports the executor's stage spans, the
// runtime's GC work and the cache accounting, then walks the layers on
// the same inputs (walkDir is a cache directory the setup's sweeps
// wrote through to) and writes the spans out.
func measureLibrary(cfg config, o *outcome, name string, l *library, setup float64, persons int, walkDir string) error {
	personDays := nominalPersonDays(l.spec, persons)
	var walls, firsts []float64
	timed := func(tl func(i int) *episim.SweepTrace, each func(sample)) func() {
		i := 0
		return func() {
			s, ok := l.sweep(o, tl(i))
			i++
			if ok {
				walls = append(walls, s.wall)
				firsts = append(firsts, s.firstCell)
				if each != nil {
					each(s)
				}
			}
		}
	}
	untraced := func(int) *episim.SweepTrace { return nil }

	if !cfg.trace {
		sampler := obs.StartResourceSampler(0)
		loop(cfg.seconds, 1, timed(untraced, nil))
		endToEnd(o, setup, walls, firsts, personDays, sampler.Stop())
		return nil
	}

	gcCPU0, gcCycles0 := gcCounters()
	loop(cfg.seconds, 1, timed(untraced, nil))
	gcCPU1, gcCycles1 := gcCounters()
	n := float64(len(walls))
	o.setLayer("runtime.gc_cpu_s_per_sweep", (gcCPU1-gcCPU0)/n)
	o.setLayer("runtime.gc_cycles_per_sweep", (gcCycles1-gcCycles0)/n)
	untracedP50 := quantile(walls, 0.5)

	tr := &tracer{}
	walls, firsts = nil, nil
	var rollups []map[string]float64
	var dirs, hits, ckpts, simDays []float64
	s := *l.spec
	s.Normalize()
	nominalDays := float64(s.Days * s.Replicates * len(s.Cells()))
	traced := func(i int) *episim.SweepTrace {
		return episim.NewSweepTrace(fmt.Sprintf("sweep-%d", i))
	}
	loop(cfg.seconds, 1, timed(traced, func(smp sample) {
		id := smp.res.Timeline.TraceID()
		tr.adopt(tr.add(0, 0, id, "sweep", smp.start, smp.end), id, "ensemble", smp.spans)
		rollups = append(rollups, rollup(smp.spans))
		dirs = append(dirs, float64(smp.dirBytes))
		hits = append(hits, smp.plHits/smp.plGets)
		ckpts = append(ckpts, float64(totalBuilds(smp.res.CheckpointBuilds)))
		simDays = append(simDays, float64(smp.res.SimulatedDays)/nominalDays)
	}))
	reportEnsemble(o, rollups, walls)
	o.setLayer("ensemble.simulated_day_ratio", quantile(simDays, 0.5))
	o.setLayer("ensemble.placement_hit_ratio", quantile(hits, 0.5))
	o.setLayer("ensemble.checkpoint_builds", quantile(ckpts, 0.5))
	o.setLayer("artifact.bytes_written", quantile(dirs, 0.5))
	o.setLayer("obs.trace_overhead_ratio", quantile(walls, 0.5)/untracedP50)

	if err := walkLayers(o, tr, l.spec, l.refRes, walkDir); err != nil {
		return err
	}
	o.fillLayers()
	return tr.write(filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", name, cfg.seed)))
}

// warmUp runs the untimed warm-up sweep of a set-up and checks it
// against the run's first.
func warmUp(o *outcome, l *library, cache *episim.SweepCache) error {
	res, err := episim.RunSweepContext(context.Background(), l.spec, &episim.SweepOptions{Cache: cache})
	if err != nil {
		return fmt.Errorf("warm-up sweep: %w", err)
	}
	if l.ref == nil {
		l.ref, l.refRes = canonical(res), res
	}
	checkResult(o, res, nil, l.ref, l.verify)
	return nil
}

// runEngineDense times the engine hot path: every sweep runs the
// 20,000-person dense simulation against a cache warmed during set-up,
// so no placement, checkpoint or service work is on the clock.
func runEngineDense(cfg config) (*outcome, error) {
	o := &outcome{}
	var cache *episim.SweepCache
	var dir string
	l := &library{
		spec:    engineDenseSpec(cfg.seed),
		cache:   func() (*episim.SweepCache, string, error) { return cache, dir, nil },
		release: func(string) {},
		verify: func(res *episim.SweepResult) error {
			if n := totalBuilds(res.PopulationBuilds) + totalBuilds(res.PlacementBuilds); n != 0 {
				return fmt.Errorf("warm sweep did %d builds", n)
			}
			return nil
		},
	}
	setup, err := medianSetup(setupRuns, func() (func(), error) {
		d, err := os.MkdirTemp(cfg.work, "cache-")
		if err != nil {
			return nil, err
		}
		c, err := episim.NewSweepCacheDir(0, d)
		if err != nil {
			return nil, err
		}
		if _, err := episim.WarmSweep(context.Background(), l.spec, &episim.SweepOptions{Cache: c}); err != nil {
			return nil, err
		}
		if err := warmUp(o, l, c); err != nil {
			return nil, err
		}
		cache, dir = c, d
		return func() { os.RemoveAll(d) }, nil
	})
	if err != nil {
		return nil, err
	}
	persons, err := populationPersons(dir, l.spec)
	if err != nil {
		return nil, err
	}
	return o, measureLibrary(cfg, o, "engine-dense", l, setup, persons, dir)
}

// runSweepCold times first-time sweeps: each timed sweep gets a fresh
// cache over a fresh cache directory, so population synthesis, location
// splitting, partitioning, checkpoint builds and artifact write-through
// are all on the clock.
func runSweepCold(cfg config) (*outcome, error) {
	o := &outcome{}
	spec := sweepColdSpec(cfg.seed)
	l := &library{
		spec: spec,
		cache: func() (*episim.SweepCache, string, error) {
			d, err := os.MkdirTemp(cfg.work, "cold-")
			if err != nil {
				return nil, "", err
			}
			c, err := episim.NewSweepCacheDir(0, d)
			return c, d, err
		},
		release: func(d string) { os.RemoveAll(d) },
		verify: func(res *episim.SweepResult) error {
			pop, pl, ck := totalBuilds(res.PopulationBuilds), totalBuilds(res.PlacementBuilds), totalBuilds(res.CheckpointBuilds)
			if pop != 1 || pl != 1 || ck != spec.Replicates {
				return fmt.Errorf("cold sweep built %d populations, %d placements, %d checkpoints", pop, pl, ck)
			}
			return nil
		},
	}
	var dir string
	setup, err := medianSetup(setupRuns, func() (func(), error) {
		c, d, err := l.cache()
		if err != nil {
			return nil, err
		}
		if err := warmUp(o, l, c); err != nil {
			return nil, err
		}
		dir = d
		return func() { l.release(d) }, nil
	})
	if err != nil {
		return nil, err
	}
	persons, err := populationPersons(dir, spec)
	if err != nil {
		return nil, err
	}
	return o, measureLibrary(cfg, o, "sweep-cold", l, setup, persons, dir)
}
