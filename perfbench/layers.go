package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"time"

	episim "repro"
	"repro/internal/artifact"
	"repro/internal/charm"
	"repro/internal/core"
	"repro/internal/ensemble"
	"repro/internal/graph"
	"repro/internal/interventions"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/splitloc"
)

// span is one timed call the benchmark made into a layer. Spans of one
// sweep (or of the layer walk) share a trace id; parent names the span
// that caused this one.
type span struct {
	ID      int       `json:"id"`
	Parent  int       `json:"parent,omitempty"`
	Trace   string    `json:"trace"`
	Name    string    `json:"name"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	Seconds float64   `json:"seconds"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, but its open spans still measure.
type tracer struct {
	mu    sync.Mutex
	next  int
	spans []span
}

// openSpan is a span that has begun.
type openSpan struct {
	t      *tracer
	id     int
	parent int
	trace  string
	name   string
	start  time.Time
}

func (t *tracer) begin(trace string, parent int, name string) *openSpan {
	s := &openSpan{t: t, parent: parent, trace: trace, name: name}
	if t != nil {
		t.mu.Lock()
		t.next++
		s.id = t.next
		t.mu.Unlock()
	}
	s.start = time.Now()
	return s
}

// end closes the span and returns its duration in seconds.
func (s *openSpan) end() float64 {
	end := time.Now()
	s.t.add(s.id, s.parent, s.trace, s.name, s.start, end)
	return end.Sub(s.start).Seconds()
}

// add records a finished span and returns its id; id 0 allocates a
// fresh one.
func (t *tracer) add(id, parent int, trace, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.next++
		id = t.next
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start, End: end, Seconds: end.Sub(start).Seconds()})
	return id
}

// adopt records the program's own spans (an ensemble or server
// timeline) as children of parent, prefixed with their layer.
func (t *tracer) adopt(parent int, trace, layer string, spans []obs.Span) {
	for _, sp := range spans {
		t.add(0, parent, trace, layer+"."+sp.Name, sp.Start, sp.End)
	}
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.MarshalIndent(t.spans, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// perLayer lists every per-layer metric a traced run reports, in the
// order of BENCHMARK.json. A layer a workload does not pass through
// reports 0 there (README.md lists which layers each workload uses).
var perLayer = []struct{ name, unit string }{
	{"synthpop.generate_s", "s"},
	{"splitloc.split_s", "s"},
	{"splitloc.fragments", "count"},
	{"graph.build_s", "s"},
	{"partition.multilevel_s", "s"},
	{"partition.edge_cut", "count"},
	{"partition.max_over_avg", "ratio"},
	{"machine.model_day_s", "model-s/day"},
	{"core.engine_new_s", "s"},
	{"core.day_p50_s", "s"},
	{"core.day_p90_s", "s"},
	{"core.allocs_per_person_day", "count"},
	{"core.alloc_bytes_per_person_day", "B"},
	{"core.allocs_per_replicate", "count"},
	{"core.alloc_mb_per_replicate", "MB"},
	{"core.kernel_days_active", "count"},
	{"core.kernel_days_dense", "count"},
	{"charm.person_messages_per_day", "count"},
	{"charm.location_messages_per_day", "count"},
	{"charm.update_messages_per_day", "count"},
	{"charm.wire_messages_per_day", "count"},
	{"charm.bytes_per_day", "B"},
	{"des.events_per_day", "count"},
	{"des.interactions_per_day", "count"},
	{"des.trials_per_day", "count"},
	{"runtime.gc_cpu_s_per_sweep", "s"},
	{"runtime.gc_cycles_per_sweep", "count"},
	{"ensemble.population_build_s", "s"},
	{"ensemble.placement_build_s", "s"},
	{"ensemble.checkpoint_build_s", "s"},
	{"ensemble.checkpoint_restore_s", "s"},
	{"ensemble.sim_s", "s"},
	{"ensemble.aggregate_s", "s"},
	{"ensemble.unaccounted_ratio", "ratio"},
	{"ensemble.simulated_day_ratio", "ratio"},
	{"ensemble.placement_hit_ratio", "ratio"},
	{"ensemble.checkpoint_builds", "count"},
	{"artifact.encode_s", "s"},
	{"artifact.bytes_written", "B"},
	{"server.queue_wait_s", "s"},
	{"server.run_s", "s"},
	{"server.result_persist_s", "s"},
	{"server.overhead_s", "s"},
	{"cluster.proxy_overhead_s", "s"},
	{"client.submit_s", "s"},
	{"client.stream_tail_s", "s"},
	{"client.result_fetch_s", "s"},
	{"client.unaccounted_ratio", "ratio"},
	{"client.result_bytes", "B"},
	{"client.events_per_sweep", "count"},
	{"obs.trace_overhead_ratio", "ratio"},
}

// layerUnit returns a per-layer metric's unit.
func layerUnit(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: undeclared per-layer metric " + name)
}

// setLayer records a per-layer metric under its declared unit.
func (o *outcome) setLayer(name string, v float64) { o.set(name, layerUnit(name), v) }

// fillLayers reports 0 for every per-layer metric the run did not set.
func (o *outcome) fillLayers() {
	for _, m := range perLayer {
		if _, ok := o.metrics[m.name]; !ok {
			o.set(m.name, m.unit, 0)
		}
	}
}

// gcCounters reads the Go runtime's cumulative GC CPU time and cycle
// count.
func gcCounters() (cpuSeconds, cycles float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		cpuSeconds = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		cycles = float64(s[1].Value.Uint64())
	}
	return cpuSeconds, cycles
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// rollup sums one sweep's ensemble spans by stage name.
func rollup(spans []obs.Span) map[string]float64 {
	out := map[string]float64{}
	for name, st := range obs.RollupStages(spans) {
		out[name] = st.Seconds
	}
	return out
}

// ensembleStages are the executor's span names, each reported as
// ensemble.<stage>_s (a load of an artifact counts with its build).
var ensembleStages = []string{"population_build", "placement_build", "checkpoint_build",
	"checkpoint_restore", "sim", "aggregate"}

// covered returns how many seconds of [from, to] the union of the
// intervals covers.
func covered(from, to time.Time, intervals [][2]time.Time) float64 {
	iv := slices.Clone(intervals)
	slices.SortFunc(iv, func(a, b [2]time.Time) int { return a[0].Compare(b[0]) })
	var total time.Duration
	cursor := from
	for _, in := range iv {
		start, end := in[0], in[1]
		if start.Before(cursor) {
			start = cursor
		}
		if end.After(to) {
			end = to
		}
		if end.After(start) {
			total += end.Sub(start)
			cursor = end
		}
	}
	return total.Seconds()
}

// stageSeconds is a sweep's time in one ensemble stage; a build stage
// includes the loads of the same artifact.
func stageSeconds(r map[string]float64, stage string) float64 {
	if kind, ok := strings.CutSuffix(stage, "_build"); ok {
		return r[stage] + r[kind+"_load"]
	}
	return r[stage]
}

// reportEnsemble turns per-sweep span rollups and wall times into the
// ensemble stage metrics and the share of wall time no stage covers.
func reportEnsemble(o *outcome, rollups []map[string]float64, walls []float64) {
	for _, stage := range ensembleStages {
		var xs []float64
		for _, r := range rollups {
			xs = append(xs, stageSeconds(r, stage))
		}
		o.setLayer("ensemble."+stage+"_s", quantile(xs, 0.5))
	}
	var unaccounted []float64
	for i, r := range rollups {
		var covered float64
		for _, stage := range ensembleStages {
			covered += stageSeconds(r, stage)
		}
		unaccounted = append(unaccounted, (walls[i]-covered)/walls[i])
	}
	o.setLayer("ensemble.unaccounted_ratio", quantile(unaccounted, 0.5))
}

// walkLayers drives the first cell of spec step by step through each
// layer's exported functions — population synthesis, location splitting,
// graph build, partitioning, the machine model, artifact encoding and
// the engine's day loop — timing each call, and proves it did the same
// work as the sweep that produced ref: equal placement assignments (read
// back from the sweep's cache directory) and equal per-day infection
// curves. The engine runs day by day until at least 180 days have been
// timed, so the day-time tail is resolved.
func walkLayers(o *outcome, tr *tracer, spec *episim.SweepSpec, ref *episim.SweepResult, cacheDir string) error {
	const trace = "layers"
	walk := tr.begin(trace, 0, "layers")
	defer walk.end()
	s := *spec
	s.Normalize()
	cell := s.Cells()[0]
	popSeed := cell.Population.Seed
	if popSeed == 0 {
		popSeed = s.Seed
	}
	const reps = 3 // set-up layers are timed this many times; the median is reported
	timed := func(name string, fn func() error) (float64, error) {
		var xs []float64
		for range reps {
			sp := tr.begin(trace, walk.id, name)
			err := fn()
			xs = append(xs, sp.end())
			if err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
		}
		return quantile(xs, 0.5), nil
	}

	// synthpop
	ps := cell.Population
	var pop *episim.Population
	genS, err := timed("synthpop.generate", func() (err error) {
		if ps.State != "" {
			pop, err = episim.GenerateState(ps.State, ps.Scale, popSeed)
		} else {
			pop = episim.Generate(ps.Name, ps.People, ps.Locations, popSeed)
		}
		return err
	})
	if err != nil {
		return err
	}
	o.setLayer("synthpop.generate_s", genS)

	// splitloc
	simPop := pop
	ranks := cell.Placement.Ranks
	if cell.Placement.SplitLoc {
		var st splitloc.Stats
		splitS, err := timed("splitloc.split", func() (err error) {
			simPop, st, err = splitloc.SplitPopulation(pop, splitloc.Options{MaxPartitions: max(16384, ranks)})
			return err
		})
		if err != nil {
			return err
		}
		o.setLayer("splitloc.split_s", splitS)
		o.setLayer("splitloc.fragments", float64(st.NumFragments))
	}

	// graph
	var g *graph.Graph
	graphS, _ := timed("graph.build", func() error { g = episim.BuildBipartiteGraph(simPop); return nil })
	o.setLayer("graph.build_s", graphS)

	// partition
	nP, nL := simPop.NumPersons(), simPop.NumLocations()
	assign := make([]int32, 0, nP+nL)
	if strings.EqualFold(cell.Placement.Strategy, "GP") {
		mlS, _ := timed("partition.multilevel", func() error {
			p := partition.Multilevel(g, ranks, partition.Options{Imbalance: cell.Placement.Imbalance, Seed: popSeed})
			assign = p.Assign
			return nil
		})
		o.setLayer("partition.multilevel_s", mlS)
	} else {
		assign = append(assign, partition.RoundRobin(nP, ranks).Assign...)
		assign = append(assign, partition.RoundRobin(nL, ranks).Assign...)
	}
	q := partition.Evaluate(g, &partition.Partitioning{K: ranks, Assign: assign})
	o.setLayer("partition.edge_cut", float64(q.EdgeCut))
	o.setLayer("partition.max_over_avg", slices.Max(q.MaxOverAvg))
	pl := &episim.Placement{Pop: simPop, PersonRank: assign[:nP], LocationRank: assign[nP : nP+nL],
		Ranks: ranks, Label: cell.Placement.Label()}
	plKey := cell.Placement.Key(cell.Population.Key(s.Seed))
	stored, err := loadPlacement(cacheDir, plKey)
	o.check(err == nil && slices.Equal(stored.PersonRank, pl.PersonRank) &&
		slices.Equal(stored.LocationRank, pl.LocationRank),
		"layer walk placement differs from the sweep's (%v)", err)

	// machine
	sp := tr.begin(trace, walk.id, "machine.model_day")
	o.setLayer("machine.model_day_s", episim.ModelDayTime(pl, episim.DefaultPerfOptions()).Total)
	sp.end()

	// core
	cp, err := walkEngine(o, tr, walk.id, &s, cell, pl, ref)
	if err != nil {
		return err
	}

	// artifact
	encS, _ := timed("artifact.encode", func() error {
		artifact.Seal(artifact.KindPlacement, plKey, artifact.EncodePlacement(&artifact.Placement{
			Pop: pl.Pop, PersonRank: pl.PersonRank, LocationRank: pl.LocationRank,
			Ranks: pl.Ranks, Label: pl.Label, Quality: &q}))
		if cp != nil {
			artifact.Seal(artifact.KindCheckpoint, plKey, artifact.EncodeCheckpoint(cp))
		}
		return nil
	})
	o.setLayer("artifact.encode_s", encS)
	return nil
}

// loadPlacement reads a placement the sweep wrote through to its cache
// directory.
func loadPlacement(cacheDir, key string) (*artifact.Placement, error) {
	store, err := artifact.NewStore(filepath.Join(cacheDir, "placements"))
	if err != nil {
		return nil, err
	}
	payload, err := store.Get(artifact.KindPlacement, key)
	if err != nil {
		return nil, err
	}
	return artifact.DecodePlacement(payload)
}

// walkEngine runs the cell's replicates with core.New and Engine.RunDay
// until at least 180 days are timed, reporting day times, allocations,
// kernel choice and the charm and DES counters, and checks each pass's
// infection curves against the sweep's cell. For a fork spec it returns
// the fork-day checkpoint of replicate 0 (for the artifact layer).
func walkEngine(o *outcome, tr *tracer, parent int, s *episim.SweepSpec, cell ensemble.Cell,
	pl *episim.Placement, ref *episim.SweepResult) (*core.Checkpoint, error) {
	const trace = "layers"
	model, err := cell.Model.Resolve()
	if err != nil {
		return nil, err
	}
	text := cell.Scenario.Text
	if cell.Intervention != nil {
		if branch := cell.Intervention.Compile(); branch != "" {
			text = strings.TrimRight(text, "\n") + "\n" + branch
		}
	}
	newEngine := func(replicate int) (*core.Engine, error) {
		var scn *interventions.Scenario
		if strings.TrimSpace(text) != "" {
			var err error
			if scn, err = interventions.Parse(text); err != nil {
				return nil, err
			}
		}
		return core.New(core.Config{
			Population: pl.Pop, Disease: model, Scenario: scn,
			Days: s.Days, Seed: cell.ReplicateSeed(s.Seed, replicate),
			InitialInfections: s.InitialInfections, Ranks: pl.Ranks,
			AggBufferSize: s.AggBufferSize, SyncMode: charm.CompletionDetection,
			PersonRank: pl.PersonRank, LocationRank: pl.LocationRank,
			Mixing: s.Mixing, Kernel: s.Kernel, KernelThreshold: s.KernelThreshold,
		})
	}

	want := ref.Cells[cell.Index].MeanCurve
	passes := (180 + s.Replicates*s.Days - 1) / (s.Replicates * s.Days)
	var newS []float64
	dayS := make([]float64, 0, passes*s.Replicates*s.Days)
	var dayMallocs, dayBytes, repMallocs, repBytes uint64
	first := make([]core.DayReport, 0, s.Replicates*s.Days) // pass 0, every replicate
	stamps := make([]time.Time, s.Days+1)
	for pass := range passes {
		curve := make([]float64, s.Days)
		for r := range s.Replicates {
			// The day loop allocates nothing of its own between the
			// MemStats reads: its buffers are made above, and its spans
			// are recorded after the second read.
			var m0, m1, m2 runtime.MemStats
			runtime.ReadMemStats(&m0)
			sp := tr.begin(trace, parent, "core.new")
			eng, err := newEngine(r)
			newS = append(newS, sp.end())
			if err != nil {
				return nil, err
			}
			runtime.ReadMemStats(&m1)
			stamps[0] = time.Now()
			for d := 1; d <= s.Days; d++ {
				rep := eng.RunDay(d)
				stamps[d] = time.Now()
				curve[d-1] += float64(rep.NewInfections)
				if pass == 0 {
					first = append(first, rep)
				}
			}
			runtime.ReadMemStats(&m2)
			days := tr.begin(trace, parent, "core.run_days")
			for d := 1; d <= s.Days; d++ {
				tr.add(0, days.id, trace, "core.run_day", stamps[d-1], stamps[d])
				dayS = append(dayS, stamps[d].Sub(stamps[d-1]).Seconds())
			}
			tr.add(days.id, parent, trace, "core.run_days", stamps[0], stamps[s.Days])
			dayMallocs += m2.Mallocs - m1.Mallocs
			dayBytes += m2.TotalAlloc - m1.TotalAlloc
			repMallocs += m2.Mallocs - m0.Mallocs
			repBytes += m2.TotalAlloc - m0.TotalAlloc
		}
		same := len(want) == len(curve)
		for d := range curve {
			if same && math.Abs(curve[d]/float64(s.Replicates)-want[d]) > 1e-9*math.Max(1, want[d]) {
				same = false
			}
		}
		o.check(same, "layer walk pass %d: infection curve differs from the sweep's cell %d", pass, cell.Index)
	}

	sims := float64(passes * s.Replicates)
	personDays := sims * float64(pl.Pop.NumPersons()*s.Days)
	o.setLayer("core.engine_new_s", quantile(newS, 0.5))
	o.setLayer("core.day_p50_s", quantile(dayS, 0.5))
	o.setLayer("core.day_p90_s", quantile(dayS, 0.9))
	o.setLayer("core.allocs_per_person_day", float64(dayMallocs)/personDays)
	o.setLayer("core.alloc_bytes_per_person_day", float64(dayBytes)/personDays)
	o.setLayer("core.allocs_per_replicate", float64(repMallocs)/sims)
	o.setLayer("core.alloc_mb_per_replicate", float64(repBytes)/sims/1e6)

	var active, dense float64
	var person, location, update, wire, bytes, events, interactions, trials float64
	for _, rep := range first {
		switch rep.Kernel {
		case "active":
			active++
		case "", core.KernelDense:
			dense++
		}
		person += float64(rep.PersonPhase.Messages)
		location += float64(rep.LocationPhase.Messages)
		update += float64(rep.UpdatePhase.Messages)
		wire += float64(rep.PersonPhase.WireMessages + rep.LocationPhase.WireMessages + rep.UpdatePhase.WireMessages)
		bytes += float64(rep.PersonPhase.Bytes + rep.LocationPhase.Bytes + rep.UpdatePhase.Bytes)
		events += float64(rep.Events)
		interactions += float64(rep.Interactions)
		trials += float64(rep.Trials)
	}
	n := float64(len(first))
	o.setLayer("core.kernel_days_active", active)
	o.setLayer("core.kernel_days_dense", dense)
	o.setLayer("charm.person_messages_per_day", person/n)
	o.setLayer("charm.location_messages_per_day", location/n)
	o.setLayer("charm.update_messages_per_day", update/n)
	o.setLayer("charm.wire_messages_per_day", wire/n)
	o.setLayer("charm.bytes_per_day", bytes/n)
	o.setLayer("des.events_per_day", events/n)
	o.setLayer("des.interactions_per_day", interactions/n)
	o.setLayer("des.trials_per_day", trials/n)

	if s.ForkDay <= 0 {
		return nil, nil
	}
	eng, err := newEngine(0)
	if err != nil {
		return nil, err
	}
	return eng.RunPrefix(s.ForkDay)
}
