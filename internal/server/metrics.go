package server

import (
	"io"
	"slices"
	"strings"
	"time"

	episim "repro"
	"repro/client"
	"repro/internal/obs"
)

// The daemon's scalar metrics, declared once. Each row of statRows names
// a Prometheus family, the StatsReply value it reads and, when the SLO
// plane or the ops console reads it by name, its metrics-history key.
// WriteMetrics and StatsHistoryPoint both loop over the table, and the
// gateway's fleet merge sums StatsReply field by field, so adding a
// counter takes its StatsReply field, one row here and the line in
// stats() that fills it.

type stats = client.StatsReply

// statRow is one daemon scalar. val is a typed accessor, so a row bound
// to a misspelled field fails the build rather than a scrape.
type statRow struct {
	obs.Family
	hist string // metrics-history key ("" = /metrics only)
	val  func(*stats) float64
}

// statRows is the ordered table of daemon scalars. The sweep state
// tallies (done/failed/canceled) are gauges on purpose: they count jobs
// currently in the memory index, which retention eviction decreases.
var statRows = slices.Concat(
	[]statRow{
		{obs.Gauge("episimd_uptime_seconds", "Seconds since the daemon started."), "", func(s *stats) float64 { return s.UptimeSec }},
		{obs.Gauge("episimd_queue_depth", "Sweeps queued and still waiting for an execution slot."), "queue_depth", func(s *stats) float64 { return float64(s.QueueDepth) }},
		{obs.Gauge("episimd_active_sweeps", "Sweeps executing right now."), "active_sweeps", func(s *stats) float64 { return float64(s.ActiveSweeps) }},
		{obs.Gauge("episimd_sweeps", "Sweeps in the memory index, any state."), "", func(s *stats) float64 { return float64(s.SweepsTotal) }},
		{obs.Gauge("episimd_sweeps_done", "Completed sweeps in the memory index (decreases on retention eviction)."), "", func(s *stats) float64 { return float64(s.SweepsDone) }},
		{obs.Gauge("episimd_sweeps_failed", "Failed sweeps in the memory index (decreases on retention eviction)."), "", func(s *stats) float64 { return float64(s.SweepsFailed) }},
		{obs.Gauge("episimd_sweeps_canceled", "Canceled sweeps in the memory index (decreases on retention eviction)."), "", func(s *stats) float64 { return float64(s.SweepsCanceled) }},
		{obs.Counter("episimd_sweeps_evicted_total", "Finished sweeps evicted from the memory index by retention."), "", func(s *stats) float64 { return float64(s.SweepsEvicted) }},
		{obs.Counter("episimd_cells_streamed_total", "Sweep cells finalized and streamed to subscribers."), "cells_streamed", func(s *stats) float64 { return float64(s.CellsStreamed) }},
		{obs.Gauge("episimd_cells_per_second", "Mean cell throughput over the daemon's uptime."), "", func(s *stats) float64 { return s.CellsPerSec }},
		{obs.Counter("episimd_submissions_received_total", "Sweep submissions received (accepted or not)."), "submit_total", func(s *stats) float64 { return float64(s.SubmitsTotal) }},
		{obs.Counter("episimd_submission_errors_total", "Sweep submissions refused (parse or admission failure)."), "submit_errors", func(s *stats) float64 { return float64(s.SubmitErrors) }},
		{obs.Counter("episimd_events_sent_total", "Event-stream messages delivered to subscribers."), "events_total", func(s *stats) float64 { return float64(s.EventsSent) }},
		{obs.Counter("episimd_event_send_errors_total", "Event-stream sends that failed (subscriber gone mid-write)."), "events_send_errors", func(s *stats) float64 { return float64(s.EventsSendErrors) }},
		{obs.Counter("episimd_trace_dropped_spans_total", "Spans dropped past the per-job trace retention cap."), "trace_dropped_spans", func(s *stats) float64 { return float64(s.TraceDroppedSpans) }},
		{obs.Counter("episimd_profile_captures_total", "Watchdog-triggered pprof capture events persisted to the artifact store."), "profile_captures", func(s *stats) float64 { return float64(s.ProfileCaptures) }},
	},
	cacheRows("episimd_population_cache", func(s *stats) episim.SweepCacheStats { return s.PopulationCache }),
	cacheRows("episimd_placement_cache", func(s *stats) episim.SweepCacheStats { return s.PlacementCache }),
	cacheRows("episimd_checkpoint_cache", func(s *stats) episim.SweepCacheStats { return s.CheckpointCache }),
	storeRows("episimd_population_store", "population", func(s *stats) *episim.SweepStoreStats { return s.PopulationStore }),
	storeRows("episimd_placement_store", "placement", func(s *stats) *episim.SweepStoreStats { return s.PlacementStore }),
	storeRows("episimd_result_store", "result", func(s *stats) *episim.SweepStoreStats { return s.ResultStore }),
	storeRows("episimd_checkpoint_store", "checkpoint", func(s *stats) *episim.SweepStoreStats { return s.CheckpointStore }),
	gcRows("episimd_placement_store", "placement", "Placement artifacts pruned by the LRU disk GC.", func(s *stats) *episim.SweepStoreStats { return s.PlacementStore }),
	gcRows("episimd_result_store", "result", "Result records expired by the TTL disk GC.", func(s *stats) *episim.SweepStoreStats { return s.ResultStore }),
	gcRows("episimd_checkpoint_store", "checkpoint", "Checkpoint artifacts expired by the TTL disk GC.", func(s *stats) *episim.SweepStoreStats { return s.CheckpointStore }),
	// The fork-economics trio: prefix builds no cache tier absorbed,
	// branch resumes served from a checkpoint, and the estimated
	// in-memory bytes of every checkpoint built.
	[]statRow{
		{obs.Counter("episimd_checkpoint_builds_total", "Fork-point checkpoint prefix executions (no cache tier absorbed them)."), "", func(s *stats) float64 { return float64(s.CheckpointCache.Builds) }},
		{obs.Counter("episimd_checkpoint_restores_total", "Intervention branches resumed from a checkpoint instead of day 0."), "", func(s *stats) float64 { return float64(s.CheckpointRestores) }},
		{obs.Counter("episimd_checkpoint_bytes_total", "Estimated in-memory bytes of checkpoints built by this daemon."), "", func(s *stats) float64 { return float64(s.CheckpointBytes) }},
	},
)

// cacheRows declares one build cache's accounting under prefix.
func cacheRows(prefix string, cache func(*stats) episim.SweepCacheStats) []statRow {
	row := func(f obs.Family, v func(episim.SweepCacheStats) int64) statRow {
		return statRow{Family: f, val: func(s *stats) float64 { return float64(v(cache(s))) }}
	}
	return []statRow{
		row(obs.Gauge(prefix+"_entries", "Entries resident in the memory LRU."), func(c episim.SweepCacheStats) int64 { return int64(c.Entries) }),
		row(obs.Gauge(prefix+"_bytes", "Bytes retained by the memory LRU."), func(c episim.SweepCacheStats) int64 { return c.Bytes }),
		row(obs.Counter(prefix+"_hits_total", "Memory cache hits."), func(c episim.SweepCacheStats) int64 { return c.Hits }),
		row(obs.Counter(prefix+"_misses_total", "Memory cache misses."), func(c episim.SweepCacheStats) int64 { return c.Misses }),
		row(obs.Counter(prefix+"_evictions_total", "Entries evicted by the byte bound."), func(c episim.SweepCacheStats) int64 { return c.Evictions }),
		row(obs.Counter(prefix+"_builds_total", "Artifacts built from scratch (singleflight-deduplicated)."), func(c episim.SweepCacheStats) int64 { return c.Builds }),
		row(obs.Counter(prefix+"_disk_hits_total", "Disk tier hits (artifact loaded instead of rebuilt)."), func(c episim.SweepCacheStats) int64 { return c.DiskHits }),
		row(obs.Counter(prefix+"_disk_misses_total", "Disk tier misses."), func(c episim.SweepCacheStats) int64 { return c.DiskMisses }),
		row(obs.Counter(prefix+"_disk_writes_total", "Artifacts written through to the disk tier."), func(c episim.SweepCacheStats) int64 { return c.DiskWrites }),
		row(obs.Counter(prefix+"_disk_errors_total", "Disk tier read/write failures (served from build instead)."), func(c episim.SweepCacheStats) int64 { return c.DiskErrors }),
	}
}

// storeRow reads one field of an optional artifact store. The stores
// exist only when the daemon runs with a cache dir; an absent store
// reads as 0, keeping the metric set stable.
func storeRow(f obs.Family, store func(*stats) *episim.SweepStoreStats, v func(episim.SweepStoreStats) int64) statRow {
	return statRow{Family: f, val: func(s *stats) float64 {
		if st := store(s); st != nil {
			return float64(v(*st))
		}
		return 0
	}}
}

// storeRows declares one artifact store's size.
func storeRows(prefix, what string, store func(*stats) *episim.SweepStoreStats) []statRow {
	return []statRow{
		storeRow(obs.Gauge(prefix+"_files", "Files in the "+what+" store."), store, func(st episim.SweepStoreStats) int64 { return int64(st.Files) }),
		storeRow(obs.Gauge(prefix+"_bytes", "Bytes in the "+what+" store."), store, func(st episim.SweepStoreStats) int64 { return st.Bytes }),
	}
}

// gcRows declares one artifact store's GC accounting. The population
// store is never GC'd, so it has none.
func gcRows(prefix, what, filesHelp string, store func(*stats) *episim.SweepStoreStats) []statRow {
	return []statRow{
		storeRow(obs.Counter(prefix+"_gc_files_total", filesHelp), store, func(st episim.SweepStoreStats) int64 { return st.GCFiles }),
		storeRow(obs.Counter(prefix+"_gc_bytes_total", "Bytes reclaimed from the "+what+" store by GC."), store, func(st episim.SweepStoreStats) int64 { return st.GCBytes }),
	}
}

// WriteMetrics renders a StatsReply as Prometheus text-format series,
// each with its HELP/TYPE block. Exported so episim-gw can serve the
// cluster-aggregated snapshot in exactly the per-instance metric
// vocabulary.
func WriteMetrics(w io.Writer, st client.StatsReply) {
	for _, r := range statRows {
		r.Write(w, obs.Sample{Value: r.val(&st)})
	}
	var days []obs.Sample
	for k, n := range st.KernelDays {
		days = append(days, obs.Sample{Labels: []string{"kernel", k}, Value: float64(n)})
	}
	slices.SortFunc(days, func(a, b obs.Sample) int { return strings.Compare(a.Labels[1], b.Labels[1]) })
	obs.Counter("episimd_kernel_days_total", "Simulated days by executing kernel.").Write(w, days...)
	obs.WriteHistogramsProm(w, st.Histograms)
}

// StatsHistoryPoint reduces one stats snapshot to a history-ring point:
// the statRows carrying a history key (what the SLO specs and the ops
// console read) and the full histogram set. The gateway feeds its fleet
// ring through this same function on the merged reply, so a fleet-level
// burn rate is computed from exactly the per-daemon vocabulary.
func StatsHistoryPoint(st client.StatsReply, stale bool) obs.HistoryPoint {
	scalars := map[string]float64{}
	for _, r := range statRows {
		if r.hist != "" {
			scalars[r.hist] = r.val(&st)
		}
	}
	return obs.HistoryPoint{Time: time.Now(), Scalars: scalars, Hists: st.Histograms, Stale: stale}
}
