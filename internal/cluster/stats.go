package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sync"
	"time"

	"repro/client"
	"repro/internal/obs"
	"repro/internal/server"
)

// GatewayStats describes the routing tier itself.
type GatewayStats struct {
	UptimeSec       float64 `json:"uptime_sec"`
	BackendsTotal   int     `json:"backends_total"`
	BackendsHealthy int     `json:"backends_healthy"`
	// FleetHealthy is 1 while at least one backend is healthy, 0 when the
	// whole fleet is unreachable — in which case the aggregate stats below
	// are last-known snapshots, not live reads.
	FleetHealthy int `json:"fleet_healthy"`
	// Submitted counts accepted submissions; Rerouted the subset that
	// fell past their first-choice (cache-affine) backend — a high ratio
	// means churn is costing cache locality. Spilled counts submissions
	// deliberately diverted off a healthy-but-saturated owner by the
	// load-aware spill bound.
	Submitted int64 `json:"submitted"`
	Rerouted  int64 `json:"rerouted"`
	Spilled   int64 `json:"spilled"`
	// Throttled* count 429s from gateway admission control, by reason.
	ThrottledRate     int64 `json:"throttled_rate"`
	ThrottledInflight int64 `json:"throttled_inflight"`
	// TrackedClients is the number of clients with live admission state.
	TrackedClients int `json:"tracked_clients,omitempty"`
}

// BackendStatus is one backend's health and, when reachable, its own
// stats snapshot.
type BackendStatus struct {
	Name    string `json:"name"`
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// Routed counts submissions this gateway sent here; QueueDepth is
	// the gateway's current estimate (last probe + routed since), the
	// number the spill decision reads.
	Routed     int64              `json:"routed"`
	QueueDepth int                `json:"queue_depth"`
	LastError  string             `json:"last_error,omitempty"`
	Stats      *client.StatsReply `json:"stats,omitempty"`
	// StatsStale marks Stats as the last snapshot taken before the
	// backend became unreachable, kept so fleet aggregates degrade
	// gracefully instead of zeroing out. StatsUpdated accompanies a stale
	// snapshot with the time it was actually taken, so an operator can
	// tell a seconds-old degradation from an hours-old one.
	StatsStale   bool       `json:"stats_stale,omitempty"`
	StatsUpdated *time.Time `json:"stats_updated,omitempty"`
	// StatsError is set when the stats fetch itself failed (the backend
	// may still be serving sweeps).
	StatsError string `json:"stats_error,omitempty"`
}

// StatsReply is the gateway's /v1/stats: the fleet-wide aggregate in the
// single-daemon shape (an episimd client pointed at the gateway decodes
// it unchanged), plus gateway and per-backend detail.
type StatsReply struct {
	client.StatsReply
	Gateway  GatewayStats    `json:"gateway"`
	Backends []BackendStatus `json:"backends"`
}

// statsTimeout bounds the whole stats fan-out: metrics scrapes have
// their own deadlines (Prometheus defaults to 10s), so a slow backend
// must cost less than that, not controlTimeout.
const statsTimeout = 5 * time.Second

// collectStats fans /v1/stats out to every healthy backend and
// aggregates. Ejected backends are not dialed — a black-holed host
// would stall every scrape for the full timeout exactly while its
// health is most interesting — but their last successful snapshot still
// folds into the aggregate (marked stale), so a fleet-wide outage
// reports the last-known state under fleet_healthy=0 instead of
// collapsing every counter to zero.
func (g *Gateway) collectStats(ctx context.Context) StatsReply {
	ctx, cancel := context.WithTimeout(ctx, statsTimeout)
	defer cancel()
	healthy := g.healthyCount()
	fleetHealthy := 0
	if healthy > 0 {
		fleetHealthy = 1
	}
	out := StatsReply{
		Gateway: GatewayStats{
			UptimeSec:         time.Since(g.started).Seconds(),
			BackendsTotal:     len(g.backends),
			BackendsHealthy:   healthy,
			FleetHealthy:      fleetHealthy,
			Submitted:         g.submitted.Load(),
			Rerouted:          g.rerouted.Load(),
			Spilled:           g.spilled.Load(),
			ThrottledRate:     g.throttledRate.Load(),
			ThrottledInflight: g.throttledInflight.Load(),
			TrackedClients:    g.admit.trackedClients(),
		},
		Backends: make([]BackendStatus, len(g.backends)),
	}
	var wg sync.WaitGroup
	for i, b := range g.backends {
		out.Backends[i] = BackendStatus{
			Name:       b.identity(),
			URL:        b.url,
			Healthy:    b.healthy.Load(),
			Routed:     b.routed.Load(),
			QueueDepth: b.queueDepthEstimate(),
			LastError:  b.lastError(),
		}
		if !out.Backends[i].Healthy {
			out.Backends[i].StatsError = "unreachable (ejected); no stats seen yet"
			if out.Backends[i].useLastKnown(b) {
				out.Backends[i].StatsError = "unreachable (ejected); last-known stats shown"
			}
			continue
		}
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			st, err := g.fetchStats(ctx, b)
			if err != nil {
				out.Backends[i].StatsError = err.Error()
				// Healthy per the prober but the fetch failed: degrade to
				// the last snapshot rather than dropping the backend from
				// the aggregate.
				out.Backends[i].useLastKnown(b)
				return
			}
			b.lastStats.Store(st)
			b.lastStatsAt.Store(time.Now().UnixNano())
			out.Backends[i].Stats = st
		}(i, b)
	}
	wg.Wait()
	for i, bs := range out.Backends {
		if bs.Stats == nil {
			continue
		}
		if err := mergeStats(&out.StatsReply, *bs.Stats); err != nil {
			if bs.StatsError != "" {
				err = fmt.Errorf("%s; %w", bs.StatsError, err)
			}
			out.Backends[i].StatsError = err.Error()
		}
	}
	return out
}

// useLastKnown degrades bs to the backend's last successful snapshot,
// marked stale; it reports false when there has been none.
func (bs *BackendStatus) useLastKnown(b *backend) bool {
	last := b.lastStats.Load()
	if last == nil {
		return false
	}
	bs.Stats, bs.StatsStale, bs.StatsUpdated = last, true, b.statsTakenAt()
	return true
}

// statsTakenAt returns when the last successful stats snapshot was taken
// (nil before any), pointer-shaped for the omitempty reply field.
func (b *backend) statsTakenAt() *time.Time {
	ns := b.lastStatsAt.Load()
	if ns == 0 {
		return nil
	}
	t := time.Unix(0, ns)
	return &t
}

func (g *Gateway) fetchStats(ctx context.Context, b *backend) (*client.StatsReply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := g.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var st client.StatsReply
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// mergeStats folds one backend's snapshot into the fleet aggregate,
// taking the rule from StatsReply's own fields: every numeric field sums
// (nested cache/store structs, optional store pointers and the
// kernel-days map included), uptime takes the longest-lived backend (the
// fleet has been up at least that long), and histograms merge
// bucket-wise. A histogram with a malformed bucket layout is dropped and
// reported in the returned error: rendering or evaluating it would index
// past its counts.
func mergeStats(into *client.StatsReply, st client.StatsReply) error {
	uptime := max(into.UptimeSec, st.UptimeSec)
	addNumeric(reflect.ValueOf(into).Elem(), reflect.ValueOf(st))
	into.UptimeSec = uptime
	var dropped []error
	for _, h := range st.Histograms {
		// Every reader indexes Counts by bound: one count per bound plus
		// +Inf is the layout a snapshot off the wire must have.
		if len(h.Counts) != len(h.Bounds)+1 {
			dropped = append(dropped, fmt.Errorf("histogram %s has %d counts for %d bounds", h.Name, len(h.Counts), len(h.Bounds)))
			continue
		}
		// One shared bucket layout across the fleet means per-bucket
		// counts sum exactly: the merged distribution is what one daemon
		// would have recorded had it done all the work.
		into.Histograms = obs.MergeSnapshots(into.Histograms, []obs.HistogramSnapshot{h})
	}
	return errors.Join(dropped...)
}

// addNumeric adds src's numeric leaves into dst, a settable value of the
// same type: through structs and map values, allocating the nil pointers
// and maps src populates. Slices and strings are left alone.
func addNumeric(dst, src reflect.Value) {
	switch {
	case src.CanInt():
		dst.SetInt(dst.Int() + src.Int())
	case src.CanFloat():
		dst.SetFloat(dst.Float() + src.Float())
	case src.Kind() == reflect.Struct:
		for i := 0; i < src.NumField(); i++ {
			addNumeric(dst.Field(i), src.Field(i))
		}
	case src.Kind() == reflect.Pointer && !src.IsNil():
		if dst.IsNil() {
			dst.Set(reflect.New(src.Type().Elem()))
		}
		addNumeric(dst.Elem(), src.Elem())
	case src.Kind() == reflect.Map:
		for it := src.MapRange(); it.Next(); {
			if dst.IsNil() {
				dst.Set(reflect.MakeMap(src.Type()))
			}
			sum := reflect.New(src.Type().Elem()).Elem()
			if cur := dst.MapIndex(it.Key()); cur.IsValid() {
				sum.Set(cur)
			}
			addNumeric(sum, it.Value())
			dst.SetMapIndex(it.Key(), sum)
		}
	}
}

// handleStats serves the fleet-aggregated stats snapshot.
func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, g.collectStats(r.Context()))
}

// handleMetrics renders the aggregate in the per-instance Prometheus
// vocabulary (episimd_*, summed across backends — one scrape target for
// the fleet) followed by the gateway's own episim_gw_* series, its
// proxy-latency histogram, and Go runtime metrics.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := g.collectStats(r.Context())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	writeGatewayMetrics(w, st, g.sloStatuses(), g.proxyHist.Snapshots())
	obs.WriteRuntimeMetrics(w)
}

// writeGatewayMetrics renders everything on the gateway's /metrics but
// the Go runtime block: a pure function of its inputs, so the scrape
// can be pinned by a golden test.
func writeGatewayMetrics(w io.Writer, st StatsReply, slo []obs.SLOStatus, proxy []obs.HistogramSnapshot) {
	server.WriteMetrics(w, st.StatsReply)
	// Fleet-level SLO burn, from the gateway's own ring over the merged
	// stats — the same episim_slo_* vocabulary each daemon exposes.
	obs.WriteSLOProm(w, slo)
	one := func(v float64) obs.Sample { return obs.Sample{Value: v} }
	gw := st.Gateway
	obs.Gauge("episim_gw_uptime_seconds", "Seconds since the gateway started.").Write(w, one(gw.UptimeSec))
	obs.Gauge("episim_gw_backends", "Backends configured.").Write(w, one(float64(gw.BackendsTotal)))
	obs.Gauge("episim_gw_backends_healthy", "Backends currently passing health probes.").Write(w, one(float64(gw.BackendsHealthy)))
	obs.Gauge("episim_gw_fleet_healthy", "1 while at least one backend is healthy; 0 means aggregates are last-known snapshots.").Write(w, one(float64(gw.FleetHealthy)))
	obs.Counter("episim_gw_submissions_total", "Submissions accepted by some backend.").Write(w, one(float64(gw.Submitted)))
	obs.Counter("episim_gw_submissions_rerouted_total", "Submissions that fell past their cache-affine first choice.").Write(w, one(float64(gw.Rerouted)))
	obs.Counter("episim_gw_spilled_total", "Submissions diverted off a healthy-but-saturated owner by the spill bound.").Write(w, one(float64(gw.Spilled)))
	obs.Counter("episim_gw_throttled_total", "429s from gateway admission control, by reason.").Write(w,
		obs.Sample{Labels: []string{"reason", "rate"}, Value: float64(gw.ThrottledRate)},
		obs.Sample{Labels: []string{"reason", "inflight"}, Value: float64(gw.ThrottledInflight)})
	var up, routed, depth []obs.Sample
	for _, bs := range st.Backends {
		s := obs.Sample{Labels: []string{"backend", bs.Name, "url", bs.URL}}
		if bs.Healthy {
			s.Value = 1
		}
		up = append(up, s)
		backend := []string{"backend", bs.Name}
		routed = append(routed, obs.Sample{Labels: backend, Value: float64(bs.Routed)})
		depth = append(depth, obs.Sample{Labels: backend, Value: float64(bs.QueueDepth)})
	}
	obs.Gauge("episim_gw_backend_up", "1 while the backend passes health probes.").Write(w, up...)
	obs.Counter("episim_gw_backend_routed_total", "Submissions this gateway routed to the backend.").Write(w, routed...)
	obs.Gauge("episim_gw_backend_queue_depth", "The gateway's current queue-depth estimate for the backend.").Write(w, depth...)
	obs.WriteHistogramsProm(w, proxy)
}
