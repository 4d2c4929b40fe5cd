package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	episim "repro"
	"repro/client"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
)

// service is an in-process episimd (two worker slots, its own cache
// directory) behind an in-process episim-gw with one backend, both on
// loopback.
type service struct {
	srv        *server.Server
	gw         *cluster.Gateway
	servers    []*http.Server
	served     []chan struct{}
	url, gwURL string
	closed     bool
}

// serve starts an HTTP server for h on a loopback port.
func (s *service) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	s.servers = append(s.servers, hs)
	s.served = append(s.served, done)
	return "http://" + ln.Addr().String(), nil
}

func startService(dir string) (*service, error) {
	quiet := func(name string) *obs.Logger { return obs.NewLogger(io.Discard, "text", obs.LevelInfo, name) }
	s := &service{}
	var err error
	s.srv, err = server.New(server.Config{Workers: 2, CacheDir: dir, Retain: 32, Name: "node-0", Logger: quiet("episimd")})
	if err != nil {
		return nil, err
	}
	if s.url, err = s.serve(s.srv.Handler()); err != nil {
		s.close()
		return nil, err
	}
	s.gw, err = cluster.New(cluster.Config{Backends: []string{s.url}, Logger: quiet("episim-gw")})
	if err != nil {
		s.close()
		return nil, err
	}
	if s.gwURL, err = s.serve(s.gw.Handler()); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the gateway and the daemon and waits for their HTTP
// servers to exit. It may be called again.
func (s *service) close() {
	if s.closed {
		return
	}
	s.closed = true
	for i := len(s.servers) - 1; i >= 0; i-- {
		s.servers[i].Close()
		<-s.served[i]
	}
	if s.gw != nil {
		s.gw.Close()
	}
	s.srv.Close()
}

// throttleCounter counts HTTP 429 replies seen by the client.
type throttleCounter struct {
	base      http.RoundTripper
	throttled atomic.Int64
}

func (t *throttleCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if err == nil && resp.StatusCode == http.StatusTooManyRequests {
		t.throttled.Add(1)
	}
	return resp, err
}

// svcSample is one timed service sweep, with the client-side layer
// boundaries.
type svcSample struct {
	id                          string
	start, submitted, fetchFrom time.Time
	firstCell, terminal, end    time.Time
	events                      int
	resultBytes                 int
}

func (s svcSample) wall() float64 { return s.end.Sub(s.start).Seconds() }

// svcClient drives sweeps through the gateway, one at a time.
type svcClient struct {
	c     *client.Client
	hc    *http.Client
	rt    *throttleCounter
	gwURL string
	spec  *episim.SweepSpec
	cells int
	ref   []byte // the direct in-process result's canonical bytes
}

func newSvcClient(gwURL string, spec *episim.SweepSpec, ref []byte) *svcClient {
	rt := &throttleCounter{base: &http.Transport{MaxIdleConnsPerHost: 4}}
	sc := &svcClient{hc: &http.Client{Transport: rt}, rt: rt, gwURL: gwURL, spec: spec, ref: ref}
	sc.c = client.New(gwURL)
	sc.c.HTTPClient = sc.hc
	s := *spec
	s.Normalize()
	sc.cells = len(s.Cells())
	return sc
}

// sweep submits the spec, reads its event stream to the terminal event
// and fetches the result bytes, checking that they equal the direct
// run's, that every cell streamed and none failed, and that no request
// was throttled.
func (sc *svcClient) sweep(o *outcome) (svcSample, bool) {
	ctx := context.Background()
	throttled := sc.rt.throttled.Load()
	s := svcSample{start: time.Now()}
	err := func() error {
		ack, err := sc.c.Submit(ctx, sc.spec)
		s.submitted = time.Now()
		if err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		s.id = ack.ID
		cells, kind := 0, ""
		err = sc.c.Stream(ctx, ack.ID, 0, func(ev client.Event) error {
			now := time.Now()
			s.events++
			if ev.Type != "cell" {
				kind, s.terminal = ev.Type, now
				return nil
			}
			if cells == 0 {
				s.firstCell = now
			}
			cells++
			if ev.Cell == nil || ev.Cell.Error != "" {
				return errors.New("a cell failed")
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("stream: %w", err)
		}
		if kind != "done" || cells != sc.cells {
			return fmt.Errorf("stream ended %q after %d of %d cells", kind, cells, sc.cells)
		}
		s.fetchFrom = time.Now()
		body, err := sc.result(ack.ID)
		s.end = time.Now()
		if err != nil {
			return err
		}
		s.resultBytes = len(body)
		if !bytes.Equal(body, sc.ref) {
			return errors.New("result bytes differ from the direct in-process run")
		}
		return nil
	}()
	if err == nil && sc.rt.throttled.Load() != throttled {
		err = errors.New("throttled (HTTP 429)")
	}
	o.check(err == nil, "service sweep: %v", err)
	return s, err == nil
}

// result fetches a finished sweep's canonical result bytes.
func (sc *svcClient) result(id string) ([]byte, error) {
	resp, err := sc.hc.Get(sc.gwURL + "/v1/sweeps/" + id + "/result")
	if err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	if err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	return body, nil
}

// runSvcFork times the interactive what-if path: submit → SSE stream →
// result through the gateway, one sweep in flight at a time, every
// sweep's twelve cells restored from warm checkpoints.
func runSvcFork(cfg config) (*outcome, error) {
	o := &outcome{}
	spec := svcForkSpec(cfg.seed)
	direct, err := episim.RunSweepContext(context.Background(), spec, &episim.SweepOptions{Cache: episim.NewSweepCache(0)})
	if err != nil {
		return nil, fmt.Errorf("direct run: %w", err)
	}
	ref := canonical(direct)

	var svc *service
	var sc *svcClient
	var dir string
	setup, err := medianSetup(setupRuns, func() (func(), error) {
		d, err := os.MkdirTemp(cfg.work, "svc-")
		if err != nil {
			return nil, err
		}
		s, err := startService(d)
		if err != nil {
			return nil, err
		}
		c := newSvcClient(s.gwURL, spec, ref)
		c.sweep(o) // untimed warm-up: builds the placement and checkpoints
		svc, sc, dir = s, c, d
		return func() {
			c.hc.CloseIdleConnections()
			s.close()
			os.RemoveAll(d)
		}, nil
	})
	if err != nil {
		return nil, err
	}
	defer svc.close()
	defer sc.hc.CloseIdleConnections()
	persons, err := populationPersons(dir, spec)
	if err != nil {
		return nil, err
	}
	personDays := nominalPersonDays(spec, persons)

	var samples []svcSample
	timed := func(each func(svcSample)) func() {
		return func() {
			if s, ok := sc.sweep(o); ok {
				samples = append(samples, s)
				if each != nil {
					each(s)
				}
			}
		}
	}
	walls := func() (w, first []float64) {
		for _, s := range samples {
			w = append(w, s.wall())
			first = append(first, s.firstCell.Sub(s.start).Seconds())
		}
		return w, first
	}
	const minSweeps = 100 // at least ten samples beyond the 90th percentile

	if !cfg.trace {
		sampler := obs.StartResourceSampler(0)
		loop(cfg.seconds, minSweeps, timed(nil))
		peak := sampler.Stop()
		w, first := walls()
		endToEnd(o, setup, w, first, personDays, peak)
		return o, nil
	}

	gcCPU0, gcCycles0 := gcCounters()
	loop(cfg.seconds, minSweeps, timed(nil))
	gcCPU1, gcCycles1 := gcCounters()
	n := float64(len(samples))
	o.setLayer("runtime.gc_cpu_s_per_sweep", (gcCPU1-gcCPU0)/n)
	o.setLayer("runtime.gc_cycles_per_sweep", (gcCycles1-gcCycles0)/n)
	w, _ := walls()
	untracedP50 := quantile(w, 0.5)

	tr := &tracer{}
	samples = nil
	backend := client.New(svc.url)
	stats0, err := backend.Stats(context.Background())
	if err != nil {
		return nil, err
	}
	dir0 := dirBytes(dir)
	var queue, run, persist, overhead, submit, tail, fetch, unaccounted []float64
	var rollups []map[string]float64
	var gatewayID, backendID string // the last traced sweep, as each side names it
	const keptSweeps = 100          // sweeps whose spans are written out
	traced := 0
	loop(cfg.seconds, minSweeps, timed(func(s svcSample) {
		// Off the clock: read the job's server-side trace.
		t, err := sc.c.Trace(context.Background(), s.id)
		if !o.checkErr(err, "trace %s", s.id) {
			return
		}
		gatewayID, backendID = s.id, t.ID
		spans := map[string]obs.Span{}
		for _, sp := range t.Spans {
			spans[sp.Name] = sp
		}
		if traced < keptSweeps {
			traced++
			root := tr.add(0, 0, t.TraceID, "sweep", s.start, s.end)
			tr.add(0, root, t.TraceID, "client.submit", s.start, s.submitted)
			tr.add(0, root, t.TraceID, "client.stream", s.submitted, s.terminal)
			tr.add(0, root, t.TraceID, "client.result_fetch", s.fetchFrom, s.end)
			tr.adopt(root, t.TraceID, "server", t.Spans)
		}
		q, r := spans["queue_wait"], spans["run"]
		queue = append(queue, q.Seconds)
		run = append(run, r.Seconds)
		persist = append(persist, spans["result_persist"].Seconds)
		overhead = append(overhead, s.wall()-r.Seconds)
		submit = append(submit, s.submitted.Sub(s.start).Seconds())
		tail = append(tail, s.terminal.Sub(r.End).Seconds())
		fetch = append(fetch, s.end.Sub(s.fetchFrom).Seconds())
		// The five layers overlap (the run starts before the submit
		// reply is back), so the wall time they leave uncovered is
		// measured on their union.
		layers := [][2]time.Time{{s.start, s.submitted}, {q.Start, q.End}, {r.Start, r.End},
			{r.End, s.terminal}, {s.fetchFrom, s.end}}
		unaccounted = append(unaccounted, 1-covered(s.start, s.end, layers)/s.wall())
		rollups = append(rollups, rollup(t.Spans))
	}))
	if len(samples) == 0 {
		return nil, errors.New("no traced sweep succeeded")
	}
	n = float64(len(samples))
	w, _ = walls()
	stats1, err := backend.Stats(context.Background())
	if err != nil {
		return nil, err
	}
	o.setLayer("server.queue_wait_s", quantile(queue, 0.5))
	o.setLayer("server.run_s", quantile(run, 0.5))
	o.setLayer("server.result_persist_s", quantile(persist, 0.5))
	o.setLayer("server.overhead_s", quantile(overhead, 0.5))
	o.setLayer("client.submit_s", quantile(submit, 0.5))
	o.setLayer("client.stream_tail_s", quantile(tail, 0.5))
	o.setLayer("client.result_fetch_s", quantile(fetch, 0.5))
	o.setLayer("client.unaccounted_ratio", quantile(unaccounted, 0.5))
	o.setLayer("client.result_bytes", float64(samples[0].resultBytes))
	o.setLayer("client.events_per_sweep", float64(samples[0].events))
	o.setLayer("obs.trace_overhead_ratio", quantile(w, 0.5)/untracedP50)
	reportEnsemble(o, rollups, run)

	s := *spec
	s.Normalize()
	hits := float64(stats1.PlacementCache.Hits - stats0.PlacementCache.Hits)
	misses := float64(stats1.PlacementCache.Misses - stats0.PlacementCache.Misses)
	builds := float64(stats1.CheckpointCache.Builds - stats0.CheckpointCache.Builds)
	restores := float64(stats1.CheckpointRestores - stats0.CheckpointRestores)
	simulated := builds*float64(s.ForkDay) + restores*float64(s.Days-s.ForkDay)
	o.setLayer("ensemble.placement_hit_ratio", hits/(hits+misses))
	o.setLayer("ensemble.checkpoint_builds", builds/n)
	o.setLayer("ensemble.simulated_day_ratio", simulated/(n*float64(s.Days*s.Replicates*len(s.Cells()))))
	o.setLayer("artifact.bytes_written", float64(dirBytes(dir)-dir0)/n)

	// The gateway's proxy cost: the same status read through the
	// gateway and straight from the daemon, alternating.
	var viaGW, viaDirect []float64
	for range 100 {
		start := time.Now()
		_, err1 := sc.c.Status(context.Background(), gatewayID)
		mid := time.Now()
		_, err2 := backend.Status(context.Background(), backendID)
		end := time.Now()
		if !o.checkErr(errors.Join(err1, err2), "status") {
			break
		}
		viaGW = append(viaGW, mid.Sub(start).Seconds())
		viaDirect = append(viaDirect, end.Sub(mid).Seconds())
	}
	o.setLayer("cluster.proxy_overhead_s", quantile(viaGW, 0.5)-quantile(viaDirect, 0.5))

	svc.close()
	if err := walkLayers(o, tr, spec, direct, dir); err != nil {
		return nil, err
	}
	o.fillLayers()
	return o, tr.write(filepath.Join(cfg.traceDir, fmt.Sprintf("svc-fork-seed%d.json", cfg.seed)))
}
