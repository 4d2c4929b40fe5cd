package obs

import (
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
)

// DebugHandler serves the opt-in profiling surface behind -pprof-addr:
// the full net/http/pprof suite under /debug/pprof/ plus a plain-text
// runtime metrics page at /debug/runtime. It is a separate handler (and
// in the daemons a separate listener) on purpose — profiling endpoints
// leak internals and can stall the world, so they never share the
// service port.
func DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/runtime", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		WriteRuntimeMetrics(w)
	})
	return mux
}

// ServeDebug starts the profiling listener on addr ("" = disabled,
// returns nil). The returned server is already serving; callers Close it
// on shutdown. Errors binding the port are returned so a daemon with a
// mistyped -pprof-addr fails loudly at boot instead of silently
// profiling nothing.
func ServeDebug(addr string, log *Logger) (*http.Server, error) {
	if addr == "" {
		return nil, nil
	}
	srv := &http.Server{Addr: addr, Handler: DebugHandler()}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	log.Info("pprof listening", "addr", addr)
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Error("pprof server failed", "err", err)
		}
	}()
	return srv, nil
}

// WriteRuntimeMetrics renders process-level gauges in Prometheus text
// format: goroutines, GC activity, heap, and (on Linux) resident set
// size from /proc. Appended to /metrics by both daemons so every scrape
// carries runtime context alongside service counters.
func WriteRuntimeMetrics(w io.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	one := func(v float64) Sample { return Sample{Value: v} }
	Gauge("go_goroutines", "Number of live goroutines.").Write(w, one(float64(runtime.NumGoroutine())))
	Counter("go_gc_cycles_total", "Completed GC cycles.").Write(w, one(float64(ms.NumGC)))
	Counter("go_gc_pause_seconds_total", "Cumulative stop-the-world GC pause.").Write(w, one(float64(ms.PauseTotalNs)/1e9))
	Gauge("go_memstats_heap_alloc_bytes", "Bytes of allocated heap objects.").Write(w, one(float64(ms.HeapAlloc)))
	Gauge("go_memstats_sys_bytes", "Bytes obtained from the OS.").Write(w, one(float64(ms.Sys)))
	if rss, ok := ResidentBytes(); ok {
		Gauge("process_resident_memory_bytes", "Resident set size.").Write(w, one(float64(rss)))
	} else {
		// /proc is absent (non-Linux): publish the Go-heap proxy under a
		// DISTINCT name. HeapSys is not an RSS — impersonating
		// process_resident_memory_bytes would poison cross-platform
		// dashboards, while omitting memory entirely blinds them.
		Gauge("process_memory_goheap_fallback_bytes",
			"Go heap reserved from the OS (HeapSys); RSS fallback where /proc is unavailable.").
			Write(w, one(float64(ms.HeapSys)))
	}
}
