package obs

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestResidentBytesOnProc(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("/proc only on linux")
	}
	rss, ok := ResidentBytes()
	if !ok {
		t.Fatal("ResidentBytes not ok on linux")
	}
	if rss <= 0 {
		t.Fatalf("rss = %d, want > 0", rss)
	}
}

func TestMemoryUsageFallsBackToGoHeap(t *testing.T) {
	orig := readResidentBytes
	readResidentBytes = func() (int64, bool) { return 0, false }
	defer func() { readResidentBytes = orig }()

	bytes, source := MemoryUsage()
	if source != MemSourceGoHeap {
		t.Fatalf("source = %q, want %q", source, MemSourceGoHeap)
	}
	if bytes <= 0 {
		t.Fatalf("fallback bytes = %d, want > 0", bytes)
	}
}

func TestResourceSamplerPeak(t *testing.T) {
	s := StartResourceSampler(time.Millisecond)
	// Allocate something visible so the peak is not degenerate.
	buf := make([]byte, 8<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	time.Sleep(10 * time.Millisecond)
	peak := s.Stop()
	runtime.KeepAlive(buf)
	if peak.PeakBytes <= 0 {
		t.Fatalf("peak = %d, want > 0", peak.PeakBytes)
	}
	if peak.Samples < 2 {
		t.Fatalf("samples = %d, want >= 2 (start + stop)", peak.Samples)
	}
	if peak.Source != MemSourceProc && peak.Source != MemSourceGoHeap {
		t.Fatalf("unknown source %q", peak.Source)
	}
}

// The fallback metric must appear under its own name, never as
// process_resident_memory_bytes, when /proc is unavailable.
func TestRuntimeMetricsFallbackName(t *testing.T) {
	orig := readResidentBytes
	readResidentBytes = func() (int64, bool) { return 0, false }
	defer func() { readResidentBytes = orig }()

	var sb strings.Builder
	WriteRuntimeMetrics(&sb)
	out := sb.String()
	if strings.Contains(out, "process_resident_memory_bytes") {
		t.Fatal("fallback impersonates process_resident_memory_bytes")
	}
	if !strings.Contains(out, "process_memory_goheap_fallback_bytes") {
		t.Fatalf("fallback metric missing:\n%s", out)
	}

	readResidentBytes = orig
	if runtime.GOOS == "linux" {
		sb.Reset()
		WriteRuntimeMetrics(&sb)
		if !strings.Contains(sb.String(), "process_resident_memory_bytes") {
			t.Fatal("real RSS metric missing on linux")
		}
	}
}

// TestRuntimeMetricsShape pins the runtime block's HELP/TYPE lines and
// series names (the values are live, so only the shape is golden).
func TestRuntimeMetricsShape(t *testing.T) {
	orig := readResidentBytes
	readResidentBytes = func() (int64, bool) { return 4096, true }
	defer func() { readResidentBytes = orig }()

	var sb strings.Builder
	WriteRuntimeMetrics(&sb)
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.IndexByte(line, ' ')]
		}
		got = append(got, line)
	}
	want := []string{
		"# HELP go_goroutines Number of live goroutines.",
		"# TYPE go_goroutines gauge",
		"go_goroutines",
		"# HELP go_gc_cycles_total Completed GC cycles.",
		"# TYPE go_gc_cycles_total counter",
		"go_gc_cycles_total",
		"# HELP go_gc_pause_seconds_total Cumulative stop-the-world GC pause.",
		"# TYPE go_gc_pause_seconds_total counter",
		"go_gc_pause_seconds_total",
		"# HELP go_memstats_heap_alloc_bytes Bytes of allocated heap objects.",
		"# TYPE go_memstats_heap_alloc_bytes gauge",
		"go_memstats_heap_alloc_bytes",
		"# HELP go_memstats_sys_bytes Bytes obtained from the OS.",
		"# TYPE go_memstats_sys_bytes gauge",
		"go_memstats_sys_bytes",
		"# HELP process_resident_memory_bytes Resident set size.",
		"# TYPE process_resident_memory_bytes gauge",
		"process_resident_memory_bytes",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("runtime block shape drifted:\ngot:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
