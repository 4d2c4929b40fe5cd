package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	episim "repro"
	"repro/client"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// fixtureStats is a fully populated /v1/stats snapshot: every numeric
// leaf is set, and to a value no other leaf shares, so a field wired to
// the wrong series or summed into the wrong slot shows up in a golden
// diff. Histograms use the daemon's five families.
func fixtureStats() client.StatsReply {
	cache := func(base int64) episim.SweepCacheStats {
		return episim.SweepCacheStats{
			Entries: int(base + 1), Bytes: base + 2, Hits: base + 3, Misses: base + 4,
			Evictions: base + 5, Builds: base + 6, DiskHits: base + 7, DiskMisses: base + 8,
			DiskWrites: base + 9, DiskErrors: base + 10,
		}
	}
	store := func(base int64) *episim.SweepStoreStats {
		return &episim.SweepStoreStats{Files: int(base + 1), Bytes: base + 2, GCFiles: base + 3, GCBytes: base + 4}
	}
	hist := func(name, help string, base uint64) obs.HistogramSnapshot {
		s := obs.HistogramSnapshot{Name: name, Help: help, Bounds: obs.DefaultLatencyBuckets()}
		s.Counts = make([]uint64, len(s.Bounds)+1)
		for i := range s.Counts {
			s.Counts[i] = (base + uint64(i)*3) % 7
			s.Count += s.Counts[i]
		}
		s.Sum = float64(base) + 0.125
		return s
	}
	return client.StatsReply{
		UptimeSec:          3723.25,
		QueueDepth:         3,
		ActiveSweeps:       2,
		SweepsTotal:        41,
		SweepsDone:         31,
		SweepsFailed:       5,
		SweepsCanceled:     4,
		SweepsEvicted:      17,
		CellsStreamed:      1234,
		CellsPerSec:        0.331,
		SubmitsTotal:       57,
		SubmitErrors:       6,
		EventsSent:         1500,
		EventsSendErrors:   8,
		TraceDroppedSpans:  9,
		ProfileCaptures:    11,
		KernelDays:         map[string]int64{"dense": 2345678, "active": 4321, "event": 99},
		PopulationCache:    cache(100),
		PlacementCache:     cache(200),
		CheckpointCache:    cache(300),
		CheckpointRestores: 77,
		CheckpointBytes:    123456789,
		PopulationStore:    store(1000),
		PlacementStore:     store(2000),
		ResultStore:        store(3000),
		CheckpointStore:    store(4000),
		Histograms: []obs.HistogramSnapshot{
			hist("episimd_submit_seconds", "Submission handling latency (parse + enqueue).", 1),
			hist("episimd_queue_wait_seconds", "Time sweeps spent queued before execution started.", 2),
			hist("episimd_placement_build_seconds", "Placement partition build time (cache misses only).", 3),
			hist("episimd_cell_seconds", "Per-replicate simulation time.", 4),
			hist("episimd_result_persist_seconds", "Time writing finished job records to the disk store.", 5),
		},
	}
}

// fixtureSLO is a fixed SLO evaluation for the /metrics golden.
func fixtureSLO() []obs.SLOStatus {
	return []obs.SLOStatus{
		{Name: "submit-availability", Objective: 0.99, Windows: []obs.SLOWindow{
			{Window: "5m", ErrorRate: 0.5, BurnRate: 50}, {Window: "1h", ErrorRate: 0.25, BurnRate: 25}}},
		{Name: "queue-wait", Objective: 0.99, Stale: true, Windows: []obs.SLOWindow{
			{Window: "5m"}, {Window: "1h", ErrorRate: 0.01, BurnRate: 1}}},
	}
}

// checkGolden compares got against testdata/name, rewriting the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// normalizeProm rewrites every sample's value in its shortest float
// form, so two scrapes compare equal exactly when they have the same
// HELP/TYPE lines, series, labels and order and every sample parses to
// the same float64.
func normalizeProm(t *testing.T, text string) []byte {
	t.Helper()
	var out strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			i := strings.LastIndexByte(line, ' ')
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				t.Fatalf("unparsable sample %q: %v", line, err)
			}
			line = line[:i+1] + strconv.FormatFloat(v, 'g', -1, 64)
		}
		out.WriteString(line + "\n")
	}
	return []byte(out.String())
}

// TestStatsJSONGolden pins the /v1/stats wire format existing clients
// decode.
func TestStatsJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(fixtureStats()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "stats.golden.json", buf.Bytes())
}

// TestMetricsGolden pins the daemon's /metrics text (runtime block
// aside): every family, its HELP/TYPE, series order and values.
func TestMetricsGolden(t *testing.T) {
	var buf bytes.Buffer
	WriteMetrics(&buf, fixtureStats())
	obs.WriteSLOProm(&buf, fixtureSLO())
	checkGolden(t, "metrics.golden.txt", normalizeProm(t, buf.String()))
}

// TestHistoryPointGolden pins the scalar vocabulary of the metrics
// history ring, which the SLO specs and the ops console read by name.
func TestHistoryPointGolden(t *testing.T) {
	p := StatsHistoryPoint(fixtureStats(), false)
	got, err := json.MarshalIndent(p.Scalars, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "history_scalars.golden.json", append(got, '\n'))
}

// TestSLOInputsAreRecorded: every scalar an SLO spec divides is a key
// StatsHistoryPoint emits, and every latency histogram it reads is one
// the daemon records — a renamed history key or family cannot silently
// zero a burn rate.
func TestSLOInputsAreRecorded(t *testing.T) {
	srv, _ := newTestServer(t, Config{}, instantRunner())
	st := srv.stats()
	scalars := StatsHistoryPoint(st, false).Scalars
	hists := map[string]bool{}
	for _, h := range st.Histograms {
		hists[h.Name] = true
	}
	for _, spec := range SLOSpecs(0) {
		for _, name := range []string{spec.Total, spec.Bad} {
			if _, ok := scalars[name]; name != "" && !ok {
				t.Errorf("SLO %s reads scalar %q, which history points do not carry", spec.Name, name)
			}
		}
		if spec.Histogram != "" && !hists[spec.Histogram] {
			t.Errorf("SLO %s reads histogram %q, which the daemon does not record", spec.Name, spec.Histogram)
		}
		if spec.Total == "" && spec.Histogram == "" {
			t.Errorf("SLO %s reads no input", spec.Name)
		}
	}
}
