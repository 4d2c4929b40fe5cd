package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/obs"
	"repro/internal/server"
)

// statsLeaf is one numeric leaf of a StatsReply: its path, its current
// value, and a setter that works for map entries too.
type statsLeaf struct {
	path string
	v    reflect.Value
	set  func(reflect.Value)
}

func (l statsLeaf) value() float64 {
	switch {
	case l.v.CanInt():
		return float64(l.v.Int())
	case l.v.CanUint():
		return float64(l.v.Uint())
	}
	return l.v.Float()
}

// bump raises the leaf by 1000 (1000.5 for floats).
func (l statsLeaf) bump() {
	nv := reflect.New(l.v.Type()).Elem()
	switch {
	case l.v.CanInt():
		nv.SetInt(l.v.Int() + 1000)
	case l.v.CanUint():
		nv.SetUint(l.v.Uint() + 1000)
	default:
		nv.SetFloat(l.v.Float() + 1000.5)
	}
	l.set(nv)
}

// statsLeaves walks every numeric leaf of st in field order: nested
// structs, non-nil pointers, map entries (sorted by key) and histogram
// sums, counts and bucket counts (addressed by family name, since the
// fleet merge reorders families). Bucket bounds are layout, not values.
func statsLeaves(st *client.StatsReply) []statsLeaf {
	var leaves []statsLeaf
	var walk func(path string, v reflect.Value, set func(reflect.Value))
	walk = func(path string, v reflect.Value, set func(reflect.Value)) {
		switch v.Kind() {
		case reflect.Int, reflect.Int64, reflect.Uint64, reflect.Float64:
			leaves = append(leaves, statsLeaf{path, v, set})
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if name := v.Type().Field(i).Name; name != "Bounds" {
					walk(path+"."+name, v.Field(i), v.Field(i).Set)
				}
			}
		case reflect.Pointer:
			if !v.IsNil() {
				walk(path, v.Elem(), v.Elem().Set)
			}
		case reflect.Map:
			keys := v.MapKeys()
			sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
			for _, k := range keys {
				walk(fmt.Sprintf("%s[%s]", path, k), v.MapIndex(k), func(nv reflect.Value) { v.SetMapIndex(k, nv) })
			}
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				e := v.Index(i)
				key := fmt.Sprint(i)
				if e.Kind() == reflect.Struct {
					key = e.FieldByName("Name").String()
				}
				walk(fmt.Sprintf("%s[%s]", path, key), e, e.Set)
			}
		}
	}
	walk("", reflect.ValueOf(st).Elem(), nil)
	return leaves
}

func leafValues(st *client.StatsReply) map[string]float64 {
	out := map[string]float64{}
	for _, l := range statsLeaves(st) {
		out[l.path] = l.value()
	}
	return out
}

// TestStatsFixtureFullyPopulated: the daemon fixture (and so every
// golden built from it) sets each scalar leaf, so a StatsReply field
// added without its fixture value fails here.
func TestStatsFixtureFullyPopulated(t *testing.T) {
	fx := daemonFixture(t)
	for _, l := range statsLeaves(&fx) {
		if l.value() == 0 && !strings.Contains(l.path, ".Counts[") {
			t.Errorf("fixture leaf %s is zero", l.path)
		}
	}
}

// TestEveryStatsLeafIsExposedAndMerged perturbs each numeric leaf of
// the fixture in turn. Each must move at least one /metrics sample, and
// the fleet merge must sum it (uptime takes the max). This is what makes
// a new StatsReply field without a metrics row fail.
func TestEveryStatsLeafIsExposedAndMerged(t *testing.T) {
	// The population store is never GC'd, so its GC fields have no
	// series.
	unexposed := map[string]bool{".PopulationStore.GCFiles": true, ".PopulationStore.GCBytes": true}
	render := func(st client.StatsReply) string {
		var b strings.Builder
		server.WriteMetrics(&b, st)
		return b.String()
	}
	base := daemonFixture(t)
	baseText := render(base)
	baseVals := leafValues(&base)
	n := len(statsLeaves(&base))
	if n < 100 {
		t.Fatalf("walked only %d leaves", n)
	}
	for i := 0; i < n; i++ {
		pert := daemonFixture(t)
		leaf := statsLeaves(&pert)[i]
		leaf.bump()
		if changed := render(pert) != baseText; changed == unexposed[leaf.path] {
			t.Errorf("%s: /metrics changed = %v, want %v", leaf.path, changed, !changed)
		}
		var fleet client.StatsReply
		if err := mergeStats(&fleet, base); err != nil {
			t.Fatal(err)
		}
		if err := mergeStats(&fleet, pert); err != nil {
			t.Fatal(err)
		}
		pertVals, got := leafValues(&pert), leafValues(&fleet)
		for path, b := range baseVals {
			want := b + pertVals[path]
			if path == ".UptimeSec" {
				want = max(b, pertVals[path])
			}
			if got[path] != want {
				t.Errorf("perturbing %s: merged %s = %v, want %v", leaf.path, path, got[path], want)
			}
		}
	}
}

// malformedStats is a backend /v1/stats body whose histogram has fewer
// counts than buckets: rendering or evaluating it indexes past its
// counts ("index out of range [1] with length 1"), and the SLO
// evaluation runs on the gateway's history goroutine, which has no
// recover.
const malformedStats = `{"submits_total":3,"histograms":[` +
	`{"name":"episimd_queue_wait_seconds","bounds":[1,2],"counts":[5],"sum":1,"count":5}]}`

// TestMalformedBackendHistogramDropped: the gateway drops a malformed
// backend histogram at the merge, notes it in that backend's stats
// error, and keeps the rest of the snapshot.
func TestMalformedBackendHistogramDropped(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, client.HealthReply{Status: "ok", Instance: "bad-0"})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, malformedStats)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	gw, err := New(Config{Backends: []string{ts.URL}, ProbeInterval: time.Hour, HistoryInterval: time.Hour,
		Logger: obs.NewLogger(io.Discard, "text", obs.LevelInfo, "episim-gw")})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	st := gw.collectStats(context.Background())
	if len(st.Histograms) != 0 {
		t.Fatalf("malformed histogram reached the aggregate: %+v", st.Histograms)
	}
	if st.SubmitsTotal != 3 {
		t.Fatalf("fleet submits_total = %d, want 3", st.SubmitsTotal)
	}
	if e := st.Backends[0].StatsError; !strings.Contains(e, "episimd_queue_wait_seconds") {
		t.Fatalf("backend stats error = %q, want the dropped histogram named", e)
	}
	writeGatewayMetrics(io.Discard, st, nil, nil)
	gw.history.Append(server.StatsHistoryPoint(st.StatsReply, false))
	gw.history.Append(server.StatsHistoryPoint(st.StatsReply, false))
	obs.EvalSLOs(gw.history, gw.sloSpecs)
}

// FuzzFleetStats feeds arbitrary bytes through the gateway's stats path
// as a backend's /v1/stats body: decode, merge (twice), render, reduce
// to history points and evaluate the SLOs. None of it may panic.
func FuzzFleetStats(f *testing.F) {
	golden, err := json.Marshal(daemonFixture(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(malformedStats))
	f.Add([]byte(`{}`))
	specs := server.SLOSpecs(0)
	f.Fuzz(func(t *testing.T, body []byte) {
		var st client.StatsReply
		if json.NewDecoder(bytes.NewReader(body)).Decode(&st) != nil {
			return
		}
		var fleet client.StatsReply
		mergeStats(&fleet, st)
		mergeStats(&fleet, st)
		server.WriteMetrics(io.Discard, fleet)
		ring := obs.NewHistory(4, time.Second, nil)
		p := server.StatsHistoryPoint(fleet, false)
		ring.Append(p)
		p.Time = p.Time.Add(time.Second)
		ring.Append(p)
		obs.WriteSLOProm(io.Discard, obs.EvalSLOs(ring, specs))
	})
}
