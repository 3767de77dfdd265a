package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func TestSamplerRingEviction(t *testing.T) {
	s := NewSampler(3)
	base := time.Unix(100, 0)
	for i := 0; i < 5; i++ {
		s.Observe("c", Point{Time: base.Add(time.Duration(i) * time.Second), Value: float64(i)})
	}
	snap := s.Snapshot()
	if len(snap) != 1 || snap[0].Name != "c" {
		t.Fatalf("snapshot = %+v", snap)
	}
	pts := snap[0].Points
	if len(pts) != 3 {
		t.Fatalf("points = %d want 3 (capacity)", len(pts))
	}
	// Oldest first, oldest two evicted.
	for i, p := range pts {
		if p.Value != float64(i+2) {
			t.Fatalf("point %d = %v, want %v", i, p.Value, i+2)
		}
	}
	latest := s.Latest()
	if len(latest) != 1 || len(latest[0].Points) != 1 || latest[0].Points[0].Value != 4 {
		t.Fatalf("latest = %+v", latest)
	}
}

func TestSamplerObserveValueSkipsInvalid(t *testing.T) {
	s := NewSampler(0)
	s.ObserveValue(core.Value{Name: "a", Raw: 1, Status: core.StatusInvalidData})
	s.ObserveValue(core.Value{Name: "a", Raw: 7, Time: time.Unix(1, 0), Status: core.StatusValid})
	snap := s.Snapshot()
	if len(snap) != 1 || len(snap[0].Points) != 1 || snap[0].Points[0].Value != 7 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func newTestRegistry(t *testing.T) *core.Registry {
	t.Helper()
	r := core.NewRegistry()
	name, err := core.ParseName("/threads{locality#0/total}/count/cumulative")
	if err != nil {
		t.Fatal(err)
	}
	c := core.NewRawCounter(name, core.Info{Unit: core.UnitEvents})
	r.MustRegister(c)
	c.Set(42)
	if _, err := r.AddActive(name.String()); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCollectorWithRegistrySource(t *testing.T) {
	reg := newTestRegistry(t)
	s := NewSampler(8)
	c := NewCollector(s, RegistrySource(reg, false), 10*time.Millisecond)
	c.Start()
	defer c.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for {
		snap := s.Snapshot()
		if len(snap) == 1 && len(snap[0].Points) >= 2 {
			if snap[0].Points[0].Value != 42 {
				t.Fatalf("sampled value = %v", snap[0].Points[0].Value)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("collector produced no samples: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.Stop()
	c.Stop() // idempotent
}

func TestPrometheusExport(t *testing.T) {
	s := NewSampler(4)
	now := time.Unix(1, 0)
	s.Observe("/threads{locality#0/total}/count/cumulative", Point{Time: now, Value: 42})
	s.Observe("/threads{locality#0/worker-thread#3}/time/average", Point{Time: now, Value: 1500.5})
	s.Observe("/statistics{/threads{locality#0/total}/time/average}/percentile@95", Point{Time: now, Value: 2000})
	s.Observe("not a counter name", Point{Time: now, Value: 1})

	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 64<<10)
	for {
		n, err := res.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	body := sb.String()
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE taskrt_threads_count_cumulative gauge",
		`taskrt_threads_count_cumulative{locality="0",instance="total"} 42`,
		`taskrt_threads_time_average{locality="0",instance="worker-thread#3"} 1500.5`,
		`taskrt_statistics_percentile{base="/threads{locality#0/total}/time/average\",params=\"95"`,
		`taskrt_counter{name="not a counter name"} 1`,
	} {
		// The percentile line's params come from the parsed name; check
		// the pieces separately below instead of a brittle whole-line
		// match.
		if strings.Contains(want, "percentile") {
			continue
		}
		if !strings.Contains(body, want) {
			t.Fatalf("missing %q in:\n%s", want, body)
		}
	}
	if !strings.Contains(body, "taskrt_statistics_percentile{") ||
		!strings.Contains(body, `params="95"`) {
		t.Fatalf("percentile metric malformed:\n%s", body)
	}
	// Every non-comment line is name{labels} value, value after the
	// last space (label values may themselves contain spaces).
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			t.Fatalf("non-numeric value in line %q: %v", line, err)
		}
	}
}

// TestPrometheusOrderAcrossScrapes adds series between scrapes — a
// metric name that sorts into the middle, a second instance of a name
// already exported, a name that sorts first — and, at the end, while
// scraping. It checks each render byte for byte against one that
// converts and sorts from scratch.
func TestPrometheusOrderAcrossScrapes(t *testing.T) {
	s := NewSampler(4)
	now := time.Unix(1, 0)
	v := 0.0
	for i, names := range [][]string{
		{"/threads{locality#0/total}/count/cumulative", "/threads{locality#0/total}/time/overall", "not a counter name"},
		{"/threads{locality#0/total}/idle-rate"},
		{"/threads{locality#0/worker-thread#1}/count/cumulative"},
		{},
		{"/agas{locality#0/total}/count/route", "/threads{locality#0/total}/count/cumulative"},
		{"/threads{locality#0/worker-thread#0}/count/cumulative", "/threads{locality#0/total}/time/overall"},
	} {
		for _, name := range names {
			v += 1.5
			s.Observe(name, Point{Time: now, Value: v})
		}
		var got captureWriter
		WritePrometheus(&got, s)
		if want := referenceRender(s); string(got.buf) != want {
			t.Fatalf("scrape %d:\n%s\nwant (sorted from scratch):\n%s", i, got.buf, want)
		}
	}
	// Scrapes racing new series, for -race.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for w := 0; w < 200; w++ {
			s.Observe(fmt.Sprintf("/threads{locality#0/worker-thread#%d}/time/average", w), Point{Time: now, Value: float64(w)})
		}
	}()
	for i := 0; i < 50; i++ {
		WritePrometheus(io.Discard, s)
	}
	<-done
	var got captureWriter
	WritePrometheus(&got, s)
	if want := referenceRender(s); string(got.buf) != want {
		t.Fatalf("after concurrent adds:\n%s\nwant (sorted from scratch):\n%s", got.buf, want)
	}
}

// referenceRender renders the latest point of every series, converted
// and sorted from scratch: by metric name, then first observation.
func referenceRender(s *Sampler) string {
	type row struct {
		name, labels string
		v            float64
	}
	var rows []row
	for _, sr := range s.Latest() {
		m := toPromMetric(sr.Name)
		rows = append(rows, row{m.name, m.labels, sr.Points[0].Value})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	var b strings.Builder
	for i, r := range rows {
		if i == 0 || r.name != rows[i-1].name {
			fmt.Fprintf(&b, "# HELP %s performance counter %[1]s\n# TYPE %[1]s gauge\n", r.name)
		}
		fmt.Fprintf(&b, "%s%s %s\n", r.name, r.labels, strconv.FormatFloat(r.v, 'g', -1, 64))
	}
	return b.String()
}

// BenchmarkWritePrometheus times one /metrics render of 128 /threads
// series: four counter types on each of 32 workers.
func BenchmarkWritePrometheus(b *testing.B) {
	s := NewSampler(16)
	now := time.Now()
	for w := 0; w < 32; w++ {
		for _, c := range []string{"count/cumulative", "time/average", "time/overall", "idle-rate"} {
			s.Observe(fmt.Sprintf("/threads{locality#0/worker-thread#%d}/%s", w, c), Point{Time: now, Value: float64(w)})
		}
	}
	var out captureWriter
	WritePrometheus(&out, s)
	b.SetBytes(int64(len(out.buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		WritePrometheus(io.Discard, s)
	}
}

func TestSeriesJSON(t *testing.T) {
	s := NewSampler(4)
	s.Observe("/runtime{locality#0/total}/uptime", Point{Time: time.Unix(5, 0), Value: 9})
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "/series")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var got struct {
		Series []Series `json:"series"`
	}
	if err := json.NewDecoder(res.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Series) != 1 || got.Series[0].Name != "/runtime{locality#0/total}/uptime" {
		t.Fatalf("series = %+v", got.Series)
	}
	if pts := got.Series[0].Points; len(pts) != 1 || pts[0].Value != 9 {
		t.Fatalf("points = %+v", got.Series[0].Points)
	}
}

func TestSanitizeMetricName(t *testing.T) {
	for in, want := range map[string]string{
		"taskrt/threads/time/average": "taskrt_threads_time_average",
		"taskrt/idle-rate":            "taskrt_idle_rate",
		"taskrt//x":                   "taskrt_x",
	} {
		if got := sanitizeMetricName(in); got != want {
			t.Fatalf("sanitize(%q) = %q want %q", in, got, want)
		}
	}
}
