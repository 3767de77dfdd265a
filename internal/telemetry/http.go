package telemetry

// HTTP export: GET /metrics serves the latest sample of every series in
// the Prometheus text exposition format (version 0.0.4); GET /series
// serves the full ring of every series as JSON for ad-hoc dashboards.
// Only the Go standard library is used.
//
// The exposition path is built not to tax the application it observes:
// each series converts its counter name to a metric and labels once,
// when the sampler first sees it, and keeps its place in exposition
// order from then on, so a render walks the series without converting,
// looking up or sorting anything; it reuses a pooled output buffer plus
// append-based number formatting, so a steady-state scrape allocates
// nothing beyond what net/http itself needs.

import (
	"encoding/json"
	"net"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
)

// HandlerOption extends Handler with optional endpoints.
type HandlerOption func(*http.ServeMux)

// WithFlight serves fr's captured ring at GET /flight — JSON by
// default, CSV with ?format=csv — next to /metrics and /series, so an
// operator can pull the around-the-anomaly capture without touching
// the process.
func WithFlight(fr *FlightRecorder) HandlerOption {
	return func(mux *http.ServeMux) {
		mux.HandleFunc("/flight", func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Query().Get("format") == "csv" {
				w.Header().Set("Content-Type", "text/csv; charset=utf-8")
				_ = fr.WriteCSV(w)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_ = fr.WriteJSON(w)
		})
	}
}

// WithJSON serves the value fn returns at GET path as JSON. It is the
// generic escape hatch for structured views that are not time series —
// e.g. an aggregation-tree topology dump. fn runs per request; an error
// maps to 503 so scrapers can tell "momentarily unavailable" from "gone".
func WithJSON(path string, fn func() (any, error)) HandlerOption {
	return func(mux *http.ServeMux) {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			v, err := fn()
			if err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(v)
		})
	}
}

// Handler returns an http.Handler exposing the sampler:
//
//	GET /metrics  Prometheus text format, latest point per series
//	GET /series   JSON: {"series":[{"name":...,"points":[{"t","v","n"}]}]}
//	GET /flight   flight-recorder ring (with WithFlight)
func Handler(s *Sampler, opts ...HandlerOption) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, s)
	})
	mux.HandleFunc("/series", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		_ = enc.Encode(struct {
			Series []Series `json:"series"`
		}{Series: s.Snapshot()})
	})
	for _, o := range opts {
		o(mux)
	}
	return mux
}

// Serve listens on addr and serves h in the background. It returns the
// server, to Close when done, and the address it bound, which differs
// from addr when addr asks for port 0.
func Serve(addr string, h http.Handler) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr(), nil
}

// promMetric is the conversion of one counter name: a sanitized metric
// name and its rendered label set. Values are not part of it — a
// series converts its name once, the value changes per scrape.
type promMetric struct {
	name   string
	labels string
}

// promRow is one series in exposition order.
type promRow struct {
	promMetric
	r *ring
}

// insertRow returns a new slice holding rows and row, the newest
// series, after every row of its metric name: exposition order is
// metric name, then first observation. rows itself is left as it was,
// so a render may walk it without the sampler's lock.
func insertRow(rows []promRow, row promRow) []promRow {
	i := sort.Search(len(rows), func(i int) bool { return rows[i].name > row.name })
	return slices.Insert(slices.Clip(rows), i, row)
}

// outPool holds render buffers, so concurrent scrapes don't contend and
// repeated scrapes don't reallocate.
var outPool = sync.Pool{New: func() any { return new([]byte) }}

// WritePrometheus renders the latest point of every series in the
// Prometheus text format. HPX-style counter names map onto metric
// names and labels:
//
//	/threads{locality#0/worker-thread#3}/time/average
//	  -> taskrt_threads_time_average{locality="0",instance="worker-thread#3"}
//	/statistics{<base>}/percentile@95
//	  -> taskrt_statistics_percentile{base="<base>",params="95"}
//
// Counter names that do not parse are exported whole under
// taskrt_counter{name="..."} rather than dropped.
func WritePrometheus(w interface{ Write([]byte) (int, error) }, s *Sampler) {
	buf := outPool.Get().(*[]byte)
	out := (*buf)[:0]
	s.mu.Lock()
	rows := s.rows
	s.mu.Unlock()
	for i, m := range rows {
		if i == 0 || m.name != rows[i-1].name {
			out = append(out, "# HELP "...)
			out = append(out, m.name...)
			out = append(out, " performance counter "...)
			out = append(out, m.name...)
			out = append(out, "\n# TYPE "...)
			out = append(out, m.name...)
			out = append(out, " gauge\n"...)
		}
		s.mu.Lock()
		p, _ := m.r.last() // Observe never leaves a series empty
		s.mu.Unlock()
		out = append(out, m.name...)
		out = append(out, m.labels...)
		out = append(out, ' ')
		out = strconv.AppendFloat(out, p.Value, 'g', -1, 64)
		out = append(out, '\n')
	}
	_, _ = w.Write(out)
	*buf = out
	outPool.Put(buf)
}

func toPromMetric(counter string) promMetric {
	n, err := core.ParseName(counter)
	if err != nil {
		return promMetric{
			name:   "taskrt_counter",
			labels: `{name="` + escapeLabel(counter) + `"}`,
		}
	}
	name := sanitizeMetricName("taskrt" + n.TypeName())
	var labels []string
	for _, inst := range n.Instances {
		if inst.Name == "locality" && inst.Wildcard {
			// Fleet-folded series span every locality; a wildcard index
			// must not masquerade as locality 0.
			labels = append(labels, `locality="*"`)
			continue
		}
		if inst.Name == "locality" && inst.HasIndex {
			labels = append(labels, `locality="`+strconv.FormatInt(inst.Index, 10)+`"`)
			continue
		}
		labels = append(labels, `instance="`+escapeLabel(inst.String())+`"`)
	}
	if n.BaseCounter != "" {
		labels = append(labels, `base="`+escapeLabel(n.BaseCounter)+`"`)
	}
	if n.Parameters != "" {
		labels = append(labels, `params="`+escapeLabel(n.Parameters)+`"`)
	}
	ls := ""
	if len(labels) > 0 {
		ls = "{" + strings.Join(labels, ",") + "}"
	}
	return promMetric{name: name, labels: ls}
}

// sanitizeMetricName maps a counter type path onto the Prometheus
// metric-name alphabet [a-zA-Z0-9_:], collapsing runs of other
// characters into single underscores.
func sanitizeMetricName(s string) string {
	var b strings.Builder
	lastUnderscore := false
	for _, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && b.Len() > 0)
		if !ok {
			if !lastUnderscore && b.Len() > 0 {
				b.WriteByte('_')
				lastUnderscore = true
			}
			continue
		}
		b.WriteRune(r)
		lastUnderscore = r == '_'
	}
	return strings.TrimSuffix(b.String(), "_")
}

// escapeLabel escapes a Prometheus label value (backslash, quote,
// newline).
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
