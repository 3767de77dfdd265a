package perfcli

import (
	"encoding/csv"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func newRegistry(t *testing.T) (*core.Registry, *core.RawCounter) {
	t.Helper()
	reg := core.NewRegistry()
	c := core.NewRawCounter(
		core.Name{Object: "threads", Counter: "count/cumulative"}.
			WithInstances(core.LocalityInstance(0, "total", -1)...),
		core.Info{TypeName: "/threads/count/cumulative", HelpText: "tasks executed", Unit: core.UnitEvents})
	reg.MustRegister(c)
	return reg, c
}

func TestBindFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o := Bind(fs)
	err := fs.Parse([]string{
		"-print-counter", "/threads{locality#0/total}/count/cumulative",
		"-print-counter", "/threads/count/*",
		"-print-counter-interval", "50ms",
		"-print-counter-destination", "out.csv",
		"-print-counter-reset",
	})
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(o.Counters) != 2 || o.Interval != 50*time.Millisecond ||
		o.Destination != "out.csv" || !o.Reset {
		t.Fatalf("options = %+v", o)
	}
	if o.Counters.String() == "" {
		t.Fatal("counterList String empty")
	}
	if err := o.Counters.Set(""); err == nil {
		t.Fatal("empty counter accepted")
	}
}

func TestListCounters(t *testing.T) {
	reg, _ := newRegistry(t)
	var sb strings.Builder
	ListTo(&sb, reg)
	out := sb.String()
	if !strings.Contains(out, "/threads/count/cumulative") ||
		!strings.Contains(out, "tasks executed") {
		t.Fatalf("listing = %q", out)
	}
}

func TestStartListMode(t *testing.T) {
	reg, _ := newRegistry(t)
	o := &Options{ListCounters: true}
	s, err := o.Start(reg)
	if err != nil || s != nil {
		t.Fatalf("list mode: %v, %v", s, err)
	}
}

func TestStartNoCounters(t *testing.T) {
	reg, _ := newRegistry(t)
	s, err := (&Options{}).Start(reg)
	if err != nil || s != nil {
		t.Fatalf("no counters: %v, %v", s, err)
	}
}

func TestCSVOutputToFile(t *testing.T) {
	reg, c := newRegistry(t)
	dest := filepath.Join(t.TempDir(), "counters.csv")
	o := &Options{
		Counters:    counterList{"/threads{locality#0/total}/count/cumulative"},
		Destination: dest,
		Reset:       true,
	}
	s, err := o.Start(reg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	c.Add(5)
	s.Sample()
	c.Add(9)
	if err := s.Close(); err != nil { // final sample at close
		t.Fatalf("Close: %v", err)
	}
	data, err := os.ReadFile(dest)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // header + two samples
		t.Fatalf("csv lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != "counter,timestamp,value,count,status" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], ",5,") || !strings.Contains(lines[2], ",9,") {
		t.Fatalf("samples wrong (reset between samples?):\n%s", out)
	}
}

func TestPeriodicSampling(t *testing.T) {
	reg, c := newRegistry(t)
	c.Add(1)
	dest := filepath.Join(t.TempDir(), "periodic.csv")
	o := &Options{
		Counters:    counterList{"/threads{locality#0/total}/count/cumulative"},
		Destination: dest,
		Interval:    2 * time.Millisecond,
	}
	s, err := o.Start(reg)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(dest)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 4 { // header + several periodic samples + final
		t.Fatalf("periodic sampling produced %d lines", len(lines))
	}
}

func TestStartErrors(t *testing.T) {
	reg, _ := newRegistry(t)
	if _, err := (&Options{Counters: counterList{"/nosuch{locality#0/total}/x#"}}).Start(reg); err == nil {
		t.Fatal("bad counter pattern accepted")
	}
	if _, err := (&Options{
		Counters:    counterList{"/threads{locality#0/total}/count/cumulative"},
		Destination: "/nonexistent-dir/file.csv",
	}).Start(reg); err == nil {
		t.Fatal("unwritable destination accepted")
	}
}

// TestCSVQuotesCounterNames: counter names carry commas (a statistics
// counter's parameters); every row still parses as exactly five fields
// with the full counter name in the first.
func TestCSVQuotesCounterNames(t *testing.T) {
	reg, c := newRegistry(t)
	c.Add(3)
	dest := filepath.Join(t.TempDir(), "stats.csv")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o := Bind(fs)
	if err := fs.Parse([]string{
		"-print-counter", "/statistics{/threads{locality#0/total}/count/cumulative}/percentile@95,100,10",
		"-print-counter-destination", dest,
	}); err != nil {
		t.Fatal(err)
	}
	s, err := o.Start(reg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	active := reg.Active()
	s.Sample()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(dest)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.FieldsPerRecord = 5
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatalf("counter CSV does not parse as 5 fields a row: %v", err)
	}
	if len(active) != 1 || len(recs) != 3 { // header + two samples
		t.Fatalf("active %q, rows %q", active, recs)
	}
	for _, rec := range recs[1:] {
		if rec[0] != active[0] {
			t.Fatalf("row names %q, want %q", rec[0], active[0])
		}
	}
}
