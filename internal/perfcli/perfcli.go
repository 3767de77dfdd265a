// Package perfcli is the command-line convenience layer the paper
// describes in §IV: every binary in this repository can list available
// counter types, query a set of counters once at exit, or sample them
// periodically to the screen or a CSV file — without the application
// adjusting its behaviour at runtime (that is package apex's job).
//
// The flags mirror HPX's:
//
//	-list-counters                 list counter types and exit
//	-print-counter NAME            query NAME (repeatable, wildcards ok)
//	-print-counter-interval DUR    sample every DUR instead of once at exit
//	-print-counter-destination F   write CSV to file F instead of stdout
package perfcli

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

// counterList is a repeatable -print-counter flag.
type counterList []string

// String implements flag.Value.
func (c *counterList) String() string { return strings.Join(*c, ",") }

// Set implements flag.Value.
func (c *counterList) Set(v string) error {
	if v == "" {
		return fmt.Errorf("perfcli: empty counter name")
	}
	*c = append(*c, v)
	return nil
}

// Options carries the parsed counter flags.
type Options struct {
	// ListCounters lists counter types and stops.
	ListCounters bool
	// Counters are the -print-counter patterns.
	Counters counterList
	// Interval enables periodic sampling when > 0.
	Interval time.Duration
	// Destination is the CSV output file ("" = stdout).
	Destination string
	// Reset evaluates-and-resets on each sample (per-interval deltas,
	// the paper's per-sample measurement style).
	Reset bool
}

// Bind registers the flags on fs and returns the options that Parse
// will fill.
func Bind(fs *flag.FlagSet) *Options {
	o := &Options{}
	fs.BoolVar(&o.ListCounters, "list-counters", false,
		"list available performance counter types and exit")
	fs.Var(&o.Counters, "print-counter",
		"performance counter to query (repeatable; wildcards allowed)")
	fs.DurationVar(&o.Interval, "print-counter-interval", 0,
		"sample the selected counters periodically at this interval")
	fs.StringVar(&o.Destination, "print-counter-destination", "",
		"write counter CSV to this file instead of stdout")
	fs.BoolVar(&o.Reset, "print-counter-reset", false,
		"reset counters after each sample (per-interval deltas)")
	return o
}

// CSVWriter writes counter values as CSV quoted per RFC 4180 — counter
// names carry commas, as in /arithmetics/add@a,b — one row per value
// under the header counter,timestamp,value,count,status. It is the one
// format both local (-print-counter-destination) and remote (perfmon
// -csv) captures use, so they are interchangeable downstream.
type CSVWriter struct {
	w      *csv.Writer
	header bool
}

// NewCSVWriter writes to w.
func NewCSVWriter(w io.Writer) *CSVWriter { return &CSVWriter{w: csv.NewWriter(w)} }

// Write appends one row per value, after the header when none was
// written yet (so a Write with no values writes just the header), and
// flushes.
func (c *CSVWriter) Write(vals ...core.Value) error {
	// A csv.Writer keeps its first write error; Error reports it.
	if !c.header {
		c.header = true
		_ = c.w.Write([]string{"counter", "timestamp", "value", "count", "status"})
	}
	for _, v := range vals {
		_ = c.w.Write([]string{v.Name, v.Time.Format(time.RFC3339Nano),
			strconv.FormatFloat(v.Float64(), 'g', -1, 64), strconv.FormatInt(v.Count, 10), v.Status.String()})
	}
	c.w.Flush()
	return c.w.Error()
}

// Session is an activated counter printer.
type Session struct {
	reg   *core.Registry
	csv   *CSVWriter
	file  *os.File
	reset bool

	mu     sync.Mutex
	buf    []core.Value // reused per sample; a sampling tick allocates nothing
	ticker *core.Ticker // periodic sampler; nil without an interval
}

// ListTo writes the counter-type listing (--list-counters output).
func ListTo(w io.Writer, reg *core.Registry) {
	infos := reg.Types()
	sort.Slice(infos, func(i, j int) bool { return infos[i].TypeName < infos[j].TypeName })
	fmt.Fprintf(w, "Available counter types (%d):\n", len(infos))
	for _, info := range infos {
		unit := info.Unit
		if unit != "" {
			unit = " [" + unit + "]"
		}
		fmt.Fprintf(w, "  %-55s %s%s\n", info.TypeName, info.HelpText, unit)
	}
}

// Start activates the options against a registry: it resolves the
// counter patterns into the active set and, if an interval is set,
// launches the periodic sampler. The caller must Close the session (the
// final sample prints at Close, as HPX prints at shutdown).
//
// When o.ListCounters is set, the listing is written and (nil, nil) is
// returned: the caller should exit.
func (o *Options) Start(reg *core.Registry) (*Session, error) {
	var out io.Writer = os.Stdout
	var f *os.File
	if o.ListCounters {
		ListTo(out, reg)
		return nil, nil
	}
	if len(o.Counters) == 0 {
		return nil, nil
	}
	if o.Destination != "" {
		var err error
		f, err = os.Create(o.Destination)
		if err != nil {
			return nil, fmt.Errorf("perfcli: %w", err)
		}
		out = f
	}
	s := &Session{reg: reg, csv: NewCSVWriter(out), file: f, reset: o.Reset}
	for _, pattern := range o.Counters {
		if _, err := reg.AddActive(pattern); err != nil {
			s.closeFile()
			return nil, err
		}
	}
	if d := o.Interval; d > 0 {
		s.ticker = core.Every(d, func(time.Time) time.Duration {
			s.Sample()
			return d
		})
	}
	return s, nil
}

// Sample evaluates the active set once and appends the CSV rows.
func (s *Session) Sample() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = s.reg.EvaluateActiveInto(s.buf[:0], s.reset)
	_ = s.csv.Write(s.buf...) // printing counters must not fail the application that prints them
}

// Close stops periodic sampling, prints the final sample, and releases
// the output file.
func (s *Session) Close() error {
	s.ticker.Stop()
	s.Sample()
	return s.closeFile()
}

func (s *Session) closeFile() error {
	if s.file != nil {
		err := s.file.Close()
		s.file = nil
		return err
	}
	return nil
}
