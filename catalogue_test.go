package repro

import (
	"testing"
	"time"

	"repro/internal/agas"
	"repro/internal/agas/tree"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/parcel"
	"repro/internal/sim"
	"repro/internal/stdrt"
	"repro/internal/taskrt"
	"repro/internal/telemetry"
)

// TestCounterCatalogue registers every counter provider and checks the
// conventions any consumer relies on to read any counter without
// special cases: an instance's Info names its own type, carries a help
// text and version 1.0, and every instance of one type describes the
// type identically.
func TestCounterCatalogue(t *testing.T) {
	loc := agas.NewLocality(0, "catalogue")
	reg := loc.Registry()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	rt := taskrt.New(taskrt.WithWorkers(2))
	defer rt.Shutdown()
	must(rt.RegisterCounters(reg))
	must(stdrt.New().RegisterCounters(reg))
	must(agas.NewResolver().EnableRemoteCounters(reg, 0))
	telemetry.NewBudgetController(telemetry.BudgetControllerConfig{
		BaseInterval: time.Millisecond, Cost: func() int64 { return 0 },
	}).RegisterCounters(reg)
	telemetry.NewFlightRecorder().RegisterCounters(reg)
	_, err := tree.NewNode(reg, 0, 0, tree.Config{})
	must(err)
	srv, err := parcel.Serve("127.0.0.1:0", reg, 0)
	must(err)
	defer srv.Close()
	cli, err := parcel.Dial(srv.Addr(), reg, 1)
	must(err)
	defer cli.Close()
	checkCatalogue(t, reg)

	// A simulated run provides the /papi counters; its leaf moves 1001
	// cache lines (not a multiple of 20, so no share of it is a whole
	// number of lines) and a partial one.
	r, err := sim.Run(sim.Config{Machine: machine.IvyBridge(), Cores: 2, Mode: sim.HPX},
		&sim.Graph{Label: "leaf", Root: sim.Leaf(1000, 64*1001+10)})
	must(err)
	simReg := core.NewRegistry()
	must(r.RegisterCounters(simReg, 0))
	checkCatalogue(t, simReg)

	// The three request types split the traffic without dropping or
	// inventing a line.
	t.Run("offcore split sums to lines", func(t *testing.T) {
		var lines int64
		for _, event := range []string{"ALL_DATA_RD", "DEMAND_CODE_RD", "DEMAND_RFO"} {
			v, err := simReg.Evaluate("/papi{locality#0/total}/OFFCORE_REQUESTS@"+event, false)
			if err != nil {
				t.Fatal(err)
			}
			if v.Raw <= 0 {
				t.Errorf("OFFCORE_REQUESTS@%s = %d, want > 0", event, v.Raw)
			}
			lines += v.Raw
		}
		if want := r.OffcoreBytes / r.LineBytes; lines != want || want != 1001 {
			t.Errorf("OFFCORE_REQUESTS sum to %d lines, want OffcoreBytes/line = %d (1001)", lines, want)
		}
	})
}

func checkCatalogue(t *testing.T, reg *core.Registry) {
	t.Helper()
	names, err := reg.Discover("/*/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 10 {
		t.Fatalf("discovered only %d counters", len(names))
	}
	byType := map[string]core.Info{}
	for _, n := range names {
		c, err := reg.Get(n.String())
		if err != nil {
			t.Fatalf("Get(%s): %v", n, err)
		}
		info := c.Info()
		if info.TypeName != n.TypeName() {
			t.Errorf("%s: Info.TypeName %q, want %q", n, info.TypeName, n.TypeName())
		}
		if info.Version != "1.0" || info.HelpText == "" {
			t.Errorf("%s: version %q, help %q", n, info.Version, info.HelpText)
		}
		if first, ok := byType[info.TypeName]; ok && first != info {
			t.Errorf("%s: Info %+v differs from its type's %+v", n, info, first)
		}
		byType[info.TypeName] = info
	}
}
