package hwsim

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
)

func TestAccumulatorCounters(t *testing.T) {
	m := machine.IvyBridge()
	acc := NewAccumulator(m, 0)
	reg := core.NewRegistry()
	if err := acc.RegisterCounters(reg); err != nil {
		t.Fatalf("RegisterCounters: %v", err)
	}
	acc.AddTraffic(64 * 1000) // 1000 cache lines
	var total int64
	for _, ev := range Events {
		name := "/papi{locality#0/total}/OFFCORE_REQUESTS@" + ev
		v, err := reg.Evaluate(name, false)
		if err != nil {
			t.Fatalf("Evaluate(%s): %v", name, err)
		}
		if v.Raw <= 0 {
			t.Fatalf("%s = %d", ev, v.Raw)
		}
		total += v.Raw
	}
	if total != 1000 {
		t.Fatalf("summed request counts = %d want 1000", total)
	}
}

func TestAccumulatorSplitShares(t *testing.T) {
	m := machine.IvyBridge()
	acc := NewAccumulator(m, 0)
	acc.AddTraffic(64 * 100000)
	reads := acc.count(EventAllDataRead)
	code := acc.count(EventDemandCodeRd)
	rfo := acc.count(EventDemandRFO)
	if reads <= rfo || rfo <= code {
		t.Fatalf("split ordering wrong: reads=%d rfo=%d code=%d", reads, rfo, code)
	}
}

func TestAccumulatorReset(t *testing.T) {
	m := machine.IvyBridge()
	acc := NewAccumulator(m, 0)
	reg := core.NewRegistry()
	if err := acc.RegisterCounters(reg); err != nil {
		t.Fatal(err)
	}
	acc.AddTraffic(6400)
	name := "/papi{locality#0/total}/OFFCORE_REQUESTS@" + EventAllDataRead
	if v, _ := reg.Evaluate(name, true); v.Raw == 0 { // evaluate-and-reset
		t.Fatal("no count before reset")
	}
	if v, _ := reg.Evaluate(name, false); v.Raw != 0 {
		t.Fatalf("count after reset = %d", v.Raw)
	}
	if acc.Bytes() != 0 {
		t.Fatal("accumulator bytes not reset")
	}
}

func TestBandwidthFormula(t *testing.T) {
	// The paper's estimate: counts x 64 bytes / time.
	counts := []int64{700, 50, 250} // 1000 lines
	bw := Bandwidth(counts, 64, time.Second)
	if bw != 64000 {
		t.Fatalf("bandwidth = %v want 64000", bw)
	}
	if Bandwidth(counts, 64, 0) != 0 {
		t.Fatal("zero elapsed must yield zero bandwidth")
	}
}

func TestBandwidthOf(t *testing.T) {
	m := machine.IvyBridge()
	acc := NewAccumulator(m, 3)
	reg := core.NewRegistry()
	if err := acc.RegisterCounters(reg); err != nil {
		t.Fatal(err)
	}
	acc.AddTraffic(64 * 1_000_000) // 64 MB
	bw, err := BandwidthOf(reg, 3, m.CacheLineBytes, time.Second)
	if err != nil {
		t.Fatalf("BandwidthOf: %v", err)
	}
	if math.Abs(bw-64e6)/64e6 > 0.01 {
		t.Fatalf("bandwidth = %v want ~64e6", bw)
	}
	if _, err := BandwidthOf(reg, 9, m.CacheLineBytes, time.Second); err == nil {
		t.Fatal("unknown locality accepted")
	}
}

func TestTrafficSplitSumsToOne(t *testing.T) {
	var sum float64
	for _, ev := range Events {
		sum += trafficSplit[ev]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("traffic split sums to %v", sum)
	}
}
