package taskrt

import "time"

// epoch anchors nanotime; it carries a monotonic reading, so time.Since
// on it reads only the monotonic clock.
var (
	epoch   = time.Now()
	epochNs = epoch.UnixNano()
)

// nanotime returns Unix nanoseconds from a single monotonic clock read:
// the runtime's one clock for every stored timestamp (task start, park
// start, spawn time) and every interval it accounts.
func nanotime() int64 { return epochNs + int64(time.Since(epoch)) }
