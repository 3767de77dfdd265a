// Package taskrt implements a lightweight task runtime modelled on HPX:
// fine-grained tasks scheduled by a fixed pool of worker goroutines with
// per-worker queues and work stealing, futures with HPX launch policies
// (Async, Sync, Fork, Deferred), and full performance-counter
// instrumentation exposed through the core counter framework
// (/threads{locality#L/worker-thread#W}/... and .../total/...).
//
// Differences from HPX forced by Go's execution model are deliberate and
// documented in DESIGN.md:
//
//   - HPX suspends user-level threads that wait on unready futures. Go
//     closures cannot be suspended mid-execution, so Future.Get performs
//     help-first work stealing: when called on a worker it executes
//     pending tasks (its own children first, then stolen work) until the
//     awaited future becomes ready; when no work exists it searches for
//     up to 100 µs, then parks.
//     For strict fork/join programs — all of the Inncabs suite — this is
//     semantically equivalent to suspension.
//
//   - launch::fork (continuation stealing) is approximated by eager
//     inline execution of the spawned task at the spawn point
//     (work-first), which preserves fork/join ordering.
//
// The runtime never creates more OS-level concurrency than its worker
// count: tasks are multiplexed onto the workers exactly as HPX multiplexes
// its user-level threads onto OS threads. This is the property the paper
// contrasts with the std::async thread-per-task model (package stdrt).
package taskrt
