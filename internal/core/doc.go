// Package core implements the performance-counter framework that is the
// primary contribution of the reproduced paper: a uniform, extensible,
// hierarchically named set of counters that a runtime system and the
// application itself can query while the application is running.
//
// The framework follows the HPX counter design:
//
//   - Counters are identified by structured names of the form
//
//     /object{parentinstance#parentindex/instance#index}/counter/path@parameters
//
//     for example /threads{locality#0/total}/time/average or
//     /threads{locality#0/worker-thread#3}/count/cumulative.
//
//   - Counter *types* (names without an instance part, such as
//     /threads/time/average) are registered once with a factory; counter
//     *instances* are created on demand when a full name is queried.
//
//   - All counters expose the same interface regardless of what they
//     measure, so any consumer (command-line printer, policy engine,
//     remote monitor) can read any counter with no special cases.
//
//   - Meta counters compose other counters: /statistics/... counters
//     aggregate samples of a base counter (average, rolling_average, max,
//     min, stddev, median, rate) and /arithmetics/... counters combine
//     several counters arithmetically.
//
//   - Counters may be evaluated and reset at any time; the registry keeps
//     an "active set" mirroring HPX's evaluate_active_counters /
//     reset_active_counters API, which the paper uses to scope
//     measurements to each computation sample.
//
//   - Providers build every counter through one kit, so the conventions
//     are written once: LocalityName gives the instance name
//     /object{locality#L/total}/counter (or worker-thread#W), TypeInfo
//     the type's metadata, NewLocalityRaw and NewLocalityFunc a
//     per-locality event count or sampled value, and NewRatioCounter and
//     NewHistRatioCounter an average in the HPX convention: the sum in
//     Raw, the count in Scaling and Count.
//
// Values are returned as core.Value, carrying a raw int64 payload, an
// optional scaling divisor, an invocation count and a timestamp, again
// mirroring the HPX wire format so that local and remote (see package
// parcel) reads are indistinguishable.
package core
