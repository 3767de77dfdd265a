package taskrt

import "runtime"

// Batch spawn: launching the N children of a wide node as one scheduler
// transaction. A single spawn pays a queue publish, a pending-count
// add, a peak update and a wakeup notify; SpawnBatchWith pays each of
// those once for the whole batch — one Chase–Lev bottom-pointer publish
// (or one injector chain splice from outside the pool), one metrics
// add, one notify. At Inncabs grains (1–10µs) that turns the dominant
// per-child cost of wide nodes into a per-wave cost.

// AsyncBatch launches every fn asynchronously as one scheduler
// transaction and returns their futures, in order.
func AsyncBatch[T any](rt *Runtime, fns []func() T) []*Future[T] {
	return SpawnBatchWith(rt, SpawnOptions{}, fns)
}

// AsyncBatchGrain is AsyncBatch with a caller-supplied estimate of each
// member's body duration in nanoseconds (SpawnOptions.GrainNs).
func AsyncBatchGrain[T any](rt *Runtime, grainNs int64, fns []func() T) []*Future[T] {
	return SpawnBatchWith(rt, SpawnOptions{GrainNs: grainNs}, fns)
}

// SpawnBatchWith is the batch launch path: it launches every fn as o
// describes and returns their futures, in order. Async and Optional
// batches are enqueued as one scheduler transaction, and the per-batch
// bookkeeping that single spawns pay per task — the clock read, the
// spawn-depth computation, the spawn-site stack capture, the
// cancellation scope — is paid once and stamped onto every
// member: one scope covers the batch, and a scope that dies while
// members are queued drops each of them at dispatch with exact
// cancelled-counter accounting, like single spawns. Other policies keep
// their per-task semantics (Sync/Fork run each body at the spawn point,
// Deferred defers each to its first Wait).
func SpawnBatchWith[T any](rt *Runtime, o SpawnOptions, fns []func() T) []*Future[T] {
	out := make([]*Future[T], len(fns))
	if len(fns) == 0 {
		return out
	}
	if o.Policy != Async && o.Policy != Optional {
		for i, fn := range fns {
			out[i] = SpawnWith(rt, o, fn)
		}
		return out
	}
	w := rt.currentWorker()
	tr := rt.trace.Load()
	var depth, nowNs int64
	if tr != nil || w != nil {
		nowNs = nanotime()
		if w != nil {
			depth = w.spawnDepthNs(nowNs)
		}
	}
	var pcs [siteDepth]uintptr
	if tr != nil {
		runtime.Callers(2, pcs[:])
	}
	ctx := o.Ctx
	if ctx == nil && w != nil {
		ctx = w.curCtx // join the running task's cancellation tree
	}
	l := futuresOf[T](w)
	for i, fn := range fns {
		f := newFuture[T](rt, l)
		f.fn = fn
		f.ctx = ctx
		f.depthNs = depth
		if tr != nil {
			f.meta = tr.newMeta(w, nowNs, pcs)
		}
		out[i] = f
	}
	if ctx != nil && ctx.Err() != nil {
		// Dead on arrival: every member is dropped and counted, exactly
		// like single spawns.
		for _, f := range out {
			f.drop()
		}
		return out
	}
	// Adaptive inlining over a batch: enqueue just enough members to
	// feed idle workers, run the rest inline (see batchInlineSplit).
	k := rt.batchInlineSplit(w, o.GrainNs, len(out))
	if rt.adaptiveInline {
		rt.grainSpawned.Add(int64(k))
		rt.grainInlined.Add(int64(len(out) - k))
	}
	if k > 0 {
		ts := make([]*task, k)
		for i := range ts {
			ts[i] = &out[i].task
		}
		if err := rt.submitBatchFrom(w, ts); err != nil {
			// Runtime shut down: fall back to deferred execution so the
			// futures still complete when queried.
			for _, f := range out[:k] {
				f.deferred = true
			}
		}
	}
	for _, f := range out[k:] {
		runOn(w, rt, &f.task)
	}
	return out
}
