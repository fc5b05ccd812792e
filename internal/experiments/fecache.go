// The persisted front-end cache's process-wide seam and warm-up fan-out.
//
// Commands that opt into the cache (-fe-cache DIR) install a
// tracecache.Store here once at startup; every engine pass then consults it
// through the same atomic-pointer discipline as the unit observer and the
// chunk hook — a single atomic load on the pass's hot path, no locks, no
// import of the command wiring.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"untangle/internal/parallel"
	"untangle/internal/tracecache"
	"untangle/internal/workload"
)

// frontEndCache is the process-wide store. Nil (the default) means "cache
// off": passes generate cold and persist nothing.
var frontEndCache atomic.Pointer[tracecache.Store]

// SetFrontEndCache installs (or, with nil, removes) the process-wide
// front-end trace cache. Commands call it once before the campaign starts;
// tests that install a store must clear it on cleanup.
func SetFrontEndCache(st *tracecache.Store) { frontEndCache.Store(st) }

// FrontEndCache returns the installed store, or nil when caching is off.
func FrontEndCache() *tracecache.Store { return frontEndCache.Load() }

// PermanentCacheFailure marks err never-retry (parallel.Permanent) when
// it is a front-end cache failure that a retry would only repeat: an entry
// that fails its checks (tracecache.ErrCorrupt) or was written under
// another key (tracecache.ErrKeyMismatch), in an installed store that may
// not rebuild it. A unit's retry closure applies it to its attempt's
// error; any other error comes back unchanged.
func PermanentCacheFailure(err error) error {
	if !errors.Is(err, tracecache.ErrCorrupt) && !errors.Is(err, tracecache.ErrKeyMismatch) {
		return err
	}
	if st := FrontEndCache(); st == nil || st.RebuildEnabled() {
		return err
	}
	return parallel.Permanent(err)
}

// OpenFrontEndCache opens the store at dir (rebuild: regenerate corrupt or
// mismatched entries) and installs it. The returned release removes it
// again and reports its counters through logf — the "fe-cache:" line a
// process that did the cache's work prints on exit.
func OpenFrontEndCache(dir string, rebuild bool, logf func(format string, args ...any)) (*tracecache.Store, func(), error) {
	st, err := tracecache.NewStore(dir, rebuild)
	if err != nil {
		return nil, nil, err
	}
	SetFrontEndCache(st)
	return st, func() {
		SetFrontEndCache(nil)
		c := st.Counters()
		logf("fe-cache: %d hits, %d misses, %d rebuilds, %d outcome hits, %d outcome misses, %d bytes read, %d bytes written, %d peak mix tape window events, %d continued mix tapes, %d attached mix tapes",
			c.Hits, c.Misses, c.Rebuilds, c.OutcomeHits, c.OutcomeMisses, c.BytesRead, c.BytesWritten, MixTapeWindowPeak(), mixContinued.Load(), mixAttached.Load())
	}, nil
}

// cachedParamsTag memoizes ParamsFingerprint for the trace-cache key: the
// tables are compiled in, so the tag is constant for the process lifetime,
// and hashing them once instead of once per pass keeps key construction off
// the profile.
var paramsTagOnce = sync.OnceValue(ParamsFingerprint)

func cachedParamsTag() string { return paramsTagOnce() }

// WarmFrontEndCache populates st with the front-end streams of the named
// benchmarks (all of workload.SPECBenchmarks when names is empty) at the
// given instruction budget, fanning out on at most jobs workers. Benchmarks
// whose entries already exist are verified by the engine's replay path
// rather than regenerated, so re-warming an intact cache is cheap and a
// corrupt entry surfaces (or is rebuilt, per the store's policy) right here
// instead of mid-campaign. It returns how many streams were freshly
// generated. perfbench's warm workloads fill their cache with it and
// WarmMixFrontEnds; a cold `experiments -fe-cache` run of the same study
// or mixes runs the same engine passes.
func WarmFrontEndCache(ctx context.Context, st *tracecache.Store, names []string, instructions uint64, jobs int) (int, error) {
	if st == nil {
		return 0, fmt.Errorf("experiments: WarmFrontEndCache needs a store")
	}
	var params []workload.Params
	if len(names) == 0 {
		params = sortedSPECParams()
	} else {
		params = make([]workload.Params, len(names))
		for i, name := range names {
			p, err := workload.SPECByName(name)
			if err != nil {
				return 0, err
			}
			params[i] = p
		}
	}
	var generated atomic.Int64
	err := parallel.ForEach(ctx, len(params), jobs, func(ctx context.Context, i int) error {
		e := enginePool.Get().(*laneEngine)
		defer enginePool.Put(e)
		_, replayed, err := e.run(ctx, st, params[i], instructions)
		if err != nil {
			return fmt.Errorf("warm %s: %w", params[i].Name, err)
		}
		if !replayed {
			generated.Add(1)
		}
		return nil
	})
	return int(generated.Load()), err
}

// WarmMixFrontEnds populates st with the fused mix engine's per-domain
// streams for the given mix IDs — nil or empty means all of
// workload.Mixes — at the given scale and secret. Each mix runs once
// through the fused engine with st installed, so the persisted pressure
// tails are sized to what the scheme lanes actually consume (plus the
// engine's slack) rather than a guess; a stream shared between mixes (same
// pair in the same domain slot) is generated by the first mix that needs
// it and replayed by the rest, and a later mix whose lanes outrun that
// mix's tail continues the entry cold and commits the longer tail. Returns
// how many entries were freshly generated.
func WarmMixFrontEnds(ctx context.Context, st *tracecache.Store, ids []int, scale float64, secret uint64, jobs int) (int, error) {
	if st == nil {
		return 0, fmt.Errorf("experiments: WarmMixFrontEnds needs a store")
	}
	mixes := make([]workload.Mix, 0, len(workload.Mixes))
	if len(ids) == 0 {
		mixes = append(mixes, workload.Mixes...)
	} else {
		for _, id := range ids {
			m, err := workload.MixByID(id)
			if err != nil {
				return 0, err
			}
			mixes = append(mixes, m)
		}
	}
	prev := FrontEndCache()
	SetFrontEndCache(st)
	defer SetFrontEndCache(prev)
	before := st.Counters().Misses
	for _, mix := range mixes {
		if err := ctx.Err(); err != nil {
			return int(st.Counters().Misses - before), err
		}
		if _, err := RunMixContext(ctx, mix, Options{Scale: scale, Secret: secret, Jobs: jobs}); err != nil {
			return int(st.Counters().Misses - before), fmt.Errorf("warm mix %d: %w", mix.ID, err)
		}
	}
	return int(st.Counters().Misses - before), nil
}
