//! Memoizing wrapper for speed functions.
//!
//! The partitioning algorithms probe each processor's speed at the same
//! abscissas many times over: the bounding-line intersections are
//! re-evaluated as the bracket shrinks, the fine-tuning heap queries
//! `time()` at the same `2p` candidate integer points repeatedly, and the
//! combined algorithm's probing step revisits sizes the chosen algorithm
//! then probes again. [`CachedSpeed`] computes each distinct abscissa once
//! and replays the result — bit-identical by construction, since the
//! cached value *is* the inner function's output.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use super::function::SpeedFunction;

/// Multiply-shift hasher for the cache's `u64` bit-pattern keys.
///
/// The keys are raw IEEE-754 bit patterns — already high-entropy in the
/// mantissa — so the DoS-resistant SipHash of the default `HashMap` only
/// adds latency: the cache sits on the hot path of every `speed()` probe
/// and the fine-tuning heap issues thousands of them per solve. One
/// Fibonacci multiply mixes the bits plenty for open addressing.
#[derive(Default)]
struct BitsHasher(u64);

impl Hasher for BitsHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type BitsMap = HashMap<u64, f64, BuildHasherDefault<BitsHasher>>;

/// A [`SpeedFunction`] decorator that memoizes `speed(x)` per abscissa.
///
/// Keys are the raw IEEE-754 bits of `x`, so every distinct input value
/// (including `-0.0` vs `0.0`) gets its own slot and the replayed output is
/// exactly the inner function's. The cache lives behind a [`RefCell`]: the
/// wrapper is single-threaded by design, matching the partitioners' inner
/// loops (use one wrapper per run, not a shared global). For a cache that
/// *can* be shared across threads — a long-lived model registry — use
/// [`SharedCachedSpeed`].
///
/// `CachedSpeed` is deliberately **not** `Sync`:
///
/// ```compile_fail
/// fn assert_sync<T: Sync>() {}
/// assert_sync::<fpm_core::speed::CachedSpeed<fpm_core::speed::ConstantSpeed>>();
/// ```
#[derive(Debug)]
pub struct CachedSpeed<F> {
    inner: F,
    cache: RefCell<BitsMap>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl<F: SpeedFunction> CachedSpeed<F> {
    /// Wraps `inner` with an empty cache.
    pub fn new(inner: F) -> Self {
        Self {
            inner,
            cache: RefCell::new(BitsMap::default()),
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// The wrapped function.
    pub fn inner(&self) -> &F {
        &self.inner
    }

    /// Number of probes answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Number of probes that had to evaluate the inner function.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Drops all memoized entries (e.g. between runs against a function
    /// whose underlying measurements were refreshed).
    pub fn clear(&self) {
        self.cache.borrow_mut().clear();
        self.hits.set(0);
        self.misses.set(0);
    }
}

impl<F: SpeedFunction> SpeedFunction for CachedSpeed<F> {
    fn speed(&self, x: f64) -> f64 {
        let key = x.to_bits();
        if let Some(&s) = self.cache.borrow().get(&key) {
            self.hits.set(self.hits.get() + 1);
            return s;
        }
        let s = self.inner.speed(x);
        self.misses.set(self.misses.get() + 1);
        self.cache.borrow_mut().insert(key, s);
        s
    }

    fn max_size(&self) -> f64 {
        self.inner.max_size()
    }

    fn speeds_at(&self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "speeds_at buffers must match in length");
        // Route through the memoized point lookup so batched and point-wise
        // probes share one cache (and stay bit-identical trivially).
        for (&x, o) in xs.iter().zip(out.iter_mut()) {
            *o = self.speed(x);
        }
    }

    fn intersect_slope(&self, slope: f64) -> Option<f64> {
        self.inner.intersect_slope(slope)
    }
}

/// A thread-safe [`CachedSpeed`]: memoizes `speed(x)` behind a [`Mutex`]
/// so one wrapper can serve concurrent readers.
///
/// [`CachedSpeed`] is deliberately single-threaded (`RefCell`), which is
/// the right tool inside one partitioner run. Long-lived registries — a
/// server holding registered cluster models shared across request threads
/// via `Arc` — need the cache itself to be `Sync`. `SharedCachedSpeed` is
/// that variant: same bit-exact replay semantics (keys are the raw
/// IEEE-754 bits of `x`, the cached value *is* the inner function's
/// output), with the map behind a `Mutex` and the hit/miss counters
/// atomic.
///
/// The lock is held only for the lookup/insert, never across the inner
/// evaluation, so concurrent misses on the same abscissa may both evaluate
/// the inner function — they insert the identical bits, so replay stays
/// deterministic.
///
/// No solve path uses this wrapper any more: the `fpm-serve` registry
/// stores raw models, because a locked hash lookup (and a map that is
/// never trimmed) costs far more than the ~13 ns piece-wise evaluation it
/// replays. The type stays only because the out-of-workspace `perfbench`
/// crate (`perfbench/src/layers.rs`, `perfbench/src/count.rs`) imports it
/// to replay traced runs.
#[derive(Debug)]
pub struct SharedCachedSpeed<F> {
    inner: F,
    cache: Mutex<BitsMap>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<F: SpeedFunction> SharedCachedSpeed<F> {
    /// Wraps `inner` with an empty cache.
    pub fn new(inner: F) -> Self {
        Self {
            inner,
            cache: Mutex::new(BitsMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The wrapped function.
    pub fn inner(&self) -> &F {
        &self.inner
    }

    /// Number of probes answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of probes that had to evaluate the inner function.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Drops all memoized entries and resets the counters.
    pub fn clear(&self) {
        self.cache.lock().expect("cache lock poisoned").clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

impl<F: SpeedFunction> SpeedFunction for SharedCachedSpeed<F> {
    fn speed(&self, x: f64) -> f64 {
        let key = x.to_bits();
        if let Some(&s) = self.cache.lock().expect("cache lock poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return s;
        }
        // Evaluate outside the lock: inner models may be arbitrarily slow.
        let s = self.inner.speed(x);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.cache.lock().expect("cache lock poisoned").insert(key, s);
        s
    }

    fn max_size(&self) -> f64 {
        self.inner.max_size()
    }

    fn speeds_at(&self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "speeds_at buffers must match in length");
        for (&x, o) in xs.iter().zip(out.iter_mut()) {
            *o = self.speed(x);
        }
    }

    fn intersect_slope(&self, slope: f64) -> Option<f64> {
        self.inner.intersect_slope(slope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speed::{AnalyticSpeed, PiecewiseLinearSpeed};

    #[test]
    fn caches_repeated_probes() {
        let f = CachedSpeed::new(AnalyticSpeed::decreasing(200.0, 1e6, 2.0));
        let a = f.speed(1234.5);
        let b = f.speed(1234.5);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(f.misses(), 1);
        assert_eq!(f.hits(), 1);
    }

    #[test]
    fn agrees_with_inner_function() {
        let inner = AnalyticSpeed::unimodal(250.0, 1e4, 5e6, 2.0);
        let f = CachedSpeed::new(inner.clone());
        for k in 0..200 {
            let x = 10f64.powf(k as f64 * 0.04);
            assert_eq!(f.speed(x).to_bits(), inner.speed(x).to_bits());
            // Second round: every probe must come from the cache.
            assert_eq!(f.speed(x).to_bits(), inner.speed(x).to_bits());
        }
        assert_eq!(f.misses(), 200);
        assert_eq!(f.hits(), 200);
    }

    #[test]
    fn time_goes_through_the_cache() {
        let f = CachedSpeed::new(AnalyticSpeed::constant(100.0));
        let _ = f.time(50.0);
        let _ = f.time(50.0);
        assert_eq!(f.misses(), 1);
        assert_eq!(f.hits(), 1);
    }

    #[test]
    fn forwards_structure_queries() {
        let inner =
            PiecewiseLinearSpeed::new(vec![(10.0, 100.0), (1000.0, 50.0)]).unwrap();
        let f = CachedSpeed::new(inner.clone());
        assert_eq!(f.max_size(), inner.max_size());
        assert_eq!(f.intersect_slope(1e-3), inner.intersect_slope(1e-3));
    }

    #[test]
    fn clear_resets_counters() {
        let f = CachedSpeed::new(AnalyticSpeed::constant(10.0));
        let _ = f.speed(1.0);
        let _ = f.speed(1.0);
        f.clear();
        assert_eq!(f.hits(), 0);
        assert_eq!(f.misses(), 0);
        let _ = f.speed(1.0);
        assert_eq!(f.misses(), 1);
    }

    #[test]
    fn shared_cache_agrees_with_inner_bit_exactly() {
        let inner = AnalyticSpeed::unimodal(250.0, 1e4, 5e6, 2.0);
        let f = SharedCachedSpeed::new(inner.clone());
        for k in 0..200 {
            let x = 10f64.powf(k as f64 * 0.04);
            assert_eq!(f.speed(x).to_bits(), inner.speed(x).to_bits());
            assert_eq!(f.speed(x).to_bits(), inner.speed(x).to_bits());
        }
        assert_eq!(f.misses(), 200);
        assert_eq!(f.hits(), 200);
        f.clear();
        assert_eq!(f.hits() + f.misses(), 0);
    }

    #[test]
    fn shared_cache_is_consistent_under_concurrent_probes() {
        use std::sync::Arc;
        let f = Arc::new(SharedCachedSpeed::new(AnalyticSpeed::decreasing(200.0, 1e6, 2.0)));
        let expected: Vec<u64> =
            (0..64).map(|k| f.inner().speed(1.5f64 * k as f64 + 1.0).to_bits()).collect();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let f = Arc::clone(&f);
                let expected = expected.clone();
                std::thread::spawn(move || {
                    for round in 0..8 {
                        for (k, &bits) in expected.iter().enumerate() {
                            let x = 1.5f64 * k as f64 + 1.0;
                            assert_eq!(f.speed(x).to_bits(), bits, "round {round} x {x}");
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Every probe is either a hit or a miss; all 4·8·64 accounted for.
        assert_eq!(f.hits() + f.misses(), 4 * 8 * 64);
        assert!(f.misses() >= 64, "each distinct abscissa missed at least once");
    }

    #[test]
    fn shared_cache_forwards_structure_queries() {
        let inner = PiecewiseLinearSpeed::new(vec![(10.0, 100.0), (1000.0, 50.0)]).unwrap();
        let f = SharedCachedSpeed::new(inner.clone());
        assert_eq!(f.max_size(), inner.max_size());
        assert_eq!(f.intersect_slope(1e-3), inner.intersect_slope(1e-3));
    }

    /// Compile-time audit of the `Send + Sync` surface: everything a
    /// server-style registry shares across threads via `Arc` must be
    /// `Send + Sync`, and the single-threaded [`CachedSpeed`] must *not*
    /// be (its `RefCell` interior is the documented design).
    #[test]
    fn send_sync_surface_is_as_documented() {
        use crate::speed::{ConstantSpeed, ScaledSpeed};
        use std::sync::Arc;

        fn assert_send_sync<T: Send + Sync>() {}

        assert_send_sync::<ConstantSpeed>();
        assert_send_sync::<AnalyticSpeed>();
        assert_send_sync::<PiecewiseLinearSpeed>();
        assert_send_sync::<ScaledSpeed<PiecewiseLinearSpeed>>();
        assert_send_sync::<SharedCachedSpeed<PiecewiseLinearSpeed>>();
        assert_send_sync::<SharedCachedSpeed<Box<dyn SpeedFunction + Send + Sync>>>();
        // The shape a registry actually stores: shared, dynamically typed.
        assert_send_sync::<Arc<dyn SpeedFunction + Send + Sync>>();
        assert_send_sync::<Vec<Arc<dyn SpeedFunction + Send + Sync>>>();
        // And Arc<dyn …> still implements SpeedFunction (blanket impl).
        fn assert_speed_function<T: SpeedFunction>() {}
        assert_speed_function::<Arc<dyn SpeedFunction + Send + Sync>>();
        assert_speed_function::<SharedCachedSpeed<Arc<dyn SpeedFunction + Send + Sync>>>();
    }
}
