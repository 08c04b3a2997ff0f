//! A counting [`CostFunction`] wrapper. The solver's own
//! `Trace::speed_evaluations` is never written, so evaluation counts are
//! taken from outside: the wrapper forwards all five trait methods
//! unchanged (the solver takes the same floating-point path) and counts
//! the model evaluations it sees.

use std::cell::Cell;

use fpm_core::cost::CostFunction;

pub struct Counting<F> {
    inner: F,
    evals: Cell<u64>,
}

impl<F: CostFunction> Counting<F> {
    pub fn new(inner: F) -> Self {
        Self {
            inner,
            evals: Cell::new(0),
        }
    }

    /// Calls to `time`, `throughput` and `rate`.
    pub fn evals(&self) -> u64 {
        self.evals.get()
    }

    fn bump(&self) {
        self.evals.set(self.evals.get() + 1);
    }
}

impl<F: CostFunction> CostFunction for Counting<F> {
    fn time(&self, x: f64) -> f64 {
        self.bump();
        self.inner.time(x)
    }

    fn max_size(&self) -> f64 {
        self.inner.max_size()
    }

    fn throughput(&self, x: f64) -> f64 {
        self.bump();
        self.inner.throughput(x)
    }

    fn rate(&self, x: f64) -> f64 {
        self.bump();
        self.inner.rate(x)
    }

    fn intersect_slope(&self, slope: f64) -> Option<f64> {
        self.inner.intersect_slope(slope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpm_core::cost::PiecewiseLinearCost;
    use fpm_core::planner::AlgorithmId;
    use fpm_core::speed::{PiecewiseLinearSpeed, SharedCachedSpeed};
    use fpm_testkit::gen::{GenConfig, WireCluster};
    use std::sync::Arc;

    type Shared = Arc<dyn CostFunction + Send + Sync>;

    /// Every registry entry must return a bit-identical plan whether or
    /// not the models are wrapped.
    #[test]
    fn wrapped_and_unwrapped_plans_are_bit_identical() {
        let cfg = GenConfig {
            machines: (6, 6),
            n_log10: (6.0, 6.0),
            ..GenConfig::default()
        };
        for seed in 0..4u64 {
            let wire = WireCluster::from_seed(seed, &cfg);
            let funcs: Vec<Shared> = wire
                .models
                .iter()
                .enumerate()
                .map(|(i, (_, knots))| {
                    if i % 2 == 0 {
                        let cost = knots.iter().map(|&(x, s)| (x, x / s)).collect();
                        Arc::new(PiecewiseLinearCost::new(cost).expect("admissible")) as Shared
                    } else {
                        let speed = PiecewiseLinearSpeed::new(knots.clone()).expect("admissible");
                        Arc::new(SharedCachedSpeed::new(speed)) as Shared
                    }
                })
                .collect();
            let plain: Vec<&dyn CostFunction> = funcs.iter().map(|f| &**f as _).collect();
            let wrapped: Vec<Counting<&dyn CostFunction>> =
                plain.iter().map(|&f| Counting::new(f)).collect();
            let wrapped_refs: Vec<&dyn CostFunction> = wrapped.iter().map(|f| f as _).collect();
            for algorithm in crate::inputs::LINEAR
                .iter()
                .chain(&crate::inputs::NONLINEAR)
            {
                let a = algorithm.solve(wire.n, &plain).expect("solves");
                let b = algorithm.solve(wire.n, &wrapped_refs).expect("solves");
                assert_eq!(
                    a.distribution.counts(),
                    b.distribution.counts(),
                    "{algorithm}"
                );
                assert_eq!(a.makespan.to_bits(), b.makespan.to_bits(), "{algorithm}");
            }
            assert!(wrapped.iter().map(Counting::evals).sum::<u64>() > 0);
            let single = AlgorithmId::SingleAt(1e4);
            let a = single.solve(wire.n, &plain).expect("solves");
            let b = single.solve(wire.n, &wrapped_refs).expect("solves");
            assert_eq!(a.distribution.counts(), b.distribution.counts());
        }
    }
}
