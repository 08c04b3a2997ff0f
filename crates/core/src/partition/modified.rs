//! The modified algorithm: bisection of the space of solutions
//! (paper §2, Figs. 10–12).
//!
//! Where the basic algorithm shrinks the *region between two lines*, the
//! modified algorithm shrinks the discrete **space of candidate solutions**
//! — the set of origin lines passing through at least one integer-abscissa
//! point of some processor graph. At each step it:
//!
//! 1. finds the processor whose graph is intersected by the largest number
//!    of candidate lines inside the current region (the graph with the most
//!    integer abscissas between its two bounding intersections);
//! 2. draws the line through that graph's *median* integer point, splitting
//!    those candidates in half;
//! 3. keeps the half containing the optimum (by comparing the trial line's
//!    element total with `n`).
//!
//! After `p` such bisections the candidate count provably drops by at least
//! 50 %, so at most `p·log₂ n` steps are needed; with `O(p)` work per step
//! the complexity is `O(p²·log₂ n)` **independent of the shapes of the
//! graphs** — unlike the basic algorithm, which is shape-sensitive.

use super::fine_tune::fine_tune;
use super::initial::{bracket_from_slope, bracket_slopes, SlopeBracket};
use super::problem::{
    empty_report, seed_slope, validate_processors, Distribution, PartitionReport, Partitioner,
};
use crate::error::{Error, Result};
use crate::geometry::intersections_at_slope;
use crate::cost::CostFunction;
use crate::trace::{IterationRecord, Trace};

/// The solution-space bisection partitioner.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModifiedPartitioner {
    /// Hard step budget. The theoretical bound is `p·log₂ n`; the default
    /// budget is computed per problem as `4·p·log₂(n+2) + 64` when this
    /// field is `None`.
    pub max_steps: Option<usize>,
}

impl ModifiedPartitioner {
    /// Creates the partitioner with the per-problem default step budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the step budget.
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        assert!(max_steps > 0);
        self.max_steps = Some(max_steps);
        self
    }

    fn budget(&self, n: u64, p: usize) -> usize {
        self.max_steps
            .unwrap_or_else(|| 4 * p * ((n + 2) as f64).log2().ceil() as usize + 64)
    }

    /// Runs the search from an explicit slope bracket (used by the combined
    /// algorithm).
    pub fn partition_from_bracket<F: CostFunction>(
        &self,
        n: u64,
        funcs: &[F],
        bracket: SlopeBracket,
        mut trace: Trace,
    ) -> Result<PartitionReport> {
        let target = n as f64;
        let mut shallow = bracket.shallow;
        let mut steep = bracket.steep;
        let budget = self.budget(n, funcs.len());
        // Bound intersections are cached across iterations: the updated
        // bound always inherits the trial line's abscissas.
        let mut hi_x = intersections_at_slope(funcs, shallow);
        let mut lo_x = intersections_at_slope(funcs, steep);

        for step in 1..=budget {

            // Candidate count per graph: integer abscissas strictly inside
            // the open interval (lo, hi). Work in f64: counts can reach n.
            let mut best_proc = usize::MAX;
            let mut best_count = 0.0_f64;
            let mut best_median = 0.0_f64;
            for (i, (&l, &h)) in lo_x.iter().zip(&hi_x).enumerate() {
                let first = (l + 1.0).floor(); // smallest integer > l
                let last = (h - 1.0).ceil().max(first - 1.0); // largest integer < h
                let count = (last - first + 1.0).max(0.0);
                if count > best_count {
                    best_count = count;
                    best_proc = i;
                    best_median = (first + ((count - 1.0) / 2.0).floor()).max(1.0);
                }
            }
            if best_proc == usize::MAX || steep - shallow <= f64::EPSILON * steep {
                // No candidate line remains inside the region: stop and
                // fine-tune (paper's stopping criterion).
                let distribution = fine_tune(n, funcs, &lo_x, &hi_x);
                return Ok(PartitionReport::from_distribution(distribution, funcs, trace));
            }

            // Line through the median integer point of the richest graph.
            let m = best_median;
            let trial = funcs[best_proc].rate(m);
            if !(trial > shallow && trial < steep) {
                // The candidate line coincides with a boundary — the region
                // cannot be split further along this graph; fall back to a
                // plain slope bisection step to keep making progress.
                let mid = 0.5 * (shallow + steep);
                if !(mid > shallow && mid < steep) {
                    let distribution = fine_tune(n, funcs, &lo_x, &hi_x);
                    return Ok(PartitionReport::from_distribution(distribution, funcs, trace));
                }
                let xs_mid = intersections_at_slope(funcs, mid);
                let total: f64 = xs_mid.iter().sum();
                let undershoot = total < target;
                trace.iterations.push(IterationRecord {
                    step,
                    lower_slope: shallow,
                    upper_slope: steep,
                    trial_slope: mid,
                    total_elements: total,
                    undershoot,
                });
                if undershoot {
                    steep = mid;
                    lo_x = xs_mid;
                } else {
                    shallow = mid;
                    hi_x = xs_mid;
                }
                continue;
            }

            let xs_trial = intersections_at_slope(funcs, trial);
            let total: f64 = xs_trial.iter().sum();
            let undershoot = total < target;
            trace.iterations.push(IterationRecord {
                step,
                lower_slope: shallow,
                upper_slope: steep,
                trial_slope: trial,
                total_elements: total,
                undershoot,
            });
            if undershoot {
                steep = trial;
                lo_x = xs_trial;
            } else {
                shallow = trial;
                hi_x = xs_trial;
            }
        }
        Err(Error::NoConvergence { algorithm: "solution-space bisection", steps: budget })
    }
}

impl Partitioner for ModifiedPartitioner {
    fn partition<F: CostFunction>(&self, n: u64, funcs: &[F]) -> Result<PartitionReport> {
        validate_processors(funcs)?;
        if n == 0 {
            return Ok(empty_report(funcs.len()));
        }
        let bracket = bracket_slopes(n, funcs)?;
        self.partition_from_bracket(n, funcs, bracket, Trace::default())
    }

    fn resolve_from<F: CostFunction>(
        &self,
        prev: &Distribution,
        n: u64,
        funcs: &[F],
    ) -> Result<PartitionReport> {
        validate_processors(funcs)?;
        if n == 0 {
            return Ok(empty_report(funcs.len()));
        }
        let seed = match seed_slope(prev, funcs) {
            Some(s) => s,
            None => return self.partition(n, funcs),
        };
        // First-order rescale for the new size: the donor's slope balanced
        // `prev.total()` elements and the balanced total is inversely
        // proportional to the slope for locally flat graphs (exactly so for
        // constant speeds), so `seed·prev_total/n` centres the ε-bracket on
        // the expected optimum instead of on the donor's. `prev.total() > 0`
        // whenever the seed exists, and steeper-than-flat graphs only move
        // the optimum further in the same direction, which the bracket
        // widening covers.
        let seed = seed * (prev.total() as f64 / n as f64);
        match bracket_from_slope(n, funcs, seed) {
            Ok(bracket) => {
                let trace = Trace { warm_bracket: true, ..Trace::default() };
                self.partition_from_bracket(n, funcs, bracket, trace)
            }
            Err(_) => {
                let bracket = bracket_slopes(n, funcs)?;
                self.partition_from_bracket(n, funcs, bracket, Trace::default())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::BisectionPartitioner;
    use crate::speed::{AnalyticSpeed, ConstantSpeed};

    fn mixed_cluster() -> Vec<AnalyticSpeed> {
        vec![
            AnalyticSpeed::decreasing(200.0, 1e6, 2.0),
            AnalyticSpeed::saturating(150.0, 5e4),
            AnalyticSpeed::unimodal(250.0, 1e4, 5e6, 2.0),
            AnalyticSpeed::paging(300.0, 2e6, 3.0),
        ]
    }

    #[test]
    fn conserves_total() {
        let funcs = mixed_cluster();
        for n in [1u64, 17, 1000, 1_000_000, 123_456_789] {
            let r = ModifiedPartitioner::new().partition(n, &funcs).unwrap();
            assert_eq!(r.distribution.total(), n, "n = {n}");
        }
    }

    #[test]
    fn agrees_with_basic_bisection_on_makespan() {
        let funcs = mixed_cluster();
        for n in [1000u64, 50_000, 10_000_000] {
            let a = BisectionPartitioner::new().partition(n, &funcs).unwrap();
            let b = ModifiedPartitioner::new().partition(n, &funcs).unwrap();
            let rel = (a.makespan - b.makespan).abs() / a.makespan.max(b.makespan);
            assert!(rel < 1e-3, "n = {n}: basic {} vs modified {}", a.makespan, b.makespan);
        }
    }

    #[test]
    fn handles_exponential_tails_within_budget() {
        // The basic algorithm's worst case is the modified algorithm's
        // bread and butter: the step count stays O(p·log n).
        let funcs =
            vec![AnalyticSpeed::exp_tail(100.0, 10.0), AnalyticSpeed::exp_tail(100.0, 10.0)];
        let n = 2000;
        let r = ModifiedPartitioner::new().partition(n, &funcs).unwrap();
        assert_eq!(r.distribution.total(), n);
        let bound = 4 * funcs.len() * ((n + 2) as f64).log2().ceil() as usize + 64;
        assert!(r.trace.steps() <= bound, "{} steps exceeds budget {}", r.trace.steps(), bound);
        // Symmetric processors must receive a near-even split.
        let c = r.distribution.counts();
        assert!((c[0] as i64 - c[1] as i64).abs() <= 1, "{c:?}");
    }

    #[test]
    fn step_count_is_logarithmic_in_n() {
        let funcs = mixed_cluster();
        let small = ModifiedPartitioner::new().partition(10_000, &funcs).unwrap();
        let large = ModifiedPartitioner::new().partition(100_000_000, &funcs).unwrap();
        // log₂(1e8/1e4) ≈ 13.3: the large problem may take more steps, but
        // only by an O(p·log) factor, never proportionally to n.
        assert!(large.trace.steps() <= small.trace.steps() + 4 * funcs.len() * 16 + 16);
    }

    #[test]
    fn constant_speeds_reduce_to_proportional() {
        let funcs = vec![ConstantSpeed::new(100.0), ConstantSpeed::new(50.0)];
        let r = ModifiedPartitioner::new().partition(3000, &funcs).unwrap();
        assert_eq!(r.distribution.counts(), &[2000, 1000]);
    }

    #[test]
    fn tiny_problems_terminate() {
        let funcs = mixed_cluster();
        for n in 1..=8u64 {
            let r = ModifiedPartitioner::new().partition(n, &funcs).unwrap();
            assert_eq!(r.distribution.total(), n);
        }
    }

    #[test]
    fn warm_resolve_is_bit_identical_to_cold() {
        let funcs = mixed_cluster();
        let p = ModifiedPartitioner::new();
        let base = p.partition(10_000_000, &funcs).unwrap();
        for n in [10_000_000u64, 10_000_001, 9_999_000, 10_010_000, 2_000_000] {
            let cold = p.partition(n, &funcs).unwrap();
            let warm = p.resolve_from(&base.distribution, n, &funcs).unwrap();
            assert_eq!(cold.distribution, warm.distribution, "n = {n}");
            assert_eq!(cold.makespan.to_bits(), warm.makespan.to_bits(), "n = {n}");
            assert!(warm.trace.warm_bracket, "n = {n}: warm bracket not used");
        }
    }
}
