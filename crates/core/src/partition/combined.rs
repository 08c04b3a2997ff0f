//! The combined algorithm (paper Fig. 15).
//!
//! The basic and the modified algorithms have complementary strengths: for
//! most real-life problems the optimal line lies in a region where the
//! speed graphs have polynomial slopes and the basic algorithm converges in
//! `O(p·log n)`; for very large problem sizes the graphs "tend to be
//! horizontal" where the optimal slope can be exponentially smaller than
//! the initial bracket and the modified algorithm's shape-independent
//! `O(p²·log n)` bound wins.
//!
//! The combined strategy performs the first slope bisection, determines in
//! which half the optimum lies, and then:
//!
//! * **upper half** (steeper slopes) *and* all graphs locally non-flat at
//!   the trial intersections → continue with the basic algorithm;
//! * otherwise (lower half, or some graph nearly horizontal at its
//!   intersection) → switch to the modified algorithm.
//!
//! As a safety net beyond the paper, if the basic stage exhausts its step
//! budget the combined partitioner falls back to the modified algorithm
//! rather than failing.

use super::bisection::BisectionPartitioner;
use super::initial::{bracket_from_slope_probed, bracket_slopes, SlopeBracket};
use super::modified::ModifiedPartitioner;
use super::problem::{
    empty_report, seed_slope, validate_processors, Distribution, PartitionReport, Partitioner,
};
use crate::error::{Error, Result};
use crate::geometry::intersections_at_slope;
use crate::cost::CostFunction;
use crate::trace::{IterationRecord, Trace};

/// Which algorithm the combined strategy selected for a given problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombinedChoice {
    /// The basic slope-bisection algorithm was used.
    Basic,
    /// The modified solution-space algorithm was used.
    Modified,
    /// The basic stage ran out of steps and the modified algorithm
    /// finished the job.
    FallbackToModified,
}

/// The hybrid partitioner of paper Fig. 15.
#[derive(Debug, Clone, Copy)]
pub struct CombinedPartitioner {
    /// Relative-log-derivative threshold below which a graph counts as
    /// "horizontal" at an intersection point: the graph is flat when
    /// `|s'(x)|·x / s(x)` is below this value.
    pub flatness_threshold: f64,
    /// Step budget handed to the basic stage before falling back.
    pub basic_step_budget: usize,
}

impl Default for CombinedPartitioner {
    fn default() -> Self {
        Self { flatness_threshold: 0.02, basic_step_budget: 4096 }
    }
}

impl CombinedPartitioner {
    /// Creates the partitioner with default thresholds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Numerical relative log-derivative `|s'(x)|·x/s(x)` of `f`'s
    /// throughput curve at `x`.
    fn relative_slope<F: CostFunction>(f: &F, x: f64) -> f64 {
        if x <= 0.0 {
            return f64::INFINITY;
        }
        let h = (x * 1e-4).max(1e-6);
        let s = f.throughput(x);
        if s <= 0.0 {
            return 0.0;
        }
        let ds = (f.throughput(x + h) - f.throughput((x - h).max(0.0))) / (2.0 * h);
        (ds * x / s).abs()
    }

    /// Partitions `n` elements and additionally reports which algorithm
    /// the strategy chose.
    pub fn partition_explain<F: CostFunction>(
        &self,
        n: u64,
        funcs: &[F],
    ) -> Result<(PartitionReport, CombinedChoice)> {
        validate_processors(funcs)?;
        if n == 0 {
            return Ok((empty_report(funcs.len()), CombinedChoice::Basic));
        }
        let target = n as f64;
        let bracket = bracket_slopes(n, funcs)?;

        // Probing step: one slope bisection of the initial region.
        let trial = 0.5 * (bracket.shallow + bracket.steep);
        let xs = intersections_at_slope(funcs, trial);
        let total: f64 = xs.iter().sum();
        let undershoot = total < target;
        let mut trace = Trace::default();
        trace.iterations.push(IterationRecord {
            step: 1,
            lower_slope: bracket.shallow,
            upper_slope: bracket.steep,
            trial_slope: trial,
            total_elements: total,
            undershoot,
        });
        let refined = if undershoot {
            SlopeBracket { shallow: bracket.shallow, steep: trial }
        } else {
            SlopeBracket { shallow: trial, steep: bracket.steep }
        };

        // Decision rule of Fig. 15: upper half with non-flat intersections
        // → basic; otherwise → modified.
        let any_flat = funcs
            .iter()
            .zip(&xs)
            .any(|(f, &x)| Self::relative_slope(f, x) < self.flatness_threshold);
        let use_basic = !undershoot && !any_flat;

        if use_basic {
            let basic = BisectionPartitioner::new().with_max_steps(self.basic_step_budget);
            match basic.partition_from_bracket(n, funcs, refined, trace.clone()) {
                Ok(report) => return Ok((report, CombinedChoice::Basic)),
                Err(Error::NoConvergence { .. }) => {
                    let report = ModifiedPartitioner::new()
                        .partition_from_bracket(n, funcs, refined, trace)?;
                    return Ok((report, CombinedChoice::FallbackToModified));
                }
                Err(e) => return Err(e),
            }
        }
        let report =
            ModifiedPartitioner::new().partition_from_bracket(n, funcs, refined, trace)?;
        Ok((report, CombinedChoice::Modified))
    }

    /// The warm path: basic bisection from the seeded bracket, modified as
    /// the usual safety net. `None` when the seed yields no bracket.
    fn resolve_from_inner<F: CostFunction>(
        &self,
        n: u64,
        funcs: &[F],
        seed: f64,
    ) -> Option<Result<PartitionReport>> {
        let (bracket, probes) = match bracket_from_slope_probed(n, funcs, seed) {
            Ok(seeded) => seeded,
            Err(_) => return None,
        };
        let trace = Trace { warm_bracket: true, ..Trace::default() };
        let basic = BisectionPartitioner::new().with_max_steps(self.basic_step_budget);
        match basic.resolve_from_bracket_probed(n, funcs, bracket, trace.clone(), probes) {
            Ok(report) => Some(Ok(report)),
            Err(Error::NoConvergence { .. }) => {
                Some(ModifiedPartitioner::new().partition_from_bracket(n, funcs, bracket, trace))
            }
            Err(e) => Some(Err(e)),
        }
    }
}

impl Partitioner for CombinedPartitioner {
    fn partition<F: CostFunction>(&self, n: u64, funcs: &[F]) -> Result<PartitionReport> {
        self.partition_explain(n, funcs).map(|(report, _)| report)
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
        match self.resolve_from_inner(n, funcs, seed) {
            Some(result) => result,
            None => self.partition(n, funcs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn conserves_total_across_sizes() {
        let funcs = mixed_cluster();
        for n in [1u64, 5, 999, 77_777, 10_000_000, 2_000_000_000] {
            let r = CombinedPartitioner::new().partition(n, &funcs).unwrap();
            assert_eq!(r.distribution.total(), n, "n = {n}");
        }
    }

    #[test]
    fn worst_case_shape_is_delegated_to_modified() {
        let funcs =
            vec![AnalyticSpeed::exp_tail(100.0, 10.0), AnalyticSpeed::exp_tail(100.0, 10.0)];
        let (r, choice) = CombinedPartitioner::new().partition_explain(2000, &funcs).unwrap();
        assert_eq!(r.distribution.total(), 2000);
        assert!(
            choice != CombinedChoice::Basic,
            "flat exponential tails must not be handled by plain slope bisection"
        );
    }

    #[test]
    fn matches_modified_makespan() {
        let funcs = mixed_cluster();
        for n in [12_345u64, 6_000_000] {
            let a = CombinedPartitioner::new().partition(n, &funcs).unwrap();
            let b = ModifiedPartitioner::new().partition(n, &funcs).unwrap();
            let rel = (a.makespan - b.makespan).abs() / a.makespan.max(b.makespan);
            assert!(rel < 1e-3, "n = {n}");
        }
    }

    #[test]
    fn explain_reports_basic_for_polynomial_slopes() {
        // An upper-half problem with non-flat graphs: the probe line's
        // total exceeds n when the mean speed exceeds the midrange of the
        // probed speeds (one slow machine, several fast ones), and a
        // polynomially decreasing shape keeps the relative slope above the
        // flatness threshold.
        let funcs = vec![
            AnalyticSpeed::decreasing(50.0, 2e7, 2.0),
            AnalyticSpeed::decreasing(100.0, 2e7, 2.0),
            AnalyticSpeed::decreasing(100.0, 2e7, 2.0),
            AnalyticSpeed::decreasing(100.0, 2e7, 2.0),
        ];
        let (r, choice) = CombinedPartitioner::new().partition_explain(20_000_000, &funcs).unwrap();
        assert_eq!(r.distribution.total(), 20_000_000);
        assert_eq!(choice, CombinedChoice::Basic);
    }

    #[test]
    fn constant_speeds_choose_modified_and_stay_proportional() {
        // Constant graphs are maximally flat: the decision rule must route
        // them to the modified algorithm, which still yields the exact
        // proportional split.
        let funcs = vec![ConstantSpeed::new(100.0), ConstantSpeed::new(50.0)];
        let (r, choice) = CombinedPartitioner::new().partition_explain(3000, &funcs).unwrap();
        assert_eq!(r.distribution.counts(), &[2000, 1000]);
        assert_eq!(choice, CombinedChoice::Modified);
    }

    #[test]
    fn zero_elements() {
        let funcs = mixed_cluster();
        let r = CombinedPartitioner::new().partition(0, &funcs).unwrap();
        assert_eq!(r.distribution.total(), 0);
    }

    #[test]
    fn warm_resolve_is_bit_identical_to_cold() {
        let funcs = mixed_cluster();
        let p = CombinedPartitioner::new();
        let base = p.partition(10_000_000, &funcs).unwrap();
        for n in [10_000_000u64, 10_000_001, 9_999_000, 10_010_000, 2_000_000] {
            let cold = p.partition(n, &funcs).unwrap();
            let warm = p.resolve_from(&base.distribution, n, &funcs).unwrap();
            assert_eq!(cold.distribution, warm.distribution, "n = {n}");
            assert_eq!(cold.makespan.to_bits(), warm.makespan.to_bits(), "n = {n}");
            assert!(warm.trace.warm_bracket, "n = {n}: warm bracket not used");
        }
    }

    #[test]
    fn warm_resolve_survives_flat_graphs() {
        // Constant graphs route the cold path to the modified algorithm;
        // the warm path's basic stage must still land on the same integer
        // split (the fine-tune is bracket-independent).
        let funcs = vec![ConstantSpeed::new(100.0), ConstantSpeed::new(50.0)];
        let p = CombinedPartitioner::new();
        let base = p.partition(3000, &funcs).unwrap();
        let warm = p.resolve_from(&base.distribution, 3003, &funcs).unwrap();
        let cold = p.partition(3003, &funcs).unwrap();
        assert_eq!(cold.distribution, warm.distribution);
        assert_eq!(cold.makespan.to_bits(), warm.makespan.to_bits());
    }
}
