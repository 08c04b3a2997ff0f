//! The basic (slope) bisection algorithm (paper §2, Figs. 7–8).
//!
//! The region between the two initial lines is repeatedly bisected by a
//! line through the origin. If the sum of the intersection abscissas of the
//! trial line is smaller than `n`, the optimum lies in the lower (shallower
//! slope) region, otherwise in the upper region. The iteration stops when
//! no integer-abscissa point of any graph remains strictly inside the
//! region, after which the fine-tuning procedure picks the integer
//! allocation.
//!
//! Complexity: each step costs `O(p)` intersection computations. When the
//! optimal slope decreases polynomially with `n` (`θ_opt(n) = O(n^−k)`)
//! the number of steps is `O(k·log₂ n)`, giving `O(p·log n)` total — the
//! best case quoted in the paper. When the optimal slope decreases
//! exponentially (`θ_opt(n) = O(e^−n)`, see
//! [`crate::speed::AnalyticSpeed::exp_tail`]) the step count degenerates to
//! `O(n)` — the case that motivates the
//! [modified algorithm](super::ModifiedPartitioner).

use super::fine_tune::fine_tune;
use super::initial::{bracket_from_slope_probed, bracket_slopes, BracketProbes, SlopeBracket};
use super::problem::{
    empty_report, seed_slope, validate_processors, Distribution, PartitionReport, Partitioner,
};
use crate::error::{Error, Result};
use crate::geometry::intersections_at_slope;
use crate::cost::CostFunction;
use crate::trace::{IterationRecord, Trace};

/// How the trial slope is chosen from the two bounding slopes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SlopeMode {
    /// Arithmetic mean of the tangents — what the paper recommends for
    /// practical implementations ("slopes that are tangents can be used
    /// instead of angles for efficiency from computational point of view").
    #[default]
    Tangent,
    /// Mean of the angles (the paper's geometric formulation, Fig. 7):
    /// `θ = (θ₁+θ₂)/2`, trial slope `tan θ`.
    Angle,
    /// Geometric mean of the tangents (an extension beyond the paper):
    /// halves the *ratio* of the slopes each step, which keeps the step
    /// count logarithmic even for exponentially decaying speed functions.
    Geometric,
}

impl SlopeMode {
    /// The trial slope between `shallow` and `steep`.
    pub fn trial(&self, shallow: f64, steep: f64) -> f64 {
        match self {
            SlopeMode::Tangent => 0.5 * (shallow + steep),
            SlopeMode::Angle => (0.5 * (shallow.atan() + steep.atan())).tan(),
            SlopeMode::Geometric => (shallow * steep).sqrt(),
        }
    }
}

/// The basic slope-bisection partitioner.
#[derive(Debug, Clone, Copy)]
pub struct BisectionPartitioner {
    /// Trial-slope rule.
    pub slope_mode: SlopeMode,
    /// Step budget before giving up with [`Error::NoConvergence`]. The
    /// default (100 000) is far beyond any polynomial-slope workload and
    /// exists to surface the algorithm's documented worst case instead of
    /// hanging.
    pub max_steps: usize,
}

impl Default for BisectionPartitioner {
    fn default() -> Self {
        Self { slope_mode: SlopeMode::default(), max_steps: 100_000 }
    }
}

impl BisectionPartitioner {
    /// Creates the partitioner with the paper's tangent-bisection rule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the trial-slope rule.
    pub fn with_slope_mode(mut self, mode: SlopeMode) -> Self {
        self.slope_mode = mode;
        self
    }

    /// Sets the step budget.
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        assert!(max_steps > 0);
        self.max_steps = max_steps;
        self
    }

    /// Runs the search from an explicit slope bracket (used by the combined
    /// algorithm to resume after its probing step).
    pub fn partition_from_bracket<F: CostFunction>(
        &self,
        n: u64,
        funcs: &[F],
        bracket: SlopeBracket,
        trace: Trace,
    ) -> Result<PartitionReport> {
        self.search_from_bracket(n, funcs, bracket, trace, false, None)
    }

    /// The warm-start narrowing: like [`Self::partition_from_bracket`] but
    /// the trial slope is chosen by regula falsi (with the Illinois
    /// anti-stagnation rule) on the element totals instead of the midpoint.
    /// A warm bracket already sits within a few parts-per-thousand of the
    /// optimum where the total is locally near-linear in the slope, so
    /// interpolation lands within float resolution in a handful of steps
    /// where bisection needs `O(log n)`. The integer result is unchanged:
    /// the stopping criterion and the fine-tuning are identical, and the
    /// fine-tuning's greedy fill converges to the same allocation from any
    /// valid bracket.
    pub fn resolve_from_bracket<F: CostFunction>(
        &self,
        n: u64,
        funcs: &[F],
        bracket: SlopeBracket,
        trace: Trace,
    ) -> Result<PartitionReport> {
        self.search_from_bracket(n, funcs, bracket, trace, true, None)
    }

    /// [`Self::resolve_from_bracket`] with the bracket-establishing
    /// intersection sweeps already in hand (from
    /// [`bracket_from_slope_probed`]), so the search skips its two endpoint
    /// sweeps. The probes were evaluated at exactly the bracket's bounds,
    /// so seeding them is bit-identical to re-sweeping.
    pub(crate) fn resolve_from_bracket_probed<F: CostFunction>(
        &self,
        n: u64,
        funcs: &[F],
        bracket: SlopeBracket,
        trace: Trace,
        probes: BracketProbes,
    ) -> Result<PartitionReport> {
        self.search_from_bracket(n, funcs, bracket, trace, true, Some(probes))
    }

    fn search_from_bracket<F: CostFunction>(
        &self,
        n: u64,
        funcs: &[F],
        bracket: SlopeBracket,
        mut trace: Trace,
        interpolate: bool,
        probes: Option<BracketProbes>,
    ) -> Result<PartitionReport> {
        let target = n as f64;
        let mut shallow = bracket.shallow;
        let mut steep = bracket.steep;
        // The bounding lines' intersections are cached: after each step one
        // bound inherits the trial line's freshly computed abscissas, so
        // every iteration costs p intersection searches instead of 3p.
        let (mut lo_x, mut hi_x) = match probes {
            Some((lo_x, hi_x)) => (lo_x, hi_x),
            None => (
                intersections_at_slope(funcs, steep),
                intersections_at_slope(funcs, shallow),
            ),
        };
        // Bracket-end residuals for the regula-falsi trial: `f_shallow ≥ 0`
        // (the shallow line overshoots the target), `f_steep ≤ 0`. `side`
        // remembers which bound the previous step replaced so the Illinois
        // rule can halve the residual of a bound that survives twice in a
        // row, which prevents one-sided stagnation.
        let mut f_shallow = hi_x.iter().sum::<f64>() - target;
        let mut f_steep = lo_x.iter().sum::<f64>() - target;
        let mut side = 0i8;

        for step in 1..=self.max_steps {
            // Stopping criterion (paper §2): every per-processor interval
            // shorter than one element, i.e. no integer point strictly
            // inside the region — plus a float-resolution guard.
            let open = lo_x
                .iter()
                .zip(&hi_x)
                .any(|(&l, &h)| h - l >= 1.0);
            let resolution_exhausted = steep - shallow <= f64::EPSILON * steep;
            if !open || resolution_exhausted {
                let distribution = fine_tune(n, funcs, &lo_x, &hi_x);
                return Ok(PartitionReport::from_distribution(distribution, funcs, trace));
            }

            let mut trial = f64::NAN;
            if interpolate {
                // Regula falsi: the root of the (monotone) total-vs-slope
                // residual, linearly interpolated between the bounds.
                let denom = f_steep - f_shallow;
                if denom < 0.0 {
                    trial = (shallow * f_steep - steep * f_shallow) / denom;
                }
            }
            if !(trial > shallow && trial < steep) {
                trial = self.slope_mode.trial(shallow, steep);
            }
            if !(trial > shallow && trial < steep) {
                // Numerically stuck between representable slopes.
                let distribution = fine_tune(n, funcs, &lo_x, &hi_x);
                return Ok(PartitionReport::from_distribution(distribution, funcs, trace));
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
                // Too few elements: the optimal line is shallower.
                steep = trial;
                lo_x = xs_trial;
                f_steep = total - target;
                if side == -1 {
                    f_shallow *= 0.5;
                }
                side = -1;
            } else {
                shallow = trial;
                hi_x = xs_trial;
                f_shallow = total - target;
                if side == 1 {
                    f_steep *= 0.5;
                }
                side = 1;
            }
        }
        Err(Error::NoConvergence { algorithm: "slope bisection", steps: self.max_steps })
    }
}

impl Partitioner for BisectionPartitioner {
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
        match bracket_from_slope_probed(n, funcs, seed) {
            Ok((bracket, probes)) => {
                let trace = Trace { warm_bracket: true, ..Trace::default() };
                self.resolve_from_bracket_probed(n, funcs, bracket, trace, probes)
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
            let r = BisectionPartitioner::new().partition(n, &funcs).unwrap();
            assert_eq!(r.distribution.total(), n, "n = {n}");
        }
    }

    #[test]
    fn constant_speeds_reduce_to_proportional() {
        let funcs = vec![ConstantSpeed::new(100.0), ConstantSpeed::new(50.0)];
        let r = BisectionPartitioner::new().partition(3000, &funcs).unwrap();
        assert_eq!(r.distribution.counts(), &[2000, 1000]);
    }

    #[test]
    fn equalises_execution_times() {
        let funcs = mixed_cluster();
        let r = BisectionPartitioner::new().partition(10_000_000, &funcs).unwrap();
        let times = r.distribution.times(&funcs);
        let max = times.iter().cloned().fold(f64::MIN, f64::max);
        let min = times.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            (max - min) / max < 0.01,
            "optimal distribution equalises times: {times:?}"
        );
    }

    #[test]
    fn trace_records_monotone_bracket() {
        let funcs = mixed_cluster();
        let r = BisectionPartitioner::new().partition(5_000_000, &funcs).unwrap();
        assert!(!r.trace.iterations.is_empty());
        for w in r.trace.iterations.windows(2) {
            assert!(w[1].lower_slope >= w[0].lower_slope);
            assert!(w[1].upper_slope <= w[0].upper_slope);
        }
    }

    #[test]
    fn angle_and_tangent_agree_for_small_slopes() {
        // Realistic slopes are ≈ speed/size ≈ 1e-4..1e-7 where tan θ ≈ θ.
        let funcs = mixed_cluster();
        let t = BisectionPartitioner::new()
            .with_slope_mode(SlopeMode::Tangent)
            .partition(10_000_000, &funcs)
            .unwrap();
        let a = BisectionPartitioner::new()
            .with_slope_mode(SlopeMode::Angle)
            .partition(10_000_000, &funcs)
            .unwrap();
        assert_eq!(t.distribution, a.distribution);
    }

    #[test]
    fn exp_tail_exhausts_arithmetic_bisection_but_not_geometric() {
        // The paper's worst case: exponentially decaying speeds make the
        // optimal slope exponentially small; arithmetic slope bisection
        // needs O(n) steps while the geometric-mean extension stays
        // logarithmic. The two decay scales must differ so that the initial
        // probe does not accidentally hit the optimum.
        let funcs =
            vec![AnalyticSpeed::exp_tail(100.0, 40.0), AnalyticSpeed::exp_tail(100.0, 100.0)];
        let n = 20_000;
        let budget = 64;
        let arith = BisectionPartitioner::new()
            .with_max_steps(budget)
            .partition(n, &funcs);
        assert!(
            matches!(arith, Err(Error::NoConvergence { .. })),
            "arithmetic bisection should blow the small budget: {arith:?}"
        );
        let geo = BisectionPartitioner::new()
            .with_slope_mode(SlopeMode::Geometric)
            .with_max_steps(budget)
            .partition(n, &funcs)
            .unwrap();
        assert_eq!(geo.distribution.total(), n);
    }

    #[test]
    fn single_processor_takes_everything() {
        let funcs = vec![AnalyticSpeed::decreasing(100.0, 1e5, 2.0)];
        let r = BisectionPartitioner::new().partition(777, &funcs).unwrap();
        assert_eq!(r.distribution.counts(), &[777]);
    }

    #[test]
    fn empty_processors_error() {
        let funcs: Vec<ConstantSpeed> = vec![];
        assert!(matches!(
            BisectionPartitioner::new().partition(5, &funcs),
            Err(Error::NoProcessors)
        ));
    }

    #[test]
    fn warm_resolve_is_bit_identical_to_cold() {
        let funcs = mixed_cluster();
        let p = BisectionPartitioner::new();
        let base = p.partition(10_000_000, &funcs).unwrap();
        // Near-duplicate sizes around the donor, plus a far one to force the
        // widening path; all must match cold solves exactly.
        for n in [10_000_000u64, 10_000_001, 9_999_000, 10_010_000, 2_000_000] {
            let cold = p.partition(n, &funcs).unwrap();
            let warm = p.resolve_from(&base.distribution, n, &funcs).unwrap();
            assert_eq!(cold.distribution, warm.distribution, "n = {n}");
            assert_eq!(cold.makespan.to_bits(), warm.makespan.to_bits(), "n = {n}");
            assert!(warm.trace.warm_bracket, "n = {n}: warm bracket not used");
        }
    }

    #[test]
    fn warm_resolve_falls_back_on_empty_donor() {
        let funcs = mixed_cluster();
        let p = BisectionPartitioner::new();
        let empty = Distribution::new(vec![0; funcs.len()]);
        let cold = p.partition(1_000_000, &funcs).unwrap();
        let warm = p.resolve_from(&empty, 1_000_000, &funcs).unwrap();
        assert_eq!(cold.distribution, warm.distribution);
        assert!(!warm.trace.warm_bracket);
    }
}
