//! Geometric machinery: straight lines through the origin of the
//! (problem size, absolute speed) plane and their intersections with
//! processor speed graphs.
//!
//! Every partitioning algorithm in this crate searches for an *optimally
//! sloped* line `y = c·x`: a distribution is optimal exactly when the
//! points `(x_i, s_i(x_i))` of all processors lie on one such line
//! (paper Fig. 4), because then `x_i / s_i(x_i) = 1/c` for every `i` — all
//! processors finish simultaneously, and the common makespan is the
//! reciprocal of the slope.
//!
//! The shape assumption (`g(x) = s(x)/x` strictly decreasing) guarantees
//! that the intersection of any origin line with any graph is unique, which
//! makes [`intersect_origin_line`] a one-dimensional monotone root-finding
//! problem: a closed form where the model has one, otherwise a bracketed
//! regula falsi (Illinois) in log coordinates.
//!
//! The machinery is written against the time-domain [`CostFunction`]
//! contract: `g` is [`CostFunction::rate`] (`= 1/time(x)`), strictly
//! decreasing by the monotone-time invariant, and for speed-backed models
//! the blanket adapter makes `rate(x)` the literal `speed(x)/x` the
//! speed-domain search always computed. Solving `rate(x) = c` is solving
//! `time(x) = 1/c`: the line's slope *is* the reciprocal makespan.

use crate::cost::CostFunction;

/// Slope of the origin line passing through the point `(x, s)`.
///
/// The practical slope representation is the tangent `s/x`, which the paper
/// notes is preferable to angles "for efficiency from computational point
/// of view"; [`crate::partition::BisectionPartitioner`] can bisect either.
#[inline]
pub fn slope_through(x: f64, s: f64) -> f64 {
    s / x
}

/// Makespan (common execution time) of the distribution induced by an
/// origin line of slope `c`: every processor satisfies
/// `x_i/s_i(x_i) = 1/c`.
#[inline]
pub fn makespan_of_slope(slope: f64) -> f64 {
    1.0 / slope
}

/// Slope of the origin line whose induced distribution has makespan `t`.
#[inline]
pub fn slope_of_makespan(t: f64) -> f64 {
    1.0 / t
}

/// Upper bound on intersection abscissas, used to bracket searches on
/// functions with unbounded domain.
const X_CAP: f64 = 1e18;

/// Absolute abscissa below which an intersection is considered to be at the
/// origin (the line is steeper than the whole graph).
const X_ORIGIN: f64 = 1e-9;

/// Solves `s(x) = c·x` for the unique positive intersection abscissa.
///
/// Given the shape assumption, `g(x) = s(x)/x` is strictly decreasing, so
/// the solution is the unique root of `g(x) = c`:
///
/// * if even at vanishing sizes `g < c` (line steeper than the graph
///   everywhere — possible for saturating shapes whose graph passes through
///   the origin), the intersection degenerates to `0`;
/// * if `g > c` over the whole domain (line shallower than the graph — the
///   processor would need more elements than its model covers), the
///   abscissa is clamped to [`CostFunction::max_size`] (or to an internal
///   cap of `10^18` for unbounded models).
///
/// Models without a closed form are solved numerically on the bracket
/// `[10^-9, max_size]`, whose ends the two clamp tests above have already
/// evaluated. The inner solve is regula falsi on `ln g` against `ln x`,
/// where power-law and `x·log x` rates are nearly straight lines, so a
/// piece-wise sort or query model resolves in about a dozen evaluations.
/// An end that survives two steps in a row has its residual scaled down
/// (the Illinois rule, with the Anderson–Björck factor where it is
/// positive), which keeps kinks and jumps from stalling one side. A trial
/// that leaves the bracket, or a bracket that fails to halve within
/// four steps, takes a bisection step in `ln x` instead, so
/// convergence never depends on the interpolation. The search stops once
/// the bracket is narrower than `10^-9` relative (absolute below one
/// element) and returns its midpoint. The result depends only on
/// `(f, slope)`, never on earlier calls, so warm and cold solves see
/// identical intersections.
pub fn intersect_origin_line<F: CostFunction + ?Sized>(f: &F, slope: f64) -> f64 {
    assert!(slope.is_finite() && slope > 0.0, "slope must be positive and finite");
    let x_max = f.max_size().min(X_CAP);

    // Models with a closed-form intersection (piece-wise linear, constant)
    // skip the numeric search entirely — the dominant cost of every
    // partitioning iteration.
    if let Some(x) = f.intersect_slope(slope) {
        debug_assert!(x >= 0.0, "closed-form intersection must be non-negative");
        return x.min(x_max);
    }

    // The line is steeper than the graph already at vanishing size: the
    // only intersection is at the origin.
    let g_lo = f.rate(X_ORIGIN);
    if g_lo <= slope {
        return 0.0;
    }
    // The line never catches the graph within the model's domain.
    let g_hi = f.rate(x_max);
    if g_hi >= slope {
        return x_max;
    }

    // Invariant: g(lo) > slope > g(hi). `r_*` are the residuals
    // ln(g/slope) at the ends — positive at `lo`, negative at `hi`, and
    // infinite where `g` under- or overflows, which makes the step bisect.
    let residual = |g: f64| (g / slope).ln();
    let (mut lo, mut hi) = (X_ORIGIN, x_max);
    let (mut u_lo, mut u_hi) = (lo.ln(), hi.ln());
    let (mut r_lo, mut r_hi) = (residual(g_lo), residual(g_hi));
    // Which end the previous step replaced (+1 lo, -1 hi), for the
    // Illinois rule, and the bracket width (in ln x) at the last halving
    // check.
    let mut side = 0i8;
    let mut checkpoint = u_hi - u_lo;
    for step in 1..=200 {
        let tol = 1e-9 * hi.max(1.0);
        if hi - lo <= tol {
            break;
        }
        let mut u = u_hi - r_hi * (u_hi - u_lo) / (r_hi - r_lo);
        if step % HALVING_WINDOW == 0 {
            if u_hi - u_lo > 0.5 * checkpoint {
                u = f64::NAN;
            }
            checkpoint = u_hi - u_lo;
        }
        if !(u >= u_lo && u <= u_hi && (r_lo - r_hi).is_finite()) {
            u = 0.5 * (u_lo + u_hi);
        }
        // A trial within half a tolerance of an end is pushed to exactly
        // that distance: once the interpolation has converged on one side,
        // this closes the bracket on the other in a single step.
        let x = u.exp().max(lo + 0.5 * tol).min(hi - 0.5 * tol);
        let g = f.rate(x);
        if g == slope {
            return x;
        }
        let (u, r) = (x.ln(), residual(g));
        if g > slope {
            // Anderson–Björck: shrink the surviving end's residual by how
            // much this side's residual fell; plain halving otherwise.
            if side == 1 {
                let m = 1.0 - r / r_lo;
                r_hi *= if m > 0.0 { m } else { 0.5 };
            }
            (lo, u_lo, r_lo) = (x, u, r);
            side = 1;
        } else {
            if side == -1 {
                let m = 1.0 - r / r_hi;
                r_lo *= if m > 0.0 { m } else { 0.5 };
            }
            (hi, u_hi, r_hi) = (x, u, r);
            side = -1;
        }
    }
    0.5 * (lo + hi)
}

/// Steps of the numeric intersection after which its bracket must have
/// halved (in `ln x`); otherwise the next step bisects.
const HALVING_WINDOW: usize = 4;

/// Sum of the intersection abscissas of the line `y = slope·x` with every
/// processor graph: the total number of elements the line "distributes".
///
/// The search for the optimal line is a root-finding problem on this sum:
/// it is strictly decreasing in the slope, and the optimal slope makes it
/// equal to `n` (paper §2 step 2–3).
pub fn total_elements_at_slope<F: CostFunction>(funcs: &[F], slope: f64) -> f64 {
    funcs.iter().map(|f| intersect_origin_line(f, slope)).sum()
}

/// Intersection abscissas of the line with every processor graph.
pub fn intersections_at_slope<F: CostFunction>(funcs: &[F], slope: f64) -> Vec<f64> {
    funcs.iter().map(|f| intersect_origin_line(f, slope)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speed::{AnalyticSpeed, ConstantSpeed};

    #[test]
    fn constant_speed_intersection_is_exact() {
        // s(x) = 100, line y = c·x ⇒ x = 100/c.
        let f = ConstantSpeed::new(100.0);
        for &c in &[0.1, 1.0, 10.0] {
            let x = intersect_origin_line(&f, c);
            assert!((x - 100.0 / c).abs() < 1e-6 * (100.0 / c), "c={c}: x={x}");
        }
    }

    #[test]
    fn intersection_lies_on_both_curves() {
        let f = AnalyticSpeed::unimodal(250.0, 1e4, 5e6, 2.0);
        let c = 1e-4;
        let x = intersect_origin_line(&f, c);
        use crate::speed::SpeedFunction as _;
        assert!((f.speed(x) - c * x).abs() <= 1e-6 * f.speed(x).max(1.0));
    }

    #[test]
    fn steeper_line_gives_smaller_abscissa() {
        let f = AnalyticSpeed::decreasing(200.0, 1e6, 2.0);
        let x_steep = intersect_origin_line(&f, 1e-3);
        let x_shallow = intersect_origin_line(&f, 1e-5);
        assert!(x_steep < x_shallow);
    }

    #[test]
    fn saturating_shape_degenerates_to_origin_for_steep_lines() {
        // s(x) = 150·x/(x+1000): g(x) = 150/(x+1000) ≤ 0.15 everywhere.
        let f = AnalyticSpeed::saturating(150.0, 1000.0);
        assert_eq!(intersect_origin_line(&f, 0.2), 0.0);
        let x = intersect_origin_line(&f, 0.01);
        // 150/(x+1000) = 0.01 ⇒ x = 14000.
        assert!((x - 14_000.0).abs() < 1.0, "x = {x}");
    }

    #[test]
    fn bounded_model_clamps_to_max_size() {
        let f = crate::speed::PiecewiseLinearSpeed::new(vec![(10.0, 100.0), (1000.0, 50.0)])
            .unwrap();
        // Beyond the model, speed is clamped at 50; a shallow enough line
        // would intersect past 1000, so the abscissa clamps to max_size.
        let x = intersect_origin_line(&f, 1e-6);
        assert_eq!(x, 1000.0);
    }

    #[test]
    fn total_elements_decreases_with_slope() {
        let funcs = vec![
            AnalyticSpeed::constant(100.0),
            AnalyticSpeed::decreasing(200.0, 1e6, 2.0),
            AnalyticSpeed::paging(300.0, 2e6, 3.0),
        ];
        let hi = total_elements_at_slope(&funcs, 1e-5);
        let lo = total_elements_at_slope(&funcs, 1e-3);
        assert!(hi > lo, "sum of abscissas must decrease as the line steepens");
    }

    #[test]
    fn slope_makespan_roundtrip() {
        let t = 123.456;
        assert!((makespan_of_slope(slope_of_makespan(t)) - t).abs() < 1e-12);
    }

    #[test]
    fn intersections_match_individual_calls() {
        let funcs =
            vec![AnalyticSpeed::constant(10.0), AnalyticSpeed::decreasing(20.0, 1e4, 1.5)];
        let xs = intersections_at_slope(&funcs, 1e-3);
        assert_eq!(xs.len(), 2);
        assert_eq!(xs[0], intersect_origin_line(&funcs[0], 1e-3));
        assert_eq!(xs[1], intersect_origin_line(&funcs[1], 1e-3));
    }

    #[test]
    #[should_panic(expected = "slope")]
    fn rejects_non_positive_slope() {
        intersect_origin_line(&ConstantSpeed::new(1.0), 0.0);
    }

    #[test]
    fn pure_cost_models_intersect_in_the_time_domain() {
        // Numeric path: time(x) = x²/1e4 has no closed form here, and
        // rate(x) = 1e4/x² is strictly decreasing. The line y = c·x meets
        // the throughput curve where time(x) = 1/c.
        struct Quadratic;
        impl crate::cost::CostFunction for Quadratic {
            fn time(&self, x: f64) -> f64 {
                if x <= 0.0 {
                    0.0
                } else {
                    x * x / 1e4
                }
            }
        }
        let c = 0.5; // makespan 2 ⇒ x = sqrt(2·1e4) ≈ 141.42
        let x = intersect_origin_line(&Quadratic, c);
        assert!((Quadratic.time(x) - 2.0).abs() < 1e-6, "x = {x}");

        // Closed-form path: measured (size, time) knots invert exactly.
        let f = crate::cost::PiecewiseLinearCost::new(vec![(100.0, 1.0), (1000.0, 25.0)])
            .unwrap();
        let x = intersect_origin_line(&f, 1.0); // time(x) = 1 ⇒ first knot
        assert!((x - 100.0).abs() < 1e-9, "x = {x}");
        assert_eq!(intersect_origin_line(&f, 1e-9), 1000.0, "clamps to max_size");
    }

    #[test]
    fn exp_tail_far_intersections_are_resolved() {
        // The basic algorithm's worst case must still be *solvable* by the
        // intersection primitive.
        let f = AnalyticSpeed::exp_tail(100.0, 1e4);
        let x = intersect_origin_line(&f, 1e-12);
        use crate::speed::SpeedFunction as _;
        assert!((f.speed(x) - 1e-12 * x).abs() <= 1e-6 * (1e-12 * x).max(1e-300));
    }

    /// Hides a model's closed-form intersection, so the numeric search
    /// runs over it, and counts the `rate` evaluations it makes.
    struct Numeric<'a> {
        inner: &'a dyn CostFunction,
        evals: std::cell::Cell<usize>,
    }

    impl<'a> Numeric<'a> {
        fn new(inner: &'a dyn CostFunction) -> Self {
            Self { inner, evals: std::cell::Cell::new(0) }
        }

        /// Intersects and returns `(abscissa, evaluations)`.
        fn intersect(&self, slope: f64) -> (f64, usize) {
            self.evals.set(0);
            let x = intersect_origin_line(self, slope);
            (x, self.evals.get())
        }
    }

    impl CostFunction for Numeric<'_> {
        fn time(&self, x: f64) -> f64 {
            self.inner.time(x)
        }
        fn max_size(&self) -> f64 {
            self.inner.max_size()
        }
        fn throughput(&self, x: f64) -> f64 {
            self.inner.throughput(x)
        }
        fn rate(&self, x: f64) -> f64 {
            self.evals.set(self.evals.get() + 1);
            self.inner.rate(x)
        }
    }

    /// `x` must be the root of `rate = slope` to within the search's
    /// relative tolerance, or one of the two clamps.
    fn assert_root(f: &dyn CostFunction, slope: f64, x: f64) {
        let x_max = f.max_size().min(X_CAP);
        if x == 0.0 {
            assert!(f.rate(X_ORIGIN) <= slope, "origin clamp at slope {slope}");
        } else if x == x_max {
            assert!(f.rate(x_max) >= slope, "max_size clamp at slope {slope}");
        } else {
            assert!(x > 0.0 && x < x_max, "x = {x} outside (0, {x_max})");
            let tol = 1e-9 * x.max(1.0);
            assert!(f.rate(x - tol) >= slope, "x = {x} right of the root of slope {slope}");
            assert!(f.rate(x + tol) <= slope, "x = {x} left of the root of slope {slope}");
        }
    }

    /// Slopes whose roots are log-spaced over `[lo, hi]`, plus one past
    /// each clamp.
    fn probe_slopes(f: &dyn CostFunction, lo: f64, hi: f64) -> Vec<f64> {
        let mut slopes: Vec<f64> = (0..=40)
            .map(|k| f.rate(lo * (hi / lo).powf(k as f64 / 40.0)))
            .collect();
        slopes.push(f.rate(X_ORIGIN) * 2.0);
        slopes.push(f.rate(f.max_size().min(X_CAP)) * 0.5);
        slopes.retain(|&c| c.is_finite() && c > 0.0);
        slopes
    }

    fn speed_knots() -> crate::speed::PiecewiseLinearSpeed {
        crate::speed::PiecewiseLinearSpeed::new(vec![
            (1e4, 180.0),
            (1e6, 175.0),
            (2e7, 160.0),
            (4e7, 140.0),
            (8e7, 40.0),
            (1.6e8, 0.0),
        ])
        .unwrap()
    }

    fn cost_knots() -> crate::cost::PiecewiseLinearCost {
        crate::cost::PiecewiseLinearCost::new(vec![
            (1e3, 0.02),
            (1e5, 2.5),
            (1e6, 40.0),
            (1e7, 700.0),
            (1e8, 12_000.0),
        ])
        .unwrap()
    }

    #[test]
    fn numeric_search_matches_the_closed_forms() {
        let speed = speed_knots();
        let cost = cost_knots();
        let models: [&dyn CostFunction; 2] = [&speed, &cost];
        for f in models {
            let hidden = Numeric::new(f);
            for c in probe_slopes(f, 1.0, f.max_size()) {
                let exact = intersect_origin_line(f, c);
                let (x, _) = hidden.intersect(c);
                assert_root(f, c, x);
                assert!(
                    (x - exact).abs() <= 1e-9 * exact.max(1.0),
                    "slope {c}: numeric {x} vs closed form {exact}"
                );
            }
        }
    }

    #[test]
    fn sort_and_query_costs_resolve_in_few_evaluations() {
        use crate::cost::{QueryCost, SortCost};
        let speed = speed_knots();
        let cost = cost_knots();
        let bases: [&dyn CostFunction; 2] = [&speed, &cost];
        for base in bases {
            let sort = SortCost::new(base);
            let query = QueryCost::new(base, 0.5);
            let models: [&dyn CostFunction; 2] = [&sort, &query];
            for f in models {
                let counted = Numeric::new(f);
                let mut worst = 0;
                for c in probe_slopes(f, 1.0, f.max_size()) {
                    let (x, evals) = counted.intersect(c);
                    assert_root(f, c, x);
                    worst = worst.max(evals);
                }
                assert!(worst <= 20, "{worst} evaluations for one intersection");
            }
        }
    }

    #[test]
    fn unbounded_analytic_shapes_resolve_and_clamp() {
        let shapes = [
            AnalyticSpeed::constant(100.0),
            AnalyticSpeed::decreasing(200.0, 1e6, 2.0),
            AnalyticSpeed::saturating(150.0, 5e4),
            AnalyticSpeed::unimodal(250.0, 1e4, 5e6, 2.0),
            AnalyticSpeed::paging(300.0, 2e6, 3.0),
            AnalyticSpeed::exp_tail(100.0, 1e4),
            AnalyticSpeed::step_levels(vec![(1e4, 300.0), (1e6, 120.0), (1e8, 30.0)]),
        ];
        for shape in &shapes {
            let counted = Numeric::new(shape);
            let mut worst = 0;
            // exp_tail's rate underflows past ~700 scales.
            for c in probe_slopes(shape, 1e-3, 1e12) {
                let (x, evals) = counted.intersect(c);
                assert_root(shape, c, x);
                worst = worst.max(evals);
            }
            // Flat (saturating) and stepped rates lean on the bisection
            // safeguard; even they stay far below the step cap.
            assert!(worst <= 40, "{shape:?}: {worst} evaluations for one intersection");
        }
        // Saturating graphs pass through the origin: a line steeper than
        // the graph everywhere meets it only there.
        let saturating = &shapes[2];
        assert_eq!(intersect_origin_line(saturating, 1.0), 0.0);
    }
}
