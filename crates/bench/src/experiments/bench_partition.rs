//! `bench_partition` — the performance-engineering acceptance run.
//!
//! Times the three optimised paths of this repository against their
//! sequential/unoptimised counterparts, without Criterion (so the numbers
//! land in a machine-readable artifact):
//!
//! * `CombinedPartitioner::partition` on the fig21 synthetic cluster at
//!   `p = 1080`, `n = 2·10⁹`, with closed-form intersections against the
//!   same models solved through the numeric intersection search;
//! * whole-cluster model building (paper §3.1) on the Table 2 testbed,
//!   pooled vs sequential;
//! * the packed `matmul_abt_blocked` kernel vs the seed's plain tiled
//!   triple loop at `n = 512`.
//!
//! Besides the usual CSV report, the run writes `BENCH_partition.json`
//! with the raw medians in nanoseconds.

use std::time::Instant;

use fpm_core::partition::{CombinedPartitioner, Partitioner, SortSamplePartitioner};
use fpm_core::speed::builder::BuilderConfig;
use fpm_core::speed::{PiecewiseLinearSpeed, SpeedFunction};
use fpm_exec::model_build::{build_cluster_models, build_cluster_models_seq};
use fpm_kernels::matmul::{matmul_abt_blocked, matmul_abt_blocked_loop, DEFAULT_TILE};
use fpm_kernels::matrix::Matrix;
use fpm_simnet::fluctuation::Integration;
use fpm_simnet::machine::MachineSpec;
use fpm_simnet::profile::AppProfile;
use fpm_simnet::testbeds;

use fpm_serve::json::Json;

use super::fig21::synthetic_cluster;
use crate::report::{fnum, write_bench_json, Report};

/// A view of a model that hides its closed-form intersection and batched
/// evaluation overrides: every intersection goes through the numeric
/// search of `geometry::intersect_origin_line`, every speed is evaluated
/// point-wise.
struct SeedView<'a>(&'a PiecewiseLinearSpeed);

impl SpeedFunction for SeedView<'_> {
    fn speed(&self, x: f64) -> f64 {
        self.0.speed(x)
    }
    fn max_size(&self) -> f64 {
        self.0.max_size()
    }
}

/// Processor count of the headline partitioning measurement.
pub const BENCH_P: usize = 1080;
/// Problem size of the headline partitioning measurement.
pub const BENCH_N: u64 = 2_000_000_000;
/// Matrix dimension of the kernel measurement.
pub const BENCH_MM_N: usize = 512;

/// Raw medians, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct BenchPartitionResults {
    /// `partition(n, funcs)` with every optimisation on (the default):
    /// closed-form intersections and batched lookups.
    pub partition_optimized_ns: u128,
    /// The same solve with the closed forms hidden: numeric search per
    /// intersection, point-wise probes (see `SeedView`).
    pub partition_seed_ns: u128,
    /// Cold solve of the near-duplicate size (`BENCH_N + BENCH_N/1000`):
    /// full bracket construction plus the `O(log n)` slope search.
    pub partition_cold_near_ns: u128,
    /// Warm solve of the same near-duplicate size, seeded from the
    /// `BENCH_N` solution via `resolve_from` (tight bracket, `O(p)` work
    /// per probe, a handful of bisection steps).
    pub partition_warm_ns: u128,
    /// Nonlinear-cost solve: the `sort-sample` entry on the same cluster
    /// and size, solved in the `x·log x` time domain through the
    /// cost-function path (the seed had no solver for this shape).
    pub partition_sort_ns: u128,
    /// Machines in the model-build measurement.
    pub build_machines: usize,
    /// Whole-cluster model build on the worker pool.
    pub build_pooled_ns: u128,
    /// Whole-cluster model build, sequential loop (the seed behaviour).
    pub build_seq_ns: u128,
    /// Worker threads in the pool during the measurement.
    pub build_workers: usize,
    /// Packed-tile `matmul_abt_blocked` at `BENCH_MM_N`.
    pub mm_packed_ns: u128,
    /// Seed plain tiled triple loop at `BENCH_MM_N`.
    pub mm_loop_ns: u128,
}

/// Median wall time of `samples` runs of `f`, in nanoseconds.
fn median_ns(samples: usize, mut f: impl FnMut()) -> u128 {
    assert!(samples >= 1);
    let mut times: Vec<u128> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Runs every measurement. Each closure is executed once as warm-up before
/// its timed samples.
pub fn measure() -> BenchPartitionResults {
    let funcs = synthetic_cluster(BENCH_P);
    let seed_views: Vec<SeedView<'_>> = funcs.iter().map(SeedView).collect();
    let optimized = CombinedPartitioner::new();
    let run_optimized = || {
        let r = optimized.partition(BENCH_N, &funcs).unwrap();
        assert_eq!(r.distribution.total(), BENCH_N);
    };
    let run_seed = || {
        let r = optimized.partition(BENCH_N, &seed_views).unwrap();
        assert_eq!(r.distribution.total(), BENCH_N);
    };
    run_optimized();
    let partition_optimized_ns = median_ns(9, run_optimized);
    let partition_seed_ns = median_ns(9, run_seed);

    // Cold vs warm on a near-duplicate request (|Δn|/n = 1e-3): the warm
    // path reconstructs the donor solution's slope and seeds a tight
    // bracket instead of re-running the full cold bracket construction.
    let donor = optimized.partition(BENCH_N, &funcs).unwrap();
    let near_n = BENCH_N + BENCH_N / 1000;
    let run_cold_near = || {
        let r = optimized.partition(near_n, &funcs).unwrap();
        assert_eq!(r.distribution.total(), near_n);
    };
    let run_warm = || {
        let r = optimized.resolve_from(&donor.distribution, near_n, &funcs).unwrap();
        assert_eq!(r.distribution.total(), near_n);
    };
    // More samples than the cold rows: the warm path is short enough that
    // scheduler noise moves its median, and the headline is the ratio.
    run_cold_near();
    run_warm();
    let partition_cold_near_ns = median_ns(25, run_cold_near);
    let partition_warm_ns = median_ns(25, run_warm);

    // Nonlinear-cost phase: the same cluster and size through the
    // sort-sample entry, i.e. every speed model wrapped in the x·log x
    // cost transform and the whole solve running on cost-time slopes.
    let sorter = SortSamplePartitioner::new();
    let run_sort = || {
        let r = sorter.partition(BENCH_N, &funcs).unwrap();
        assert_eq!(r.distribution.total(), BENCH_N);
    };
    run_sort();
    let partition_sort_ns = median_ns(9, run_sort);

    // A cluster and builder budget large enough for per-machine work to
    // dominate the pool's per-task overhead (the default config finishes a
    // machine in microseconds).
    let specs: Vec<MachineSpec> = testbeds::table2()
        .iter()
        .cycle()
        .take(48)
        .cloned()
        .collect();
    let cfg = BuilderConfig {
        epsilon: 0.02,
        min_interval_fraction: 1.0 / 19_683.0,
        max_measurements: 2048,
    };
    let build_pooled = || {
        let built = build_cluster_models(
            &specs,
            AppProfile::MatrixMult,
            Integration::High,
            42,
            cfg,
        )
        .unwrap();
        assert!(built.total_measurements() > 0);
    };
    let build_seq = || {
        let built = build_cluster_models_seq(
            &specs,
            AppProfile::MatrixMult,
            Integration::High,
            42,
            cfg,
        )
        .unwrap();
        assert!(built.total_measurements() > 0);
    };
    build_pooled();
    let build_pooled_ns = median_ns(7, build_pooled);
    let build_seq_ns = median_ns(7, build_seq);

    let a = Matrix::random(BENCH_MM_N, BENCH_MM_N, 11);
    let b = Matrix::random(BENCH_MM_N, BENCH_MM_N, 12);
    let mm_packed = || {
        let c = matmul_abt_blocked(&a, &b, DEFAULT_TILE);
        assert!(c[(0, 0)].is_finite());
    };
    let mm_loop = || {
        let c = matmul_abt_blocked_loop(&a, &b, DEFAULT_TILE);
        assert!(c[(0, 0)].is_finite());
    };
    mm_packed();
    let mm_packed_ns = median_ns(5, mm_packed);
    let mm_loop_ns = median_ns(5, mm_loop);

    BenchPartitionResults {
        partition_optimized_ns,
        partition_seed_ns,
        partition_cold_near_ns,
        partition_warm_ns,
        partition_sort_ns,
        build_machines: specs.len(),
        build_pooled_ns,
        build_seq_ns,
        build_workers: fpm_exec::WorkerPool::global().workers(),
        mm_packed_ns,
        mm_loop_ns,
    }
}

/// The `results` payload of the `BENCH_partition.json` artifact (wrapped
/// in the shared envelope by [`crate::report::write_bench_json`]).
pub fn to_json(r: &BenchPartitionResults) -> Json {
    let ns = |v: u128| Json::uint(v.min(u128::from(u64::MAX)) as u64);
    Json::Obj(vec![
        (
            "partition".into(),
            Json::Obj(vec![
                ("p".into(), Json::uint(BENCH_P as u64)),
                ("n".into(), Json::uint(BENCH_N)),
                ("median_ns".into(), ns(r.partition_optimized_ns)),
                ("seed_median_ns".into(), ns(r.partition_seed_ns)),
                ("warm_delta_n".into(), Json::uint(BENCH_N / 1000)),
                ("cold_near_median_ns".into(), ns(r.partition_cold_near_ns)),
                ("warm_median_ns".into(), ns(r.partition_warm_ns)),
                ("sort_median_ns".into(), ns(r.partition_sort_ns)),
            ]),
        ),
        (
            "model_build".into(),
            Json::Obj(vec![
                ("machines".into(), Json::uint(r.build_machines as u64)),
                ("workers".into(), Json::uint(r.build_workers as u64)),
                ("pooled_median_ns".into(), ns(r.build_pooled_ns)),
                ("sequential_median_ns".into(), ns(r.build_seq_ns)),
            ]),
        ),
        (
            "matmul".into(),
            Json::Obj(vec![
                ("n".into(), Json::uint(BENCH_MM_N as u64)),
                ("packed_median_ns".into(), ns(r.mm_packed_ns)),
                ("loop_median_ns".into(), ns(r.mm_loop_ns)),
            ]),
        ),
    ])
}

fn speedup(slow_ns: u128, fast_ns: u128) -> f64 {
    slow_ns as f64 / (fast_ns as f64).max(1.0)
}

/// Runs the measurements, writes `BENCH_partition.json` into the current
/// directory and returns the tabular report.
pub fn run() -> Report {
    let results = measure();
    let mut r = Report::new(
        "bench_partition",
        "Optimised vs seed paths: closed-form partition, pooled model build, packed kernel",
        &["measurement", "optimised (ns)", "baseline (ns)", "speedup"],
    );
    r.push_row(vec![
        format!("partition p={BENCH_P} n={BENCH_N}"),
        results.partition_optimized_ns.to_string(),
        results.partition_seed_ns.to_string(),
        fnum(speedup(results.partition_seed_ns, results.partition_optimized_ns), 2),
    ]);
    r.push_row(vec![
        format!("partition warm-start p={BENCH_P} |dn|/n=1e-3"),
        results.partition_warm_ns.to_string(),
        results.partition_cold_near_ns.to_string(),
        fnum(speedup(results.partition_cold_near_ns, results.partition_warm_ns), 2),
    ]);
    r.push_row(vec![
        format!("partition sort-sample (cost domain) p={BENCH_P} n={BENCH_N}"),
        results.partition_sort_ns.to_string(),
        results.partition_optimized_ns.to_string(),
        fnum(speedup(results.partition_sort_ns, results.partition_optimized_ns), 2),
    ]);
    r.push_row(vec![
        format!(
            "model_build {} machines / {} workers",
            results.build_machines, results.build_workers
        ),
        results.build_pooled_ns.to_string(),
        results.build_seq_ns.to_string(),
        fnum(speedup(results.build_seq_ns, results.build_pooled_ns), 2),
    ]);
    r.push_row(vec![
        format!("matmul_abt n={BENCH_MM_N}"),
        results.mm_packed_ns.to_string(),
        results.mm_loop_ns.to_string(),
        fnum(speedup(results.mm_loop_ns, results.mm_packed_ns), 2),
    ]);
    match write_bench_json("partition", to_json(&results)) {
        Ok(path) => r.note(format!("raw medians written to {}", path.display())),
        Err(e) => r.note(format!("could not write BENCH_partition.json: {e}")),
    }
    r.note("baselines are the seed behaviours: numeric intersections, sequential build, plain tiled loop");
    r.note("the sort-sample row compares the nonlinear cost-domain solve against the linear solve (its ratio is the transform's overhead, not a speedup)");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_stable() {
        let r = BenchPartitionResults {
            partition_optimized_ns: 1,
            partition_seed_ns: 2,
            partition_cold_near_ns: 7,
            partition_warm_ns: 8,
            partition_sort_ns: 9,
            build_machines: 12,
            build_pooled_ns: 3,
            build_seq_ns: 4,
            build_workers: 8,
            mm_packed_ns: 5,
            mm_loop_ns: 6,
        };
        let json = to_json(&r);
        let at = |section: &str, field: &str| {
            json.get(section).and_then(|s| s.get(field)).and_then(Json::as_u64)
        };
        assert_eq!(at("partition", "p"), Some(1080));
        assert_eq!(at("partition", "median_ns"), Some(1));
        assert_eq!(at("partition", "seed_median_ns"), Some(2));
        assert_eq!(at("partition", "warm_delta_n"), Some(2_000_000));
        assert_eq!(at("partition", "cold_near_median_ns"), Some(7));
        assert_eq!(at("partition", "warm_median_ns"), Some(8));
        assert_eq!(at("partition", "sort_median_ns"), Some(9));
        assert_eq!(at("model_build", "sequential_median_ns"), Some(4));
        assert_eq!(at("matmul", "loop_median_ns"), Some(6));
        // Envelope carries version + commit.
        let env = crate::report::bench_json_envelope("partition", json);
        assert!(env.get("schema_version").and_then(Json::as_u64).is_some());
        assert!(env.get("git_commit").and_then(Json::as_str).is_some());
    }

    #[test]
    fn median_runs_exactly_the_requested_samples() {
        let mut k = 0u64;
        let m = median_ns(5, || k = k.wrapping_add(1));
        assert!(m > 0);
        assert_eq!(k, 5);
    }
}
