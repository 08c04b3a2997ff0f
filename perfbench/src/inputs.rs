//! Seeded inputs for the three workloads. Everything the daemons see is
//! rendered here as request lines; the same seed always yields the same
//! clusters, sizes, algorithm mix and report schedule.

use fpm_core::planner::AlgorithmId;
use fpm_core::speed::SpeedFunction;
use fpm_router::HashRing;
use fpm_serve::json::Json;
use fpm_testkit::gen::{DriftScenario, GenConfig, WireCluster};

use crate::Scale;

/// SplitMix64: small, seedable and good enough for drawing inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5EED_BE4C_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Whether a request reads (partition) or writes (report).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Read,
    Write,
}

/// One request line of a connection's stream.
#[derive(Debug, Clone)]
pub struct Op {
    pub line: String,
    pub kind: OpKind,
}

/// How the serving processes are laid out.
#[derive(Debug, Clone, Copy)]
pub enum Topology {
    /// One `fpm serve` daemon.
    Single,
    /// `fpm router` in front of `shards` daemons.
    Routed { shards: usize, replicas: usize },
}

/// Linear registry entries the read mixes draw from.
pub const LINEAR: [AlgorithmId; 6] = [
    AlgorithmId::Combined,
    AlgorithmId::Basic,
    AlgorithmId::Modified,
    AlgorithmId::Secant,
    AlgorithmId::Bounded,
    AlgorithmId::Contiguous,
];

/// Nonlinear registry entries (cost transforms over the base models).
pub const NONLINEAR: [AlgorithmId; 2] = [AlgorithmId::SortSample, AlgorithmId::Query];

/// Share of cold-solve reads that ask for a nonlinear entry. No record of
/// real traffic gives this share; it is an unverified assumption. It is
/// above 1 % so that the 99th percentile falls among the nonlinear solves
/// and far below 50 % so that the median is a linear solve, which is the
/// split the latency metrics are meant to show (p50 linear, p99 nonlinear).
const COLD_NONLINEAR_SHARE: f64 = 0.03;
/// Share of routed-refine requests that are `report` writes. No record of
/// real traffic gives this share either; it is an unverified assumption.
/// Reads dominate, as DESIGN.md §7 says of serving traffic, and with
/// reports sent in corroborating pairs a cluster gets a refit attempt about
/// every 11 of its reads, so both cache hits and warm-started misses
/// after epoch bumps stay in the mix.
const ROUTED_WRITE_SHARE: f64 = 0.15;
/// Near-duplicate sizes per routed cluster, all within 0.1 % of the base:
/// the spread of `repro bench_serve`'s near-dup phase and of `fpm loadgen
/// --near-dup` (EXPERIMENTS.md). The count is that phase's unit test's
/// (its headline run uses 16).
const NEAR_DUP_SIZES: u64 = 8;
/// Drift clusters of routed-refine, shared out evenly over its connections
/// and owned round-robin by the shards. Twelve rather than six: each seed
/// draws its own scenarios, and with six the seed alone moved p99 by ~10 %
/// between two seeds on a calm host.
const DRIFT_CLUSTERS: usize = 12;

pub fn partition_line(cluster: &str, n: u64, algorithm: AlgorithmId) -> String {
    format!(r#"{{"verb":"partition","cluster":"{cluster}","n":{n},"algorithm":"{algorithm}"}}"#)
}

pub fn report_line(cluster: &str, machine: usize, x: f64, elapsed_us: f64) -> String {
    Json::Obj(vec![
        ("verb".into(), Json::str("report")),
        ("cluster".into(), Json::str(cluster)),
        ("machine".into(), Json::uint(machine as u64)),
        ("x".into(), Json::num(x)),
        ("elapsed_us".into(), Json::num(elapsed_us)),
    ])
    .to_string()
}

/// An inline `register` line; `cost[i]` sends machine `i` as measured
/// `(size, time)` cost knots instead of `(size, speed)` knots.
pub fn register_line(cluster: &str, models: &[(String, Vec<(f64, f64)>)], cost: &[bool]) -> String {
    let models = models
        .iter()
        .zip(cost)
        .map(|((name, knots), &is_cost)| {
            let pairs = knots
                .iter()
                .map(|&(x, y)| {
                    let y = if is_cost { x / y } else { y };
                    Json::Arr(vec![Json::num(x), Json::num(y)])
                })
                .collect();
            let field = if is_cost { "cost_knots" } else { "knots" };
            Json::Obj(vec![
                ("name".into(), Json::str(name.clone())),
                (field.into(), Json::Arr(pairs)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("verb".into(), Json::str("register")),
        ("cluster".into(), Json::str(cluster)),
        ("models".into(), Json::Arr(models)),
    ])
    .to_string()
}

/// The generated inputs of one workload run.
pub struct Inputs {
    pub topology: Topology,
    /// Requests in flight per connection.
    pub window: usize,
    /// `register` lines sent during set-up, in order.
    pub register: Vec<String>,
    /// Cluster names, in registration order.
    pub clusters: Vec<String>,
    /// `partition` lines sent once during set-up to warm the plan cache.
    pub warm: Vec<String>,
    /// One request stream per connection.
    pub streams: Vec<Stream>,
}

/// An endless, seeded request stream for one connection.
pub enum Stream {
    /// Draws uniformly from a fixed set of warm keys.
    Hot { keys: Vec<String>, rng: Rng },
    /// Fresh sizes with a seeded algorithm mix.
    Cold(ColdStream),
    /// Near-duplicate reads interleaved with drift reports.
    Routed(RoutedStream),
}

impl Stream {
    pub fn next_op(&mut self) -> Op {
        match self {
            Stream::Hot { .. } => unreachable!("hot streams are sent pipelined, by key"),
            Stream::Cold(s) => s.next_op(),
            Stream::Routed(s) => s.next_op(),
        }
    }

    /// For the hot stream: the next key index (the pipelined loop sends
    /// pre-rendered key lines without cloning them).
    pub fn next_hot_key(&mut self) -> usize {
        match self {
            Stream::Hot { keys, rng } => rng.below(keys.len()),
            _ => unreachable!("only the hot stream has keys"),
        }
    }

    pub fn hot_keys(&self) -> &[String] {
        match self {
            Stream::Hot { keys, .. } => keys,
            _ => &[],
        }
    }
}

pub fn generate(workload: &str, seed: u64, scale: &Scale) -> Result<Inputs, String> {
    match workload {
        "hot-plans" => Ok(hot_plans(seed, scale)),
        "cold-solve" => Ok(cold_solve(seed, scale)),
        "routed-refine" => Ok(routed_refine(seed, scale)),
        other => Err(format!(
            "unknown workload {other:?} (hot-plans|cold-solve|routed-refine)"
        )),
    }
}

/// Table 2 testbed (12 machines, matrix multiplication models built
/// server-side from the seeded simulated measurements) and a small set of
/// warm `(n, algorithm)` keys.
fn hot_plans(seed: u64, scale: &Scale) -> Inputs {
    let mut rng = Rng::new(seed);
    let testbed_seed = rng.next_u64() >> 12;
    let register = format!(
        r#"{{"verb":"register","cluster":"hot","testbed":{{"name":"table2","app":"mm","seed":{testbed_seed}}}}}"#
    );
    // Sizes are log-uniform over 1e6..1e8 elements, well inside the
    // testbed's modelled capacity.
    let keys: Vec<String> = (0..scale.hot_keys)
        .map(|_| {
            let n = 10f64.powf(6.0 + 2.0 * rng.unit()) as u64;
            let algorithm = LINEAR[rng.below(LINEAR.len())];
            partition_line("hot", n, algorithm)
        })
        .collect();
    // One connection: on a 2-core host a second pipelining client thread
    // competes with the daemon's single event-loop thread, and the p99 of
    // such runs is bimodal.
    let streams = vec![Stream::Hot {
        keys: keys.clone(),
        rng: Rng::new(seed ^ 0xC0),
    }];
    Inputs {
        topology: Topology::Single,
        window: scale.hot_window,
        register: vec![register],
        clusters: vec!["hot".into()],
        warm: keys,
        streams,
    }
}

/// State of one cold-solve connection.
pub struct ColdStream {
    rng: Rng,
    conn: u64,
    connections: u64,
    wide_n: u64,
    small_n: u64,
    used: std::collections::HashSet<u64>,
}

impl ColdStream {
    fn next_op(&mut self) -> Op {
        let nonlinear = self.rng.unit() < COLD_NONLINEAR_SHARE;
        let (cluster, base, algorithm) = if nonlinear {
            (
                "small",
                self.small_n,
                NONLINEAR[self.rng.below(NONLINEAR.len())],
            )
        } else {
            ("wide", self.wide_n, LINEAR[self.rng.below(LINEAR.len())])
        };
        // Fresh sizes: uniform over [base/4, base], never repeated, and
        // disjoint between connections (n ≡ conn mod connections).
        let n = loop {
            let raw = (base as f64 * (0.25 + 0.75 * self.rng.unit())) as u64;
            let n = raw - raw % self.connections + self.conn;
            if self.used.insert(n) {
                break n;
            }
        };
        Op {
            line: partition_line(cluster, n, algorithm),
            kind: OpKind::Read,
        }
    }
}

/// A wide speed-knot cluster for the linear entries and a small mixed
/// speed/cost-knot cluster for `sort-sample` and `query`.
fn cold_solve(seed: u64, scale: &Scale) -> Inputs {
    let wide_cfg = GenConfig {
        machines: (scale.wide_machines, scale.wide_machines),
        n_log10: (8.0, 8.0),
        ..GenConfig::default()
    };
    let small_cfg = GenConfig {
        machines: (12, 12),
        n_log10: (8.0, 8.0),
        ..GenConfig::default()
    };
    let wide = WireCluster::from_seed(seed, &wide_cfg);
    let small = WireCluster::from_seed(seed ^ 0x5A11, &small_cfg);
    let small_cost: Vec<bool> = (0..small.models.len()).map(|i| i % 2 == 0).collect();
    let register = vec![
        register_line("wide", &wide.models, &vec![false; wide.models.len()]),
        register_line("small", &small.models, &small_cost),
    ];
    let connections = scale.cold_connections as u64;
    let streams = (0..connections)
        .map(|c| {
            Stream::Cold(ColdStream {
                rng: Rng::new(seed ^ (0xC01D + c)),
                conn: c,
                connections,
                wide_n: wide.n,
                small_n: small.n,
                used: Default::default(),
            })
        })
        .collect();
    Inputs {
        topology: Topology::Single,
        window: 1,
        register,
        clusters: vec!["wide".into(), "small".into()],
        warm: Vec::new(),
        streams,
    }
}

/// One drift cluster owned by a routed-refine connection.
struct DriftCluster {
    name: String,
    base_n: u64,
    step: u64,
    /// `(machine, x, truth speed at x, initial speed at x)` report points
    /// on drifted machines.
    points: Vec<(usize, f64, f64, f64)>,
    /// Position in the report schedule.
    cursor: usize,
}

impl DriftCluster {
    /// Reports walk the points, each sent twice in a row (the refiner's
    /// corroboration gate needs two agreeing observations). After each
    /// full pass the machines' load flips between the drifted truth and
    /// the initial speed, so refits keep landing for the whole run.
    fn next_report(&mut self) -> String {
        let per_pass = 2 * self.points.len();
        let pass = self.cursor / per_pass;
        let (machine, x, truth, initial) = self.points[(self.cursor % per_pass) / 2];
        self.cursor += 1;
        let speed = if pass % 2 == 0 { truth } else { initial };
        report_line(&self.name, machine, x, x / speed * 1e6)
    }
}

/// State of one routed-refine connection.
pub struct RoutedStream {
    rng: Rng,
    clusters: Vec<DriftCluster>,
}

impl RoutedStream {
    fn next_op(&mut self) -> Op {
        let c = self.rng.below(self.clusters.len());
        let write = self.rng.unit() < ROUTED_WRITE_SHARE;
        let cluster = &mut self.clusters[c];
        if write {
            return Op {
                line: cluster.next_report(),
                kind: OpKind::Write,
            };
        }
        let k = self.rng.next_u64() % NEAR_DUP_SIZES;
        let n = cluster.base_n + k * cluster.step;
        Op {
            line: partition_line(&cluster.name, n, AlgorithmId::Combined),
            kind: OpKind::Read,
        }
    }
}

/// Testkit drift scenarios behind a router over `shards` daemons. Each
/// connection owns an equal share of the clusters, named so that the ring
/// spreads their owners round-robin over the shards.
fn routed_refine(seed: u64, scale: &Scale) -> Inputs {
    let shards = 3;
    let replicas = 2;
    let ring = HashRing::new(shards, fpm_router::DEFAULT_VNODES);
    let cfg = GenConfig {
        machines: (scale.drift_machines, scale.drift_machines),
        n_log10: (7.0, 7.0),
        ..GenConfig::default()
    };
    let mut register = Vec::new();
    let mut clusters = Vec::new();
    let mut warm = Vec::new();
    let mut streams = Vec::new();
    let per_conn = DRIFT_CLUSTERS / scale.routed_connections;
    for conn in 0..scale.routed_connections {
        let mut owned = Vec::new();
        for i in 0..per_conn {
            let index = conn * per_conn + i;
            let owner = i % shards;
            let scenario = DriftScenario::from_seed(seed.wrapping_add(index as u64), &cfg);
            let name = (0u32..)
                .map(|k| format!("drift-{conn}-{i}-{k}"))
                .find(|name| ring.owner(name) == owner)
                .expect("some name lands on every shard");
            register.push(register_line(
                &name,
                &scenario.initial,
                &vec![false; scenario.initial.len()],
            ));
            warm.push(partition_line(&name, scenario.n, AlgorithmId::Combined));
            owned.push(DriftCluster {
                base_n: scenario.n,
                step: (scenario.n / 10_000 / NEAR_DUP_SIZES).max(1),
                points: report_points(&scenario),
                cursor: 0,
                name: name.clone(),
            });
            clusters.push(name);
        }
        streams.push(Stream::Routed(RoutedStream {
            rng: Rng::new(seed ^ (0x0DD + conn as u64)),
            clusters: owned,
        }));
    }
    Inputs {
        topology: Topology::Routed { shards, replicas },
        window: 1,
        register,
        clusters,
        warm,
        streams,
    }
}

/// Report sizes on every drifted machine: the geometric midpoints of the
/// first three model segments with positive speed at both ends.
fn report_points(scenario: &DriftScenario) -> Vec<(usize, f64, f64, f64)> {
    let initial = scenario.initial_models();
    let truth = scenario.truth_models();
    let mut points = Vec::new();
    for (m, &factor) in scenario.factors.iter().enumerate() {
        if factor >= 1.0 {
            continue;
        }
        let knots = initial[m].knots();
        for w in knots
            .windows(2)
            .filter(|w| w[0].1 > 0.0 && w[1].1 > 0.0)
            .take(3)
        {
            let x = (w[0].0 * w[1].0).sqrt().round().max(1.0);
            points.push((m, x, truth[m].speed(x), initial[m].speed(x)));
        }
    }
    points
}
