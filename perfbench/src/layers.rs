//! The traced run's per-layer metrics. Nothing here instruments the
//! program: the benchmark times its own calls into each layer's public
//! functions, either against the live processes right after the traced
//! window, or in-process by replaying the window's request lines in order
//! through `protocol`, `Registry`, `Engine`, `PlanCache` and `AlgorithmId`.

use std::collections::HashMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fpm_core::cost::CostFunction;
use fpm_core::planner::AlgorithmId;
use fpm_core::speed::{PiecewiseLinearSpeed, SharedCachedSpeed, SpeedFunction};
use fpm_core::PartitionReport;
use fpm_router::HashRing;
use fpm_serve::client::Client;
use fpm_serve::engine::{Engine, EngineConfig, Plan};
use fpm_serve::json::Json;
use fpm_serve::protocol::{parse_request, ClusterRef, Request};
use fpm_serve::registry::{MachineModel, RegisteredCluster, SharedCost};
use fpm_serve::Registry;

use crate::check::{check_reply, view, Expected, Reference, Verdict};
use crate::count::Counting;
use crate::daemon::{Daemon, Deployment};
use crate::inputs::{report_line, Topology};
use crate::trace::{mean, median, quantile, ratio, Tracer};
use crate::workloads::Window;

/// Plan-cache capacity of the replay: the daemon's default.
const CACHE_CAPACITY: usize = 1024;
/// Cold probe solves per solver class the replay solves cold too rarely.
const COLD_PROBES: usize = 32;
/// Request lines the cold probes draw their sizes from.
const PROBE_SCAN: usize = 4096;
/// Request-id namespaces of the replay and the live probes (the timed
/// window's client spans use `conn << 40 | seq`).
const REPLAY_IDS: u64 = 1 << 50;
const PROBE_IDS: u64 = 2 << 50;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A metric; a non-finite value (a ratio over nothing) reads 0.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// What the layer measurement needs from the traced run.
pub struct Traced<'a> {
    pub fpm: &'a Path,
    pub topology: Topology,
    pub clusters: &'a [String],
    pub setup: &'a [(String, String)],
    pub window: &'a Window,
    pub reference: &'a Reference,
    pub budget: Duration,
}

/// Outcome of the layer measurement.
pub struct Layers {
    pub metrics: Vec<Metric>,
    pub tracer: Tracer,
    /// Replayed plans that differ from the reference (wrapped models
    /// must not change a single bit).
    pub mismatches: u64,
}

/// Measures the live processes first (their counters describe the
/// window), then the in-process replay.
pub fn measure(t: &Traced<'_>, deployment: &Deployment, origin: Instant) -> Result<Layers, String> {
    let mut tracer = Tracer::new(origin);
    for &(id, start, end) in &t.window.spans {
        tracer.record(id, "client.request", start, end);
    }
    let mut metrics = Vec::new();
    live_counters(t, deployment, &mut metrics)?;
    let replay = replay(t, &mut tracer);
    live_probes(t, deployment, &replay, &mut tracer, &mut metrics)?;
    replay_metrics(t, &replay, &mut metrics);
    metrics.push(metric(
        "wire.bytes_per_op",
        ratio(t.window.bytes as f64, t.window.ops as f64),
        "B",
    ));
    Ok(Layers {
        metrics,
        tracer,
        mismatches: replay.mismatches,
    })
}

fn stats_of(addr: SocketAddr) -> Result<Json, String> {
    let mut client = Client::connect(addr, Duration::from_secs(30))
        .map_err(|e| format!("stats connect: {e}"))?;
    client
        .request_raw(r#"{"verb":"stats"}"#)
        .map_err(|e| format!("stats: {e}"))
}

fn counter(v: &Json, key: &str) -> f64 {
    v.get("stats")
        .and_then(|s| s.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0) as f64
}

/// Shards holding each cluster: the ring's replica set, or the single
/// daemon.
fn holders(topology: Topology, name: &str) -> Vec<usize> {
    match topology {
        Topology::Single => vec![0],
        Topology::Routed { shards, replicas } => {
            HashRing::new(shards, fpm_router::DEFAULT_VNODES).route(name, replicas)
        }
    }
}

/// Engine, cache and refiner counters from each shard's `stats`, and
/// whether every holder of every cluster agrees with the reference's
/// final `(fingerprint, epoch)`.
fn live_counters(t: &Traced<'_>, d: &Deployment, out: &mut Vec<Metric>) -> Result<(), String> {
    let stats: Vec<Json> = d
        .shards
        .iter()
        .map(|s| stats_of(s.addr))
        .collect::<Result<_, _>>()?;
    let sum = |key: &str| stats.iter().map(|v| counter(v, key)).sum::<f64>();
    let peak = stats
        .iter()
        .map(|v| counter(v, "queue_depth_peak"))
        .fold(0.0, f64::max);
    let (hits, misses, coalesced) = (
        sum("cache_hits"),
        sum("cache_misses"),
        sum("cache_coalesced"),
    );
    let (warm, fallbacks) = (sum("warm_starts"), sum("warm_start_fallbacks"));
    let (accepted, rejected) = (sum("refine_accepted"), sum("refine_rejected"));
    out.push(metric(
        "cache.hit_ratio",
        ratio(hits, hits + misses + coalesced),
        "ratio",
    ));
    out.push(metric("cache.coalesced", coalesced, "count"));
    out.push(metric(
        "engine.warm_start_ratio",
        ratio(warm, warm + fallbacks),
        "ratio",
    ));
    out.push(metric("engine.queue_depth_peak", peak, "count"));
    out.push(metric("engine.shed", sum("shed"), "count"));
    out.push(metric(
        "registry.refit_accept_ratio",
        ratio(accepted, accepted + rejected),
        "ratio",
    ));

    let (mut agree, mut total) = (0u64, 0u64);
    for name in t.clusters {
        let want = t.reference.state(name);
        for shard in holders(t.topology, name) {
            total += 1;
            let held = stats[shard]
                .get("clusters")
                .and_then(Json::as_array)
                .and_then(|cs| {
                    cs.iter()
                        .find(|c| c.get("name").and_then(Json::as_str) == Some(name))
                })
                .map(|c| {
                    let fp = c
                        .get("fingerprint")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_owned();
                    (
                        fp,
                        c.get("epoch").and_then(Json::as_u64).unwrap_or(u64::MAX),
                    )
                });
            agree += u64::from(held.is_some() && held == want);
        }
    }
    out.push(metric(
        "router.replica_epoch_agree",
        ratio(agree as f64, total as f64),
        "ratio",
    ));
    Ok(())
}

/// Times `f` over `reps` batches of `batch` calls; the median ns per call.
fn batch_ns(reps: usize, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|r| {
            let t = Instant::now();
            for i in 0..batch {
                f(r * batch + i);
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&samples)
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect(addr, Duration::from_secs(60)).map_err(|e| format!("probe connect {addr}: {e}"))
}

/// Times one client call as a span of its own probe request; µs.
fn timed<T>(
    tracer: &mut Tracer,
    id: &mut u64,
    name: &'static str,
    call: impl FnOnce() -> Result<T, fpm_serve::ProtoError>,
) -> Result<f64, String> {
    *id += 1;
    let (r, ns) = tracer.span(*id, name, |_| call());
    r.map(|_| ns as f64 / 1e3)
        .map_err(|e| format!("{name}: {e}"))
}

/// Round-trip probes against the live processes: ping, the router hop
/// on lines the window already answered, and write fan-out. Workloads
/// without a router get a one-shard probe router in front of their
/// daemon, started here and stopped before returning.
fn live_probes(
    t: &Traced<'_>,
    d: &Deployment,
    replay: &Replay,
    tracer: &mut Tracer,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let mut id = PROBE_IDS;
    let mut shard = connect(d.shards[0].addr)?;
    let pings = (0..400)
        .map(|_| timed(tracer, &mut id, "client.ping.shard", || shard.ping()))
        .collect::<Result<Vec<_>, _>>()?;
    out.push(metric("wire.ping_rtt_us_p50", median(&pings), "us"));

    let probe_router = match &d.router {
        Some(_) => None,
        None => Some(Daemon::router(t.fpm, &[d.shards[0].addr], 1)?),
    };
    let router = d
        .router
        .as_ref()
        .or(probe_router.as_ref())
        .expect("a router");
    let result = router_probes(t, d, router.addr, replay, tracer, &mut id, out);
    if let Some(r) = probe_router {
        r.stop();
    }
    result?;

    let (shards, replicas) = match t.topology {
        Topology::Single => (1, 1),
        Topology::Routed { shards, replicas } => (shards, replicas),
    };
    let ring = HashRing::new(shards, fpm_router::DEFAULT_VNODES);
    let names = t.clusters;
    let route_ns = batch_ns(64, 1000, |i| {
        black_box(ring.route(black_box(&names[i % names.len()]), replicas));
    });
    out.push(metric("router.route_ns", route_ns, "ns"));
    Ok(())
}

fn router_probes(
    t: &Traced<'_>,
    d: &Deployment,
    router_addr: SocketAddr,
    replay: &Replay,
    tracer: &mut Tracer,
    id: &mut u64,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let mut router = connect(router_addr)?;
    let pings = (0..400)
        .map(|_| timed(tracer, id, "client.ping.router", || router.ping()))
        .collect::<Result<Vec<_>, _>>()?;
    eprintln!("perfbench: router ping p50 {:.1} us", median(&pings));

    // Hop: the same already-answered read, direct to its owner and through
    // the router, alternating which goes first.
    let mut direct: Vec<Client> = d
        .shards
        .iter()
        .map(|s| connect(s.addr))
        .collect::<Result<_, _>>()?;
    let mut hops = Vec::new();
    let mut reply = String::new();
    for (line, cluster) in &replay.hop_lines {
        let owner = &mut direct[holders(t.topology, cluster)[0]];
        router
            .request_line(line, &mut reply)
            .map_err(|e| format!("hop warm-up: {e}"))?;
        for round in 0..16 {
            let mut via_router = |tr: &mut Tracer, id: &mut u64| {
                timed(tr, id, "client.request_line.router", || {
                    router.request_line(line, &mut reply)
                })
            };
            let (routed, plain) = if round % 2 == 0 {
                let routed = via_router(tracer, id)?;
                (
                    routed,
                    timed(tracer, id, "client.request_line.shard", || {
                        owner.request_line(line, &mut String::new())
                    })?,
                )
            } else {
                let plain = timed(tracer, id, "client.request_line.shard", || {
                    owner.request_line(line, &mut String::new())
                })?;
                (via_router(tracer, id)?, plain)
            };
            hops.push(routed - plain);
        }
    }
    out.push(metric("router.hop_us_p50", median(&hops), "us"));

    // Fan-out: report writes through the router.
    let fanout = replay
        .probe_reports
        .iter()
        .map(|line| {
            timed(tracer, id, "client.request_line.fanout", || {
                router.request_line(line, &mut reply)
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    out.push(metric("router.fanout_us_p50", median(&fanout), "us"));
    let stats = router
        .request_raw(r#"{"verb":"stats"}"#)
        .map_err(|e| format!("router stats: {e}"))?;
    let count = |k: &str| {
        stats
            .get("stats")
            .and_then(|s| s.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0) as f64
    };
    out.push(metric(
        "router.fanout_legs_per_write",
        ratio(count("fanout_legs"), count("fanouts")),
        "count",
    ));
    out.push(metric("router.failovers", count("failovers"), "count"));
    Ok(())
}

/// A replayed cluster: the same evaluation-memo wrappers the registry
/// builds, held typed so their hit and entry counts can be read.
struct ReplayCluster {
    models: Vec<MachineModel>,
    memos: Vec<Option<Arc<SharedCachedSpeed<PiecewiseLinearSpeed>>>>,
    funcs: Vec<SharedCost>,
}

impl ReplayCluster {
    fn rebuild(
        &mut self,
        cluster: &RegisteredCluster,
        all_memos: &mut Vec<Arc<SharedCachedSpeed<PiecewiseLinearSpeed>>>,
    ) {
        for (i, model) in cluster.models.iter().enumerate() {
            if self.models.get(i) == Some(model) {
                continue;
            }
            let (memo, func) = match model {
                MachineModel::Speed(m) => {
                    let memo = Arc::new(SharedCachedSpeed::new(m.clone()));
                    all_memos.push(Arc::clone(&memo));
                    (Some(Arc::clone(&memo)), memo as SharedCost)
                }
                MachineModel::Cost(m) => (None, Arc::new(m.clone()) as SharedCost),
            };
            if i < self.models.len() {
                self.models[i] = model.clone();
                self.memos[i] = memo;
                self.funcs[i] = func;
            } else {
                self.models.push(model.clone());
                self.memos.push(memo);
                self.funcs.push(func);
            }
        }
    }
}

/// One replayed solve.
struct Solve {
    nonlinear: bool,
    warm: bool,
    ns: f64,
    steps: f64,
    evals: f64,
    intersections: f64,
}

#[derive(Default)]
struct Replay {
    solves: Vec<Solve>,
    /// Cold probe solves, for the classes the replay solved cold too
    /// rarely.
    probes: Vec<Solve>,
    register_ms: Vec<f64>,
    report_us: Vec<f64>,
    lookup_targets: Vec<String>,
    resident: Vec<fpm_serve::cache::PlanKey>,
    donor_us: Vec<f64>,
    parse_lines: Vec<String>,
    /// Per window request: client latency minus the replayed solve.
    nonsolve_us: Vec<f64>,
    hop_lines: Vec<(String, String)>,
    probe_reports: Vec<String>,
    memo_hits: f64,
    memo_misses: f64,
    memo_entries_end: f64,
    mismatches: u64,
    engine: Option<Engine>,
    registry: Option<Registry>,
}

/// Solves through counting wrappers over the replay's memoised models;
/// returns the report, the solve time in ns and the evaluation count.
fn counted_solve(
    funcs: &[SharedCost],
    run: impl FnOnce(&[&dyn CostFunction]) -> Result<PartitionReport, fpm_core::Error>,
) -> Option<(PartitionReport, f64, f64)> {
    let wrapped: Vec<Counting<&dyn CostFunction>> = funcs
        .iter()
        .map(|f| Counting::new(&**f as &dyn CostFunction))
        .collect();
    let refs: Vec<&dyn CostFunction> = wrapped.iter().map(|w| w as &dyn CostFunction).collect();
    let t = Instant::now();
    let report = run(&refs).ok()?;
    let ns = t.elapsed().as_nanos() as f64;
    let evals = wrapped.iter().map(Counting::evals).sum::<u64>() as f64;
    Some((report, ns, evals))
}

/// Replays set-up and window lines in completion order through the
/// layers the daemon runs them through, one traced request each: parse,
/// registry, plan-cache probe, donor lookup, then the same warm or cold
/// solve the engine would run. Stops after the time budget.
fn replay(t: &Traced<'_>, tracer: &mut Tracer) -> Replay {
    let mut r = Replay::default();
    let registry = Registry::new(1 << 16);
    // Only the engine's cache is used; nothing is admitted or queued.
    let engine = Engine::new(
        CACHE_CAPACITY,
        EngineConfig {
            queue_capacity: 1,
            default_deadline: Duration::from_secs(60),
        },
    );
    let cache = engine.cache();
    let mut clusters: HashMap<String, ReplayCluster> = HashMap::new();
    let mut memos = Vec::new();

    // Lines with the reply the server sent and the client latency (none
    // for set-up lines; hot-plans replays its keys once, since every
    // window read hits).
    let mut lines: Vec<(&str, &str, Option<f64>)> = t
        .setup
        .iter()
        .map(|(l, reply)| (l.as_str(), reply.as_str(), None))
        .collect();
    lines.extend(t.window.records.iter().map(|rec| {
        (
            rec.op.line.as_str(),
            rec.reply.as_str(),
            Some(rec.end.duration_since(rec.start).as_secs_f64() * 1e6),
        )
    }));
    let started = Instant::now();
    for (i, &(line, reply, latency)) in lines.iter().enumerate() {
        if latency.is_some() && started.elapsed() > t.budget {
            break;
        }
        if r.parse_lines.len() < 256 {
            r.parse_lines.push(line.to_owned());
        }
        let id = REPLAY_IDS + i as u64;
        let solve_ns = tracer
            .span(id, "replay", |tr| {
                let (parsed, _) = tr.span(id, "wire.parse", |_| parse_request(line));
                let request = parsed.ok()?.request;
                match request {
                    Request::Register { cluster, spec } => {
                        let (c, ns) = tr.span(id, "registry.register", |_| {
                            registry.register(&cluster, &spec)
                        });
                        r.register_ms.push(ns as f64 / 1e6);
                        let c = c.ok()?;
                        // A registration replaces the cluster and all its memos.
                        let mut rc = ReplayCluster {
                            models: Vec::new(),
                            memos: Vec::new(),
                            funcs: Vec::new(),
                        };
                        rc.rebuild(&c, &mut memos);
                        clusters.insert(cluster.clone(), rc);
                        r.lookup_targets.push(cluster);
                        Some(0.0)
                    }
                    Request::Report {
                        target,
                        machine,
                        x,
                        elapsed_us,
                    } => {
                        let (o, ns) = tr.span(id, "registry.report", |_| {
                            registry.report(view(&target), machine, x, elapsed_us)
                        });
                        r.report_us.push(ns as f64 / 1e3);
                        o.ok()?;
                        let c = registry.lookup(&target).ok()?;
                        clusters.get_mut(&c.name)?.rebuild(&c, &mut memos);
                        Some(0.0)
                    }
                    Request::Partition {
                        target,
                        n,
                        algorithm,
                        ..
                    } => {
                        let (c, _) = tr.span(id, "registry.lookup", |_| registry.lookup(&target));
                        let c = c.ok()?;
                        let key = Engine::plan_key(&c, n, algorithm);
                        let (hit, _) =
                            tr.span(id, "cache.probe", |_| engine.probe(&c, n, algorithm));
                        if hit.is_some() {
                            return Some(0.0);
                        }
                        let (donor, ns) = tr.span(id, "cache.donor", |_| {
                            cache
                                .donor(key.fingerprint, key.epoch, key.algo, n)
                                .or_else(|| {
                                    let fp =
                                        u64::from_str_radix(c.prev_fingerprint.as_deref()?, 16)
                                            .ok()?;
                                    cache.donor(fp, c.epoch.checked_sub(1)?, key.algo, n)
                                })
                        });
                        r.donor_us.push(ns as f64 / 1e3);
                        let funcs = &clusters.get(&c.name)?.funcs;
                        let name = if donor.is_some() {
                            "solver.resolve_from"
                        } else {
                            "solver.solve"
                        };
                        let (solved, _) = tr.span(id, name, |_| match &donor {
                            Some(d) => {
                                counted_solve(funcs, |f| algorithm.resolve_from(&d.counts, n, f))
                            }
                            None => counted_solve(funcs, |f| algorithm.solve(n, f)),
                        });
                        let (report, ns, evals) = solved?;
                        let counts = report.distribution.counts().to_vec();
                        // The reply already matched the unwrapped
                        // reference, so this pins the wrapped plan to it.
                        let replayed = Expected::Plan {
                            fingerprint: c.fingerprint.clone(),
                            counts: counts.clone(),
                            makespan_bits: report.makespan.to_bits(),
                        };
                        if check_reply(&replayed, reply) != Verdict::Ok {
                            r.mismatches += 1;
                        }
                        r.solves.push(Solve {
                            nonlinear: algorithm.info().cost.nonlinear(),
                            warm: donor.is_some(),
                            ns,
                            steps: report.trace.steps() as f64,
                            evals,
                            intersections: (report.trace.steps() * funcs.len()) as f64,
                        });
                        let plan =
                            Arc::new(Plan::new(counts, report.makespan, report.trace.steps()));
                        let _ = cache.get_or_compute(key, || Ok(plan));
                        r.resident.push(key);
                        if r.hop_lines.len() < 64 && !algorithm.info().cost.nonlinear() {
                            r.hop_lines.push((line.to_owned(), c.name.clone()));
                        }
                        Some(ns)
                    }
                    _ => Some(0.0),
                }
            })
            .0;
        if let (Some(latency), Some(ns)) = (latency, solve_ns) {
            r.nonsolve_us.push(latency - ns / 1e3);
        }
    }
    // Hot-plans: every window read was a cache hit, so its non-solve
    // time is its whole latency.
    if !t.window.hot_replies.is_empty() {
        r.nonsolve_us = t
            .window
            .latencies_us
            .iter()
            .flatten()
            .step_by(64)
            .copied()
            .collect();
    }

    // Cold probe solves of each solver class the replay solved cold fewer
    // than `COLD_PROBES` times. Plan-cache misses warm-start from the
    // nearest cached size of their (fingerprint, algorithm) whatever its
    // distance, so after the first miss per algorithm the replay (like
    // the daemon) runs `resolve_from`; the probes run the cold path.
    for nonlinear in [false, true] {
        let cold = r
            .solves
            .iter()
            .filter(|s| !s.warm && s.nonlinear == nonlinear)
            .count();
        if cold < COLD_PROBES {
            cold_probes(&lines, &clusters, nonlinear, tracer, &mut r.probes);
        }
    }

    // Report probes for the fan-out measurement: two agreeing observations
    // 25% below the model on up to eight speed machines of the first
    // cluster; on workloads without writes they also time the refiner.
    if let Some(name) = t.clusters.first() {
        if let Ok(c) = registry.lookup(&ClusterRef::Name(name.clone())) {
            for (m, model) in c.models.iter().enumerate().take(8) {
                let MachineModel::Speed(speed) = model else {
                    continue;
                };
                let Some(w) = speed
                    .knots()
                    .windows(2)
                    .find(|w| w[0].1 > 0.0 && w[1].1 > 0.0)
                else {
                    continue;
                };
                let x = (w[0].0 * w[1].0).sqrt().round().max(1.0);
                let line = report_line(name, m, x, x / (0.75 * speed.speed(x)) * 1e6);
                r.probe_reports.push(line.clone());
                r.probe_reports.push(line);
            }
        }
    }
    if r.report_us.is_empty() {
        for line in r.probe_reports.clone() {
            if let Ok(env) = parse_request(&line) {
                if let Request::Report {
                    target,
                    machine,
                    x,
                    elapsed_us,
                } = env.request
                {
                    let t0 = Instant::now();
                    let _ = black_box(registry.report(view(&target), machine, x, elapsed_us));
                    r.report_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
                }
            }
        }
    }

    for memo in &memos {
        r.memo_hits += memo.hits() as f64;
        r.memo_misses += memo.misses() as f64;
    }
    r.memo_entries_end = clusters
        .values()
        .flat_map(|c| c.memos.iter().flatten())
        .map(|m| m.misses() as f64)
        .sum();
    r.engine = Some(engine);
    r.registry = Some(registry);
    r
}

/// `COLD_PROBES` cold solves of one class: the class's own requests if
/// the replay has any (else `combined` or `sort-sample` over the requested
/// clusters), at their sizes shifted by a thousand elements per pass, so
/// every probe is a fresh size. They run through the replay's memos.
fn cold_probes(
    lines: &[(&str, &str, Option<f64>)],
    clusters: &HashMap<String, ReplayCluster>,
    nonlinear: bool,
    tracer: &mut Tracer,
    probes: &mut Vec<Solve>,
) {
    let mut own = Vec::new();
    let mut any = Vec::new();
    for (line, _, _) in lines.iter().take(PROBE_SCAN) {
        let Ok(env) = parse_request(line) else {
            continue;
        };
        if let Request::Partition {
            target: ClusterRef::Name(name),
            n,
            algorithm,
            ..
        } = env.request
        {
            let keys = if algorithm.info().cost.nonlinear() == nonlinear {
                &mut own
            } else {
                &mut any
            };
            if keys.len() < COLD_PROBES && !keys.contains(&(name.clone(), n, algorithm)) {
                keys.push((name, n, algorithm));
            }
        }
    }
    if own.is_empty() {
        let fallback = if nonlinear {
            AlgorithmId::SortSample
        } else {
            AlgorithmId::Combined
        };
        own = any
            .into_iter()
            .map(|(name, n, _)| (name, n, fallback))
            .collect();
    }
    let first = probes.len();
    for (i, (name, n, algorithm)) in own.iter().cycle().take(COLD_PROBES).enumerate() {
        let Some(rc) = clusters.get(name) else {
            continue;
        };
        let n = n + 1000 * (1 + i / own.len()) as u64;
        let id = REPLAY_IDS + (1 << 40) + (first + i) as u64;
        let (solved, _) = tracer.span(id, "solver.solve.probe", |_| {
            counted_solve(&rc.funcs, |f| algorithm.solve(n, f))
        });
        if let Some((report, ns, evals)) = solved {
            probes.push(Solve {
                nonlinear,
                warm: false,
                ns,
                steps: report.trace.steps() as f64,
                evals,
                intersections: (report.trace.steps() * rc.funcs.len()) as f64,
            });
        }
    }
}

fn replay_metrics(t: &Traced<'_>, r: &Replay, out: &mut Vec<Metric>) {
    let us = |v: Vec<f64>| median(&v.iter().map(|ns| ns / 1e3).collect::<Vec<_>>());
    // Cold solve times of one class: the replay's own if it ran enough,
    // else the cold probes.
    let cold = |nonlinear: bool| -> Vec<f64> {
        let of = |v: &[Solve]| -> Vec<f64> {
            v.iter()
                .filter(|s| !s.warm && s.nonlinear == nonlinear)
                .map(|s| s.ns)
                .collect()
        };
        let own = of(&r.solves);
        if own.len() >= COLD_PROBES {
            own
        } else {
            of(&r.probes)
        }
    };
    // The nonlinear sequence for the drift and per-evaluation figures:
    // every replayed nonlinear solve, warm or cold, in order; the probes
    // where the workload sent none.
    let nonlinear: Vec<&Solve> = if r.solves.iter().any(|s| s.nonlinear) {
        r.solves.iter().filter(|s| s.nonlinear).collect()
    } else {
        r.probes.iter().filter(|s| s.nonlinear).collect()
    };
    let warm: Vec<f64> = r.solves.iter().filter(|s| s.warm).map(|s| s.ns).collect();
    out.push(metric("solver.linear.solve_us_p50", us(cold(false)), "us"));
    out.push(metric(
        "solver.nonlinear.solve_us_p50",
        us(cold(true)),
        "us",
    ));
    out.push(metric("solver.warm.solve_us_p50", us(warm), "us"));
    let all = if r.solves.is_empty() {
        &r.probes
    } else {
        &r.solves
    };
    let sum = |f: fn(&Solve) -> f64| all.iter().map(f).sum::<f64>();
    out.push(metric(
        "solver.steps_per_solve",
        ratio(sum(|s| s.steps), all.len() as f64),
        "count",
    ));
    out.push(metric(
        "solver.evals_per_solve",
        ratio(sum(|s| s.evals), all.len() as f64),
        "count",
    ));
    out.push(metric(
        "solver.evals_per_intersection",
        ratio(sum(|s| s.evals), sum(|s| s.intersections)),
        "count",
    ));
    let nl_ns: f64 = nonlinear.iter().map(|s| s.ns).sum();
    let nl_evals: f64 = nonlinear.iter().map(|s| s.evals).sum();
    out.push(metric("solver.ns_per_eval", ratio(nl_ns, nl_evals), "ns"));
    // Last-decile over first-decile mean solve time, in sequence order.
    let seq: Vec<f64> = nonlinear.iter().map(|s| s.ns).collect();
    let decile = (seq.len() / 10).max(1);
    let drift = if seq.len() >= 2 {
        ratio(mean(&seq[seq.len() - decile..]), mean(&seq[..decile]))
    } else {
        0.0
    };
    out.push(metric("solver.drift_ratio", drift, "ratio"));
    out.push(metric(
        "memo.hit_ratio",
        ratio(r.memo_hits, r.memo_hits + r.memo_misses),
        "ratio",
    ));
    out.push(metric("memo.entries_end", r.memo_entries_end, "count"));

    let parse_ns = batch_ns(32, r.parse_lines.len().max(1) * 4, |i| {
        black_box(parse_request(black_box(&r.parse_lines[i % r.parse_lines.len()])).is_ok());
    });
    out.push(metric("wire.parse_ns", parse_ns, "ns"));
    out.push(metric(
        "serve.nonsolve_us_p50",
        median(&r.nonsolve_us),
        "us",
    ));

    let cache = r.engine.as_ref().expect("replay keeps its engine").cache();
    let resident: Vec<_> = r
        .resident
        .iter()
        .filter(|k| cache.probe(k).is_some())
        .copied()
        .collect();
    let probe_ns = if resident.is_empty() {
        0.0
    } else {
        batch_ns(32, 1000, |i| {
            black_box(
                cache
                    .probe(black_box(&resident[i % resident.len()]))
                    .is_some(),
            );
        })
    };
    out.push(metric("cache.probe_ns", probe_ns, "ns"));
    out.push(metric("cache.donor_us", median(&r.donor_us), "us"));

    // Registration: every set-up register line into fresh registries.
    let mut register_ms = r.register_ms.clone();
    for (line, _) in t
        .setup
        .iter()
        .filter(|(l, _)| l.contains(r#""verb":"register""#))
    {
        if let Ok(env) = parse_request(line) {
            if let Request::Register { cluster, spec } = env.request {
                for _ in 0..3 {
                    let fresh = Registry::new(4);
                    let t0 = Instant::now();
                    black_box(fresh.register(&cluster, &spec).is_ok());
                    register_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                }
            }
        }
    }
    out.push(metric("registry.register_ms", median(&register_ms), "ms"));
    let registry = r.registry.as_ref().expect("replay keeps its registry");
    let targets: Vec<ClusterRef> = r
        .lookup_targets
        .iter()
        .map(|n| ClusterRef::Name(n.clone()))
        .collect();
    let lookup_ns = batch_ns(32, 1000, |i| {
        black_box(
            registry
                .lookup(black_box(&targets[i % targets.len()]))
                .is_ok(),
        );
    });
    out.push(metric("registry.lookup_ns", lookup_ns, "ns"));
    out.push(metric(
        "registry.report_us_p50",
        quantile(&r.report_us, 0.5),
        "us",
    ));
}
