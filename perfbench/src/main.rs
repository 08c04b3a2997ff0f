//! End-to-end and per-layer benchmark of the fpm serving stack: real
//! `fpm serve` / `fpm router` processes driven by seeded, closed-loop
//! workloads, every reply checked against a local reference. See
//! `perfbench/README.md`.

mod check;
mod count;
mod daemon;
mod inputs;
mod layers;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use fpm_serve::json::Json;

use crate::inputs::Topology;
use crate::layers::{metric, Metric};
use crate::trace::{median, quantile, ratio};
use crate::workloads::{check, run_window, setup, Ready, Window};

pub const WORKLOADS: [&str; 3] = ["hot-plans", "cold-solve", "routed-refine"];

/// Wall time a run spends at least on repeated set-ups (and the stops
/// between them), in seconds.
const SETUP_BUDGET_S: f64 = 2.0;
/// Set-ups a run makes at most.
const MAX_SETUPS: usize = 64;

/// Sizes of the generated inputs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Client connections (and generator threads) of cold-solve.
    pub cold_connections: usize,
    /// Client connections of routed-refine. One: a routed request passes
    /// through the router and a shard, so each connection keeps several
    /// processes' threads busy, and with more connections than cores the
    /// figures would measure the scheduler.
    pub routed_connections: usize,
    /// Pipelined requests per write in hot-plans: 16, the depth of
    /// `repro bench_serve`'s pipelined phase (EXPERIMENTS.md).
    pub hot_window: usize,
    /// Warm `(n, algorithm)` keys in hot-plans: 8, the sizes of
    /// `repro bench_serve`'s warm and pipelined phases.
    pub hot_keys: usize,
    /// Machines of cold-solve's wide cluster.
    pub wide_machines: usize,
    /// Machines per routed-refine drift cluster.
    pub drift_machines: usize,
    /// Set-ups per run at least; `setup_s` is their median.
    pub setups: usize,
}

impl Scale {
    fn full() -> Self {
        Self {
            cold_connections: nproc().min(2),
            routed_connections: 1,
            hot_window: 16,
            hot_keys: 8,
            wide_machines: 256,
            drift_machines: 12,
            setups: 9,
        }
    }

    /// The smallest inputs that still exercise every layer (self-test).
    fn smallest() -> Self {
        Self {
            hot_window: 4,
            hot_keys: 4,
            wide_machines: 16,
            drift_machines: 6,
            setups: 2,
            ..Self::full()
        }
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    fpm: PathBuf,
    out: Option<PathBuf>,
    selftest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        fpm: PathBuf::from("fpm-cli"),
        out: None,
        selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--selftest" {
            args.selftest = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            "--fpm" => args.fpm = PathBuf::from(value),
            "--out" => args.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !args.selftest && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One run's result, as printed.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON result.
    notes: Vec<String>,
}

/// Cheap identity of the code under test: the commit when the checkout
/// is a git work tree, and always an FNV-1a digest of the crate sources.
fn source_identity() -> (String, String) {
    // Only this checkout's own repository: an enclosing one says nothing.
    let commit = Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        );
    let mut files = Vec::new();
    let mut dirs = vec![PathBuf::from("crates")];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    files.push(PathBuf::from("Cargo.lock"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (commit, format!("{h:016x}"))
}

fn regime(args: &Args, scale: &Scale, inputs: &inputs::Inputs, layout: &str) -> String {
    let (commit, digest) = source_identity();
    let topology = match inputs.topology {
        Topology::Single => "single".to_owned(),
        Topology::Routed { shards, replicas } => {
            format!("routed shards={shards} replicas={replicas}")
        }
    };
    Json::Obj(vec![
        ("workload".into(), Json::str(args.workload.clone())),
        ("seed".into(), Json::uint(args.seed)),
        ("seconds".into(), Json::num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("commit".into(), Json::str(commit)),
        ("source_fnv64".into(), Json::str(digest)),
        ("nproc".into(), Json::uint(nproc() as u64)),
        // Each daemon sizes its worker pool from available_parallelism.
        ("workers_per_daemon".into(), Json::uint(nproc() as u64)),
        (
            "connections".into(),
            Json::uint(inputs.streams.len() as u64),
        ),
        ("window".into(), Json::uint(inputs.window as u64)),
        ("topology".into(), Json::str(topology)),
        ("layout".into(), Json::str(layout)),
        ("deadline_ms".into(), Json::uint(daemon::deadline_ms())),
        ("setups_min".into(), Json::uint(scale.setups as u64)),
        ("loop".into(), Json::str("closed")),
    ])
    .to_string()
}

/// Set-up repeated at least `scale.setups` times, and more (up to
/// `MAX_SETUPS`) until `SETUP_BUDGET_S` of wall time has passed, so that a
/// set-up of a few ms is sampled enough for its median to repeat. The last
/// deployment stays up.
fn setups(fpm: &Path, inputs: &inputs::Inputs, scale: &Scale) -> Result<(Ready, f64), String> {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let ready = setup(fpm, inputs)?;
        times.push(ready.seconds);
        let more = times.len() < scale.setups
            || (started.elapsed().as_secs_f64() < SETUP_BUDGET_S && times.len() < MAX_SETUPS);
        if !more {
            return Ok((ready, median(&times)));
        }
        ready.deployment.stop();
    }
}

fn end_to_end(w: &Window, setup_s: f64, rss_mib: f64) -> Vec<Metric> {
    let (latency, _) = w.latencies(&[0.5, 0.99]);
    vec![
        metric("throughput_ops_s", w.throughput(), "1/s"),
        metric("latency_p50_us", latency[0], "us"),
        metric("latency_p99_us", latency[1], "us"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mib", rss_mib, "MiB"),
    ]
}

fn run(args: &Args, scale: &Scale) -> Result<Outcome, String> {
    let mut inputs = inputs::generate(&args.workload, args.seed, scale)?;
    let (ready, setup_s) = setups(&args.fpm, &inputs, scale)?;
    let mut notes = vec![format!(
        "regime {}",
        regime(args, scale, &inputs, &ready.deployment.layout())
    )];
    // A traced run splits its time between the untraced baseline window,
    // the traced window and the replay.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let window = run_window(&ready, &mut inputs, seconds, false);
    let rss = ready.deployment.peak_rss_mib();
    ready.deployment.stop();
    let started = Instant::now();
    let (tally, _) = check(&ready.setup_records, &window);
    eprintln!(
        "perfbench: checked {} replies in {:.1} s",
        tally.checked,
        started.elapsed().as_secs_f64()
    );
    if args.trace {
        return traced(args, scale, seconds, window.throughput(), tally, notes);
    }
    let writes = &window.write_latencies_us;
    let segments = window.segment_throughputs();
    notes.push(format!(
        "end-to-end {}: error_frac {} (ratio) over {} replies; host steal {:.3} of CPU time, {} of {} slices of {} s calm; segment throughput quartiles {:.1} / {:.1} 1/s; latency quantiles over {} calm-slice samples, whole-window p99 {:.3} us{}",
        args.workload,
        ratio(tally.failed() as f64, tally.checked as f64),
        tally.checked,
        window.steal(),
        window.calm_slices(),
        window.whole_slices,
        workloads::SLICE_S,
        quantile(&segments, 0.25),
        quantile(&segments, 0.75),
        window.latencies(&[]).1,
        window.window_latency(0.99),
        if writes.is_empty() {
            String::new()
        } else {
            format!(", write_p50_us {:.3} (us) over {} writes", quantile(writes, 0.5), writes.len())
        }
    ));
    Ok(finish(tally, end_to_end(&window, setup_s, rss), notes))
}

/// The traced run: after the untraced window (the overhead baseline), a
/// traced window on fresh processes with the same inputs, then the
/// per-layer measurement.
fn traced(
    args: &Args,
    scale: &Scale,
    seconds: f64,
    baseline: f64,
    mut tally: check::Tally,
    mut notes: Vec<String>,
) -> Result<Outcome, String> {
    let origin = Instant::now();
    let mut inputs = inputs::generate(&args.workload, args.seed, scale)?;
    let ready = setup(&args.fpm, &inputs)?;
    let window = run_window(&ready, &mut inputs, seconds, true);
    let (traced_tally, reference) = check(&ready.setup_records, &window);
    tally.merge(traced_tally);
    let traced = layers::Traced {
        fpm: &args.fpm,
        topology: inputs.topology,
        clusters: &inputs.clusters,
        setup: &ready.setup_records,
        window: &window,
        reference: &reference,
        budget: Duration::from_secs_f64(seconds),
    };
    let measured = layers::measure(&traced, &ready.deployment, origin);
    ready.deployment.stop();
    let measured = measured?;
    if measured.mismatches > 0 {
        tally.mismatches += measured.mismatches;
        tally
            .first_mismatch
            .get_or_insert_with(|| "a wrapped replay plan differs from the reference".into());
    }
    let mut metrics = measured.metrics;
    metrics.push(metric(
        "trace.overhead_frac",
        1.0 - ratio(window.throughput(), baseline),
        "ratio",
    ));
    metrics.sort_by_key(|m| m.name);
    for (name, self_ns, count) in measured.tracer.self_time_by_name() {
        notes.push(format!(
            "span {name:<28} count {count:>9} self {:>12.3} ms",
            self_ns as f64 / 1e6
        ));
    }
    if let Some(dir) = &args.out {
        // Every eighth request's span tree; the file is rewritten per run.
        let path = dir.join(format!("spans-{}.jsonl", args.workload));
        measured
            .tracer
            .write_jsonl(&path, 8)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        notes.push(format!(
            "spans of every 8th request written to {}",
            path.display()
        ));
    }
    Ok(finish(tally, metrics, notes))
}

fn finish(tally: check::Tally, metrics: Vec<Metric>, mut notes: Vec<String>) -> Outcome {
    if let Some(why) = &tally.first_mismatch {
        notes.push(format!(
            "INCORRECT: {} mismatching replies; first: {why}",
            tally.mismatches
        ));
    }
    Outcome {
        correct: tally.mismatches == 0,
        attempted: tally.checked.max(1),
        failed: tally.failed(),
        metrics,
        notes,
    }
}

fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}":{{"value":{},"unit":"{}"}}"#,
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(",")
    )
}

/// Runs every workload at the smallest scale, traced and untraced, and
/// checks that each finishes with no failed reply and prints exactly the
/// metric names `BENCHMARK.json` declares.
fn selftest(args: &Args) -> Result<(), String> {
    let spec =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let spec = Json::parse(&spec).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let names = |key: &str| -> Vec<String> {
        let mut v: Vec<String> = spec
            .get(key)
            .and_then(Json::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(|m| m.get("name").and_then(Json::as_str).map(str::to_owned))
            .collect();
        v.sort();
        v
    };
    let declared = names("workloads");
    let mut ours: Vec<String> = WORKLOADS.iter().map(|w| (*w).to_owned()).collect();
    ours.sort();
    if declared != ours {
        return Err(format!("BENCHMARK.json workloads {declared:?} != {ours:?}"));
    }
    for workload in WORKLOADS {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let run_args = Args {
                workload: workload.to_owned(),
                seed: args.seed,
                seconds: 1.0,
                trace,
                fpm: args.fpm.clone(),
                out: None,
                selftest: false,
            };
            let o = run(&run_args, &Scale::smallest())?;
            let mut got: Vec<String> = o.metrics.iter().map(|m| m.name.to_owned()).collect();
            got.sort();
            let label = format!("{workload} trace={}", u8::from(trace));
            if got != names(key) {
                return Err(format!(
                    "{label}: printed {got:?}, BENCHMARK.json {key} says {:?}",
                    names(key)
                ));
            }
            if !o.correct || o.failed > 0 {
                return Err(format!(
                    "{label}: error_frac {} / {}: {:?}",
                    o.failed, o.attempted, o.notes
                ));
            }
            eprintln!(
                "selftest {label}: ok ({} replies checked, error_frac 0)",
                o.attempted
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.selftest {
        return match selftest(&args) {
            Ok(()) => {
                eprintln!("selftest passed");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("selftest FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args, &Scale::full()) {
        Ok(o) => {
            for note in &o.notes {
                println!("{note}");
            }
            for m in &o.metrics {
                println!("metric {:<32} {:>16.4} {}", m.name, m.value, m.unit);
            }
            println!("{}", result_json(&o));
            if o.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
