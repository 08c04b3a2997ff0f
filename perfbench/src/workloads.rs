//! Set-up, the timed window and the correctness check, shared by the
//! three workloads. Every workload is closed loop: a connection sends its
//! next window only after every reply of the previous one arrived.

use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use fpm_serve::client::Client;

use crate::check::{check_reply, Reference, Tally};
use crate::daemon::Deployment;
use crate::inputs::{Inputs, Op, OpKind, Stream};
use crate::trace::quantile;

/// Client read timeout: far beyond any solve the workloads ask for.
const READ_TIMEOUT: Duration = Duration::from_secs(120);
/// The window is cut into slices of this many seconds. A background
/// thread reads the host's CPU steal (time the hypervisor gave this
/// host's vCPUs to another guest) at every slice boundary.
pub const SLICE_S: f64 = 0.1;
/// A slice is calm when the hypervisor stole at most this share of CPU
/// time during it; with 10 ms ticks over 2 vCPUs that is no tick at all.
/// The end-to-end figures are taken over calm slices only. On the 2-vCPU
/// host this was tuned on, hot-plans slices with 10-30 % steal ran at 30
/// to 95 % of the calm slices' rate, whole runs were stolen from at 0.2 to
/// 22 %, and even at 22 % four slices in ten were calm and ran at about
/// the rate of a calm run.
const CALM_STEAL: f64 = 0.02;
/// Consecutive slices that form a segment. A segment's calm slices stand
/// for all of its slices: its requests count in the latency quantiles
/// with weight (slices ÷ calm slices), and its calm rate counts in the
/// throughput for the whole segment. So a burst of steal does not shift
/// the figures towards another part of the run: cold-solve's solves slow
/// down through the run as the speed memo grows, and its calm slices'
/// rate halves from first to last.
const SEGMENT_SLICES: usize = 20;
/// Share of a segment's slices kept at least: when fewer are calm, the
/// ones stolen from least make up the number.
const MIN_CALM_SHARE: f64 = 0.1;
/// In a traced hot-plans window, one request in this many gets a span.
const HOT_SPAN_EVERY: u64 = 16;

/// One answered request of a window-1 stream.
pub struct Record {
    pub conn: usize,
    pub op: Op,
    pub start: Instant,
    pub end: Instant,
    pub reply: String,
}

/// A distinct hot-plans reply and how many replies were byte-identical
/// to it.
pub struct HotReply {
    pub key: usize,
    pub reply: String,
    pub times: u64,
}

/// Everything one timed window produced.
#[derive(Default)]
pub struct Window {
    /// From the window's start to its last reply.
    pub seconds: f64,
    pub ops: u64,
    /// Per-request latencies in µs, per connection in completion order.
    pub latencies_us: Vec<Vec<f64>>,
    /// Per connection, the index into its `latencies_us` of the first
    /// request completed in each slice.
    slice_marks: Vec<Vec<usize>>,
    pub write_latencies_us: Vec<f64>,
    pub bytes: u64,
    pub records: Vec<Record>,
    pub hot_keys: Vec<String>,
    pub hot_replies: Vec<HotReply>,
    /// Client-side request spans `(request id, start, end)` when traced.
    pub spans: Vec<(u64, Instant, Instant)>,
    /// Transport failures (no reply at all).
    pub transport_errors: u64,
    /// Requests completed per slice.
    slice_ops: Vec<u64>,
    /// Slices that lie wholly inside the window.
    pub whole_slices: usize,
    /// Share of CPU time the hypervisor stole during each whole slice.
    slice_steal: Vec<f64>,
}

impl Window {
    /// An empty window of one connection.
    fn connection() -> Self {
        Self {
            latencies_us: vec![Vec::new()],
            slice_marks: vec![Vec::new()],
            ..Self::default()
        }
    }

    fn merge(&mut self, other: Window) {
        self.ops += other.ops;
        self.seconds = self.seconds.max(other.seconds);
        self.latencies_us.extend(other.latencies_us);
        self.slice_marks.extend(other.slice_marks);
        self.write_latencies_us.extend(other.write_latencies_us);
        self.bytes += other.bytes;
        self.records.extend(other.records);
        self.hot_replies.extend(other.hot_replies);
        self.spans.extend(other.spans);
        self.transport_errors += other.transport_errors;
        if self.slice_ops.len() < other.slice_ops.len() {
            self.slice_ops.resize(other.slice_ops.len(), 0);
        }
        for (mine, theirs) in self.slice_ops.iter_mut().zip(other.slice_ops) {
            *mine += theirs;
        }
    }

    /// Records one request of this connection's window, sent at `start`
    /// and answered at `end`, and returns its latency in µs.
    fn complete(&mut self, t0: Instant, start: Instant, end: Instant) -> f64 {
        let us = end.duration_since(start).as_secs_f64() * 1e6;
        let at = end.duration_since(t0).as_secs_f64();
        let slice = (at / SLICE_S) as usize;
        let marks = &mut self.slice_marks[0];
        while marks.len() <= slice {
            marks.push(self.latencies_us[0].len());
        }
        self.latencies_us[0].push(us);
        self.seconds = at;
        self.ops += 1;
        if self.slice_ops.len() <= slice {
            self.slice_ops.resize(slice + 1, 0);
        }
        self.slice_ops[slice] += 1;
        us
    }

    /// Each segment's number of slices and its calm slices in time order
    /// (see `CALM_STEAL`, `SEGMENT_SLICES` and `MIN_CALM_SHARE`).
    fn segments(&self) -> Vec<(usize, Vec<usize>)> {
        let steal = |k: usize| self.slice_steal.get(k).copied().unwrap_or(0.0);
        (0..self.whole_slices)
            .step_by(SEGMENT_SLICES)
            .map(|first| {
                let end = (first + SEGMENT_SLICES).min(self.whole_slices);
                let mut order: Vec<usize> = (first..end).collect();
                order.sort_by(|&a, &b| steal(a).total_cmp(&steal(b)));
                let least = ((end - first) as f64 * MIN_CALM_SHARE).ceil() as usize;
                let calm = order.iter().take_while(|&&k| steal(k) <= CALM_STEAL).count();
                order.truncate(calm.max(least));
                order.sort_unstable();
                (end - first, order)
            })
            .collect()
    }

    /// Calm slices kept, over all segments.
    pub fn calm_slices(&self) -> usize {
        self.segments().iter().map(|(_, calm)| calm.len()).sum()
    }

    /// Completed requests per second of each segment's calm slices.
    pub fn segment_throughputs(&self) -> Vec<f64> {
        self.segments()
            .iter()
            .map(|(_, calm)| {
                let ops: u64 = calm.iter().map(|&k| self.slice_ops.get(k).copied().unwrap_or(0)).sum();
                ops as f64 / (calm.len() as f64 * SLICE_S)
            })
            .collect()
    }

    /// Completed requests per second: the segments' calm rates, each
    /// weighted by the segment's length, or the whole window's rate when
    /// it is shorter than a slice.
    pub fn throughput(&self) -> f64 {
        if self.whole_slices == 0 {
            return crate::trace::ratio(self.ops as f64, self.seconds);
        }
        let weighted: f64 = self
            .segments()
            .iter()
            .zip(self.segment_throughputs())
            .map(|((slices, _), rate)| *slices as f64 * rate)
            .sum();
        weighted / self.whole_slices as f64
    }

    /// Latencies in µs of the requests completed in calm slices, each with
    /// its segment's weight, slices ÷ calm slices (every request of a
    /// window shorter than a slice, with weight 1).
    fn calm_latencies(&self) -> Vec<(f64, f64)> {
        if self.whole_slices == 0 {
            return self.latencies_us.iter().flatten().map(|&us| (us, 1.0)).collect();
        }
        let mut out = Vec::new();
        for (slices, calm) in self.segments() {
            let weight = slices as f64 / calm.len() as f64;
            for (lat, marks) in self.latencies_us.iter().zip(&self.slice_marks) {
                let mark = |k: usize| marks.get(k).copied().unwrap_or(lat.len());
                for &k in &calm {
                    out.extend(lat[mark(k)..mark(k + 1)].iter().map(|&us| (us, weight)));
                }
            }
        }
        out
    }

    /// Weighted latency quantiles `qs` in µs over the calm slices, and the
    /// number of latencies they cover.
    pub fn latencies(&self, qs: &[f64]) -> (Vec<f64>, usize) {
        let mut pairs = self.calm_latencies();
        pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let total: f64 = pairs.iter().map(|p| p.1).sum();
        let quantiles = qs
            .iter()
            .map(|&q| {
                let mut cumulative = 0.0;
                pairs
                    .iter()
                    .find(|p| {
                        cumulative += p.1;
                        cumulative >= q * total
                    })
                    .or(pairs.last())
                    .map_or(0.0, |p| p.0)
            })
            .collect();
        (quantiles, pairs.len())
    }

    /// Nearest-rank latency quantile in µs over the whole window.
    pub fn window_latency(&self, q: f64) -> f64 {
        quantile(&self.latencies_us.concat(), q)
    }

    /// Share of CPU time the hypervisor stole over the whole slices.
    pub fn steal(&self) -> f64 {
        crate::trace::mean(&self.slice_steal)
    }
}

/// `(steal, total)` CPU ticks since boot: time the hypervisor gave this
/// host's vCPUs to someone else shows as steal.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// A deployment that finished set-up, with the replies set-up received.
pub struct Ready {
    pub deployment: Deployment,
    pub seconds: f64,
    pub setup_records: Vec<(String, String)>,
}

/// Spawns the serving processes, registers the clusters and warms the
/// plan cache. The returned time covers all three.
pub fn setup(fpm: &Path, inputs: &Inputs) -> Result<Ready, String> {
    let started = Instant::now();
    let deployment = Deployment::start(fpm, inputs.topology)?;
    let mut client = Client::connect(deployment.front(), READ_TIMEOUT)
        .map_err(|e| format!("connect {}: {e}", deployment.front()))?;
    let mut setup_records = Vec::new();
    for line in inputs.register.iter().chain(&inputs.warm) {
        let mut reply = String::new();
        client
            .request_line(line, &mut reply)
            .map_err(|e| format!("set-up request failed: {e}"))?;
        if !reply.contains(r#""ok":true"#) {
            return Err(format!("set-up request refused: {reply}"));
        }
        setup_records.push((line.clone(), reply));
    }
    Ok(Ready {
        deployment,
        seconds: started.elapsed().as_secs_f64(),
        setup_records,
    })
}

/// Runs every connection's stream against `front` for `seconds`.
pub fn run_window(ready: &Ready, inputs: &mut Inputs, seconds: f64, traced: bool) -> Window {
    let front = ready.deployment.front();
    let window = inputs.window;
    let deadline = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let mut merged = Window {
        hot_keys: inputs.streams[0].hot_keys().to_vec(),
        ..Window::default()
    };
    let whole_slices = (seconds / SLICE_S) as usize;
    let (parts, slice_steal) = std::thread::scope(|s| {
        let sampler = s.spawn(move || {
            let mut last = cpu_ticks();
            (1..=whole_slices)
                .map(|k| {
                    let due = t0 + Duration::from_secs_f64(k as f64 * SLICE_S);
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                    let now = cpu_ticks();
                    let steal = crate::trace::ratio((now.0 - last.0) as f64, (now.1 - last.1) as f64);
                    last = now;
                    steal
                })
                .collect::<Vec<f64>>()
        });
        let handles: Vec<_> = inputs
            .streams
            .iter_mut()
            .enumerate()
            .map(|(conn, stream)| {
                s.spawn(move || {
                    if window > 1 {
                        drive_pipelined(front, stream, conn, window, t0, deadline, traced)
                    } else {
                        drive_closed(front, stream, conn, t0, deadline, traced)
                    }
                })
            })
            .collect();
        let parts: Vec<Window> = handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect();
        (parts, sampler.join().expect("steal sampler panicked"))
    });
    for part in parts {
        merged.merge(part);
    }
    merged.whole_slices = whole_slices;
    merged.slice_steal = slice_steal;
    merged.records.sort_by_key(|r| r.end);
    merged
}

/// Window-1 closed loop over the library client.
fn drive_closed(
    front: std::net::SocketAddr,
    stream: &mut Stream,
    conn: usize,
    t0: Instant,
    deadline: Duration,
    traced: bool,
) -> Window {
    let mut w = Window::connection();
    let mut client = match Client::connect(front, READ_TIMEOUT) {
        Ok(c) => c,
        Err(_) => {
            w.transport_errors += 1;
            return w;
        }
    };
    let mut seq = 0u64;
    while t0.elapsed() < deadline {
        let op = stream.next_op();
        let mut reply = String::new();
        let start = Instant::now();
        let sent = client.request_line(&op.line, &mut reply);
        let end = Instant::now();
        if sent.is_err() {
            w.transport_errors += 1;
            break;
        }
        let us = w.complete(t0, start, end);
        if op.kind == OpKind::Write {
            w.write_latencies_us.push(us);
        }
        if traced {
            w.spans.push(((conn as u64) << 40 | seq, start, end));
        }
        seq += 1;
        w.bytes += (op.line.len() + reply.len() + 2) as u64;
        w.records.push(Record {
            conn,
            op,
            start,
            end,
            reply,
        });
    }
    w
}

/// Pipelined closed loop: one write of `window` request lines, then all
/// `window` replies, then the next window. Replies identical to the last
/// reply for the same key are counted against it instead of stored.
#[allow(clippy::too_many_arguments)]
fn drive_pipelined(
    front: std::net::SocketAddr,
    stream: &mut Stream,
    conn: usize,
    window: usize,
    t0: Instant,
    deadline: Duration,
    traced: bool,
) -> Window {
    let mut w = Window::connection();
    let keys: Vec<Vec<u8>> = stream
        .hot_keys()
        .iter()
        .map(|k| format!("{k}\n").into_bytes())
        .collect();
    let Ok(sock) = TcpStream::connect(front) else {
        w.transport_errors += 1;
        return w;
    };
    let _ = sock.set_nodelay(true);
    let _ = sock.set_read_timeout(Some(READ_TIMEOUT));
    let mut writer = sock.try_clone().expect("clone socket");
    let mut reader = BufReader::with_capacity(1 << 16, sock);
    let mut last: Vec<Option<usize>> = vec![None; keys.len()];
    let mut buf = Vec::with_capacity(window * 128);
    let mut sent = vec![0usize; window];
    let mut line = String::new();
    let mut seq = 0u64;
    'run: while t0.elapsed() < deadline {
        buf.clear();
        for slot in sent.iter_mut() {
            *slot = stream.next_hot_key();
            buf.extend_from_slice(&keys[*slot]);
        }
        let start = Instant::now();
        if writer.write_all(&buf).is_err() {
            w.transport_errors += 1;
            break;
        }
        w.bytes += buf.len() as u64;
        for &key in &sent {
            line.clear();
            if !matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                w.transport_errors += 1;
                break 'run;
            }
            let end = Instant::now();
            w.complete(t0, start, end);
            if traced && seq % HOT_SPAN_EVERY == 0 {
                w.spans.push(((conn as u64) << 40 | seq, start, end));
            }
            seq += 1;
            w.bytes += line.len() as u64;
            match last[key] {
                Some(i) if w.hot_replies[i].reply == line => w.hot_replies[i].times += 1,
                _ => {
                    last[key] = Some(w.hot_replies.len());
                    w.hot_replies.push(HotReply {
                        key,
                        reply: line.clone(),
                        times: 1,
                    });
                }
            }
        }
    }
    w
}

/// Checks set-up replies and every window reply against a fresh
/// reference. Returns the tally and the reference in its final state.
pub fn check(setup: &[(String, String)], window: &Window) -> (Tally, Reference) {
    let mut reference = Reference::default();
    let mut tally = Tally::default();
    for (line, reply) in setup {
        tally.record(check_reply(&reference.apply(line), reply), 1);
    }
    if !window.hot_keys.is_empty() {
        let expected: Vec<_> = window.hot_keys.iter().map(|k| reference.apply(k)).collect();
        for r in &window.hot_replies {
            tally.record(check_reply(&expected[r.key], &r.reply), r.times);
        }
    }
    // Each connection owns its writes' clusters, so replaying connection
    // by connection keeps every cluster's request order.
    let conns = window.records.iter().map(|r| r.conn + 1).max().unwrap_or(0);
    for conn in 0..conns {
        for r in window.records.iter().filter(|r| r.conn == conn) {
            tally.record(check_reply(&reference.apply(&r.op.line), &r.reply), 1);
        }
    }
    tally.mismatches += window.transport_errors;
    if window.transport_errors > 0 {
        tally
            .first_mismatch
            .get_or_insert_with(|| "a connection lost its server".to_owned());
    }
    (tally, reference)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One connection's window in which slice `k` completed `ops[k]`
    /// requests of `latency_us[k]` µs each while the host stole
    /// `steal[k]` of its CPU time.
    fn window(ops: &[u64], latency_us: &[f64], steal: &[f64]) -> Window {
        let t0 = Instant::now();
        let mut w = Window::connection();
        for (k, (&n, &us)) in ops.iter().zip(latency_us).enumerate() {
            for i in 0..n {
                let at = (k as f64 + (i + 1) as f64 / (n + 1) as f64) * SLICE_S;
                let end = t0 + Duration::from_secs_f64(at);
                let start = end - Duration::from_secs_f64(us / 1e6);
                w.complete(t0, start, end);
            }
        }
        w.whole_slices = ops.len();
        w.slice_steal = steal.to_vec();
        w
    }

    #[test]
    fn calm_slices_stand_for_their_segment() {
        // Segment 1: calm, 10 requests of 100 µs per slice. Segment 2:
        // half stolen from (2 requests of 1000 µs per slice), half calm
        // (20 requests of 200 µs per slice).
        let n = SEGMENT_SLICES;
        let mut ops = vec![10; n];
        let mut latency = vec![100.0; n];
        let mut steal = vec![0.0; n];
        for k in 0..n {
            let stolen = k < n / 2;
            ops.push(if stolen { 2 } else { 20 });
            latency.push(if stolen { 1000.0 } else { 200.0 });
            steal.push(if stolen { 0.2 } else { 0.0 });
        }
        let w = window(&ops, &latency, &steal);
        assert_eq!(w.calm_slices(), n + n / 2);
        // (10 per slice over segment 1 + 20 per slice over segment 2) / 2.
        let rate = w.throughput();
        let expected = (10.0 + 20.0) / 2.0 / SLICE_S;
        assert!((rate - expected).abs() < 1e-9, "{rate} != {expected}");
        // 200 requests of weight 1 at 100 µs, 200 of weight 2 at 200 µs;
        // the stolen slices' 1000 µs requests are left out.
        let (q, samples) = w.latencies(&[0.3, 0.5, 0.99]);
        assert_eq!(samples, 400);
        assert_eq!(q, vec![100.0, 200.0, 200.0]);
    }

    #[test]
    fn a_segment_without_calm_slices_keeps_its_least_stolen() {
        let n = SEGMENT_SLICES;
        let mut steal = vec![0.3; n];
        steal[3] = 0.05;
        steal[7] = 0.1;
        let mut latency = vec![900.0; n];
        latency[3] = 100.0;
        latency[7] = 300.0;
        let w = window(&vec![5; n], &latency, &steal);
        assert_eq!(w.segments(), vec![(n, vec![3, 7])]);
        assert_eq!(w.latencies(&[0.5, 1.0]).0, vec![100.0, 300.0]);
    }

    #[test]
    fn a_window_shorter_than_a_slice_counts_every_request() {
        let mut w = window(&[4], &[50.0], &[0.5]);
        w.whole_slices = 0;
        assert_eq!(w.latencies(&[1.0]), (vec![50.0], 4));
        assert!(w.throughput() > 0.0);
    }
}
