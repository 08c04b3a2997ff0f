//! In-memory spans for the traced run. Each span carries the id of the
//! request it belongs to, a name, start and end (ns since the tracer was
//! created) and its parent span. Spans are written out once, at the end,
//! with their self times (duration minus the time covered by children).

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` of request `request`; spans
    /// opened inside `f` become its children. Returns `f`'s result and
    /// the span's duration in ns.
    pub fn span<R>(
        &mut self,
        request: u64,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, u64) {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            request,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
        (out, end_ns - start_ns)
    }

    /// Records an already-timed span (client requests timed on their own
    /// thread).
    pub fn record(&mut self, request: u64, name: &'static str, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            request,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: None,
        });
    }

    /// Self time of every span: its duration minus its children's
    /// durations (children of one span never overlap: the replay is
    /// single-threaded).
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Total self time and span count per span name, sorted by name.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64, u64)> {
        let mut by: std::collections::BTreeMap<&'static str, (u64, u64)> = Default::default();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let e = by.entry(s.name).or_default();
            e.0 += own;
            e.1 += 1;
        }
        by.into_iter().map(|(k, (ns, n))| (k, ns, n)).collect()
    }

    /// Writes one JSON object per span, for the requests whose id is a
    /// multiple of `every` (whole span trees are kept or dropped).
    pub fn write_jsonl(&self, path: &Path, every: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            if s.request % every != 0 {
                continue;
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"request":{},"span":{id},"parent":{parent},"name":"{}","start_ns":{},"end_ns":{},"self_ns":{own}}}"#,
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Nearest-rank quantile of unsorted samples (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    *v.select_nth_unstable_by(rank - 1, f64::total_cmp).1
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now());
        t.span(7, "root", |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span(7, "child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let own = t.self_times();
        let total = t.spans[0].end_ns - t.spans[0].start_ns;
        let child = t.spans[1].end_ns - t.spans[1].start_ns;
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(own[0], total - child);
        assert_eq!(own[1], child);
        assert!(child >= 5_000_000);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[]), 0.0);
    }
}
