//! In-memory span recorder for the `--trace 1` run.
//!
//! Spans are recorded from the benchmark's own files, around its calls
//! into each layer's public API; the library is not instrumented. Each
//! span has a name, start, end, parent and an optional request id (the
//! launch index on the serve workloads). Spans stay in memory and are
//! summarised (or written as JSONL) when the run ends. A layer's self
//! time is its span's duration minus the union of its children's
//! intervals, so children running in parallel are not double-counted.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    request: Option<u64>,
    start_ns: u64,
    end_ns: u64,
}

/// The recorder. A disabled tracer records nothing and costs one branch
/// per span, so the untraced run executes the same code.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
}

/// Where a new span attaches: the tracer, the enclosing span and the
/// request it belongs to. `Copy` and `Send`, so it can be handed into
/// parallel closures to keep their spans under the right parent.
#[derive(Clone, Copy)]
pub struct Cx<'a> {
    tracer: &'a Tracer,
    parent: Option<u64>,
    request: Option<u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    /// The root context: spans opened from it are top-level.
    pub fn root(&self) -> Cx<'_> {
        Cx {
            tracer: self,
            parent: None,
            request: None,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Per-name self time (seconds) and call count.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let spans = self.spans.lock().expect("span list lock poisoned");
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for s in spans.iter() {
            let covered = children.get_mut(&s.id).map_or(0, |c| union_len(c));
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            let e = out.entry(s.name).or_default();
            e.0 += own as f64 * 1e-9;
            e.1 += 1;
        }
        out
    }

    /// Counter totals recorded with [`Cx::count`].
    pub fn counters(&self) -> BTreeMap<&'static str, f64> {
        self.counters.lock().expect("counter lock poisoned").clone()
    }

    /// Share of the time since the tracer started that top-level spans
    /// cover.
    pub fn coverage(&self) -> f64 {
        let wall = self.now_ns().max(1);
        let spans = self.spans.lock().expect("span list lock poisoned");
        let mut top: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        union_len(&mut top) as f64 / wall as f64
    }

    /// Estimated share of the run spent recording spans: the span count
    /// times the cost of one recorded span, measured here on a scratch
    /// tracer.
    pub fn overhead_frac(&self) -> f64 {
        const CALIBRATION_SPANS: u32 = 20_000;
        let scratch = Tracer::new(true);
        let t = Instant::now();
        for _ in 0..CALIBRATION_SPANS {
            scratch.root().span("calibrate", |_| ());
        }
        let per_span = t.elapsed().as_secs_f64() / f64::from(CALIBRATION_SPANS);
        let spans = self.spans.lock().expect("span list lock poisoned").len();
        spans as f64 * per_span / (self.now_ns().max(1) as f64 * 1e-9)
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list lock poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_us\":{},\"end_us\":{}}}",
                s.id,
                opt(s.parent),
                s.name,
                opt(s.request),
                s.start_ns as f64 * 1e-3,
                s.end_ns as f64 * 1e-3
            )?;
        }
        out.flush()
    }
}

impl<'a> Cx<'a> {
    /// Run `f` inside a span named `name`; `f` gets the context its own
    /// child spans attach to.
    pub fn span<T>(self, name: &'static str, f: impl FnOnce(Cx<'a>) -> T) -> T {
        let tr = self.tracer;
        if !tr.enabled {
            return f(self);
        }
        let id = tr.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = tr.now_ns();
        let out = f(Cx {
            parent: Some(id),
            ..self
        });
        let end_ns = tr.now_ns();
        tr.spans
            .lock()
            .expect("span list lock poisoned")
            .push(Span {
                id,
                parent: self.parent,
                name,
                request: self.request,
                start_ns,
                end_ns,
            });
        out
    }

    /// Whether spans are being recorded.
    pub fn traced(self) -> bool {
        self.tracer.enabled
    }

    /// The same context, tagged with a request id for the spans it opens.
    pub fn request(self, id: u64) -> Self {
        Self {
            request: Some(id),
            ..self
        }
    }

    /// Add `amount` to a named counter (traced runs only).
    pub fn count(self, name: &'static str, amount: f64) {
        if self.tracer.enabled {
            *self
                .tracer
                .counters
                .lock()
                .expect("counter lock poisoned")
                .entry(name)
                .or_default() += amount;
        }
    }
}

/// Total length covered by a set of intervals.
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(union_len(&mut [(0, 10), (5, 15), (20, 30)]), 25);
        let tr = Tracer::new(true);
        tr.root().span("outer", |cx| {
            cx.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let t = tr.self_times();
        assert_eq!(t["outer"].1, 1);
        assert!(t["inner"].0 >= 0.005);
        assert!(t["outer"].0 < t["inner"].0);
        assert!(tr.coverage() > 0.5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        let v = tr.root().span("x", |cx| {
            cx.count("c", 1.0);
            7
        });
        assert_eq!(v, 7);
        assert!(tr.self_times().is_empty() && tr.counters().is_empty());
    }
}
