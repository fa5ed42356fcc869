//! In-memory spans recorded around calls into the program's crates.
//!
//! Every measured operation is a root span named after its kind; the calls
//! it makes into a layer are child spans named after the layer metric
//! (`lang.parse`, `core.inclusion`, …).  A surface call (`LspServer::
//! handle`, a serve request) hides the layers beneath it, so the traced
//! run feeds the same input through the public functions that surface
//! calls and records those as *replays*: spans tied to the operation by
//! its id but with no parent, so they never count as its children.
//!
//! Counters are recorded per operation and operation kind.  A count must
//! repeat exactly across the operations of one kind; the summary reports
//! any that does not.

use crate::stats::median;
use pospec_json::{ObjBuilder, Value};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer metric stem (`lang.parse`), or the operation kind for a root.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start: u64,
    /// Nanoseconds since the run's epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one operation.
    pub op: u64,
    /// A replay of the operation's input, not one of its children.
    pub replay: bool,
    /// Recording thread (one per client).
    pub tid: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// One counter reading.
#[derive(Debug, Clone)]
struct Count {
    name: &'static str,
    op: u64,
    kind: &'static str,
    value: f64,
}

/// A span recorder; when off, every method only runs its closure.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_op: u64,
    last_op: Option<(u64, &'static str)>,
    counts: Vec<Count>,
}

impl Tracer {
    /// A recorder for thread `tid`; all threads of a run share `epoch`.
    pub fn new(on: bool, tid: u32, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            tid,
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: u64::from(tid) << 32,
            last_op: None,
            counts: Vec::new(),
        }
    }

    /// Is this recorder recording?
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, op: u64, replay: bool) -> usize {
        let parent = if replay { None } else { self.stack.last().copied() };
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent, op, replay, tid: self.tid });
        self.spans.len() - 1
    }

    fn close(&mut self, idx: usize) {
        self.spans[idx].end = self.now();
    }

    /// Run one measured operation of `kind`; returns its result and its
    /// wall time, which is measured whether or not tracing is on.
    pub fn op<R>(&mut self, kind: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, Duration) {
        let id = self.next_op;
        self.next_op += 1;
        self.last_op = Some((id, kind));
        if !self.on {
            let t = Instant::now();
            let r = f(self);
            return (r, t.elapsed());
        }
        let idx = self.open(kind, id, false);
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.close(idx);
        let d = Duration::from_nanos(self.spans[idx].dur_ns());
        (r, d)
    }

    /// Time a call into a layer as a child of the current span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let op = self.last_op.map_or(0, |(id, _)| id);
        let idx = self.open(name, op, false);
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.close(idx);
        r
    }

    /// Time a replay of the last operation's input through a layer.
    pub fn replay<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let op = self.last_op.map_or(0, |(id, _)| id);
        let idx = self.open(name, op, true);
        let r = f();
        self.close(idx);
        r
    }

    /// Record a counter for the last operation.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if let (true, Some((op, kind))) = (self.on, self.last_op) {
            self.counts.push(Count { name, op, kind, value });
        }
    }
}

/// The merged spans and counters of one traced run.
pub struct Summary {
    spans: Vec<Span>,
    counts: Vec<Count>,
}

impl Summary {
    /// Merge the recorders of every thread of a run.
    pub fn merge(tracers: Vec<Tracer>) -> Summary {
        let mut spans = Vec::new();
        let mut counts = Vec::new();
        for t in tracers {
            let base = spans.len();
            spans.extend(t.spans.into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
            counts.extend(t.counts);
        }
        Summary { spans, counts }
    }

    /// Median over the operations that called `name` of the time spent
    /// in it per operation, in ms, with the number of such operations.
    pub fn layer_ms(&self, name: &str) -> (f64, usize) {
        let mut per_op: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *per_op.entry(s.op).or_default() += s.dur_ns();
        }
        let v: Vec<f64> = per_op.values().map(|&ns| ns as f64 / 1e6).collect();
        (median(&v), v.len())
    }

    /// Median self time (span minus its children) per operation, in ms.
    fn self_ms(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut per_op: BTreeMap<u64, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.name == name) {
            *per_op.entry(s.op).or_default() += s.dur_ns().saturating_sub(child_ns[i]);
        }
        let v: Vec<f64> = per_op.values().map(|&ns| ns as f64 / 1e6).collect();
        median(&v)
    }

    /// Median over measured operations (setup excluded) of the part of
    /// each operation no layer span covers, in ms.
    pub fn unattributed_ms(&self) -> (f64, usize) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let v: Vec<f64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none() && !s.replay && s.name != "setup")
            .map(|(i, s)| s.dur_ns().saturating_sub(child_ns[i]) as f64 / 1e6)
            .collect();
        let n = v.len();
        (median(&v), n)
    }

    /// Per kind, the value counter `name` took on every operation of
    /// that kind; an error names a counter that did not repeat.
    fn count_by_kind(&self, name: &str) -> Result<BTreeMap<&'static str, f64>, String> {
        let mut by_kind: BTreeMap<&'static str, f64> = BTreeMap::new();
        for c in self.counts.iter().filter(|c| c.name == name) {
            match by_kind.get(c.kind) {
                Some(&v) if v != c.value => {
                    return Err(format!(
                        "count `{name}` does not repeat on `{}` operations: {v} then {} (op {})",
                        c.kind, c.value, c.op
                    ))
                }
                _ => {
                    by_kind.insert(c.kind, c.value);
                }
            }
        }
        Ok(by_kind)
    }

    /// A count per cycle: the sum over operation kinds of the value the
    /// counter repeats on that kind (0 when never recorded).
    pub fn count(&self, name: &str) -> Result<f64, String> {
        Ok(self.count_by_kind(name)?.values().fold(0.0, |a, v| a + v))
    }

    /// One line per span name: median per-operation total and self time.
    pub fn breakdown(&self) -> Vec<String> {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        names
            .into_iter()
            .map(|n| {
                let (total, ops) = self.layer_ms(n);
                let replay = self.spans.iter().any(|s| s.name == n && s.replay);
                format!(
                    "span {n:<24} total {total:>11.4} ms  self {:>11.4} ms  ops {ops}{}",
                    self.self_ms(n),
                    if replay { "  (replay)" } else { "" }
                )
            })
            .collect()
    }

    /// The spans as Chrome trace-event JSON (`ph: X`, microseconds).
    pub fn chrome_json(&self) -> Value {
        let events: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                let cat = if s.parent.is_none() && !s.replay {
                    "op"
                } else if s.replay {
                    "replay"
                } else {
                    "layer"
                };
                ObjBuilder::new()
                    .field("name", s.name)
                    .field("cat", cat)
                    .field("ph", "X")
                    .field("ts", s.start as f64 / 1e3)
                    .field("dur", s.dur_ns() as f64 / 1e3)
                    .field("pid", 1u64)
                    .field("tid", u64::from(s.tid))
                    .field(
                        "args",
                        ObjBuilder::new()
                            .field("op", s.op)
                            .field(
                                "parent",
                                s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                            )
                            .field("replay", s.replay)
                            .build(),
                    )
                    .build()
            })
            .collect();
        ObjBuilder::new()
            .field("traceEvents", Value::Arr(events))
            .field("displayTimeUnit", "ms")
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_replays_and_counts() {
        let mut t = Tracer::new(true, 0, Instant::now());
        for _ in 0..3 {
            t.op("refine", |t| {
                t.span("lang.parse", |_| std::thread::sleep(Duration::from_millis(2)));
            });
            t.replay("regex.minimize", || std::thread::sleep(Duration::from_millis(1)));
            t.count("regex.states_in", 7.0);
        }
        t.op("lint", |_| ());
        t.count("regex.states_in", 3.0);
        let s = Summary::merge(vec![t]);
        let (parse, n) = s.layer_ms("lang.parse");
        assert_eq!(n, 3);
        assert!(parse >= 2.0);
        assert_eq!(s.layer_ms("regex.minimize").1, 3);
        assert_eq!(s.count("regex.states_in"), Ok(10.0));
        let (un, ops) = s.unattributed_ms();
        assert_eq!(ops, 4, "replays are not operations");
        assert!(un < parse);
        let mut t = Tracer::new(true, 1, Instant::now());
        t.op("refine", |_| ());
        t.count("core.dfa_builds", 1.0);
        t.op("refine", |_| ());
        t.count("core.dfa_builds", 2.0);
        assert!(Summary::merge(vec![t]).count("core.dfa_builds").is_err());
    }

    #[test]
    fn off_records_nothing_but_times_ops() {
        let mut t = Tracer::new(false, 0, Instant::now());
        let (v, d) = t.op("check", |t| t.span("lang.parse", |_| 5));
        assert_eq!(v, 5);
        assert!(d.as_nanos() > 0 || d.is_zero());
        t.count("x", 1.0);
        let s = Summary::merge(vec![t]);
        assert_eq!(s.layer_ms("lang.parse").1, 0);
        assert_eq!(s.count("x"), Ok(0.0));
    }
}
