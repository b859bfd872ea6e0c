//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded only from this benchmark's own code, around calls
//! into the library's public functions: a span is `(name, start, end,
//! parent)`, kept per thread (one rank's or one load generator's thread)
//! and written out when the run ends, as Chrome Trace Event JSON plus a
//! per-layer self-time table. A span's self time is its duration minus the
//! time its child spans cover. Recording is off unless a thread called
//! [`start`], so the untraced runs pay one thread-local check per span.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// Span names. Spans cross process boundaries as numbers, so a name is
/// an index into this table.
pub const NAMES: &[&str] = &[
    "step",
    "params.bind",
    "trainer.forward",
    "trainer.loss",
    "tape.backward",
    "ddp.flatten",
    "ddp.allreduce",
    "optim.adam",
    "exchange",
    "checkpoint.write",
    "session.build",
    "session.launch",
    "session.data",
    "loadgen.send",
    "loadgen.recv",
    "serve.forward",
];

pub const STEP: usize = 0;
pub const BIND: usize = 1;
pub const FORWARD: usize = 2;
pub const LOSS: usize = 3;
pub const BACKWARD: usize = 4;
pub const FLATTEN: usize = 5;
pub const ALLREDUCE: usize = 6;
pub const ADAM: usize = 7;
pub const EXCHANGE: usize = 8;
pub const CHECKPOINT: usize = 9;
pub const BUILD: usize = 10;
pub const LAUNCH: usize = 11;
pub const DATA: usize = 12;
pub const SEND: usize = 13;
pub const RECV: usize = 14;
pub const SERVE_FORWARD: usize = 15;

/// One recorded span; times are microseconds since the recorder started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: usize,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span in the same recording.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread, with times measured from `origin`.
pub fn start(origin: Instant) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Stop recording on this thread and hand back its spans.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Run `f` inside a span named `NAMES[name]`.
pub fn span<T>(name: usize, f: impl FnOnce() -> T) -> T {
    let opened = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let start_us = rec.origin.elapsed().as_secs_f64() * 1e6;
        let parent = rec.open.last().copied();
        rec.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent,
        });
        let idx = rec.spans.len() - 1;
        rec.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = opened {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[idx].end_us = rec.origin.elapsed().as_secs_f64() * 1e6;
                rec.open.pop();
            }
        });
    }
    out
}

/// Record a finished leaf span that began at `start` (for calls whose
/// result decides whether they count, such as a split-phase exchange
/// that a strategy may decline).
pub fn leaf(name: usize, start: Instant) {
    record(name, start, Instant::now());
}

/// Record a finished span over `[start, end]` under the innermost open
/// span.
pub fn record(name: usize, start: Instant, end: Instant) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let end_us = end.duration_since(rec.origin).as_secs_f64() * 1e6;
            let start_us = start.duration_since(rec.origin).as_secs_f64() * 1e6;
            let parent = rec.open.last().copied();
            rec.spans.push(Span {
                name,
                start_us,
                end_us,
                parent,
            });
        }
    });
}

/// Per-name totals of one recording.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_us: f64,
    pub self_us: f64,
}

/// Sum durations and self times per span name.
pub fn totals(spans: &[Span]) -> Vec<Totals> {
    let mut child_us = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_us[p] += s.dur_us();
        }
    }
    let mut out = vec![Totals::default(); NAMES.len()];
    for (s, c) in spans.iter().zip(&child_us) {
        let t = &mut out[s.name];
        t.count += 1;
        t.total_us += s.dur_us();
        t.self_us += s.dur_us() - c;
    }
    out
}

/// Share of `parent`-named spans' time covered by their direct children.
pub fn coverage(spans: &[Span], parent: usize) -> f64 {
    let total: f64 = spans
        .iter()
        .filter(|s| s.name == parent)
        .map(Span::dur_us)
        .sum();
    let covered: f64 = spans
        .iter()
        .filter(|c| c.parent.is_some_and(|p| spans[p].name == parent))
        .map(Span::dur_us)
        .sum();
    if total > 0.0 {
        covered / total
    } else {
        0.0
    }
}

/// Append `more` to `spans`, keeping parent links valid.
pub fn append(spans: &mut Vec<Span>, more: Vec<Span>) {
    let off = spans.len();
    spans.extend(more.into_iter().map(|s| Span {
        parent: s.parent.map(|p| p + off),
        ..s
    }));
}

/// Flatten spans into `f64`s (four per span) for `Comm::all_gather`.
pub fn encode(spans: &[Span]) -> Vec<f64> {
    spans
        .iter()
        .flat_map(|s| {
            [
                s.name as f64,
                s.start_us,
                s.end_us,
                s.parent.map_or(-1.0, |p| p as f64),
            ]
        })
        .collect()
}

/// Inverse of [`encode`].
pub fn decode(flat: &[f64]) -> Vec<Span> {
    flat.chunks_exact(4)
        .map(|c| Span {
            name: c[0] as usize,
            start_us: c[1],
            end_us: c[2],
            parent: (c[3] >= 0.0).then_some(c[3] as usize),
        })
        .collect()
}

/// Totals per span name summed over every group, largest self time
/// first, names that never occurred left out.
fn summed(groups: &[(String, Vec<Span>)]) -> Vec<(&'static str, Totals)> {
    let mut sum = vec![Totals::default(); NAMES.len()];
    for (_, spans) in groups {
        for (acc, t) in sum.iter_mut().zip(totals(spans)) {
            acc.count += t.count;
            acc.total_us += t.total_us;
            acc.self_us += t.self_us;
        }
    }
    let mut rows: Vec<(&'static str, Totals)> = NAMES
        .iter()
        .copied()
        .zip(sum)
        .filter(|(_, t)| t.count > 0)
        .collect();
    rows.sort_by(|a, b| b.1.self_us.total_cmp(&a.1.self_us));
    rows
}

/// Chrome Trace Event JSON for per-process (rank or thread group) span
/// lists, with the self-time table (ms, summed over every list) under
/// `otherData`.
pub fn chrome_json(groups: &[(String, Vec<Span>)]) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (pid, (label, spans)) in groups.iter().enumerate() {
        let sep = if pid == 0 { "" } else { ",\n" };
        let _ = write!(
            out,
            "{sep}{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \
             \"args\": {{\"name\": \"{label}\"}}}}"
        );
        for s in spans {
            let parent = s.parent.map_or("", |p| NAMES[spans[p].name]);
            let _ = write!(
                out,
                ",\n{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": {pid}, \"tid\": 0, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"parent\": \"{parent}\"}}}}",
                NAMES[s.name],
                s.start_us,
                s.dur_us()
            );
        }
    }
    let rows: Vec<String> = summed(groups)
        .iter()
        .map(|(name, t)| {
            format!(
                "\"{name}\": {{\"count\": {}, \"total_ms\": {:.4}, \"self_ms\": {:.4}}}",
                t.count,
                t.total_us / 1e3,
                t.self_us / 1e3
            )
        })
        .collect();
    let _ = writeln!(
        out,
        "\n], \"otherData\": {{\"self_time_ms\": {{{}}}}}}}",
        rows.join(", ")
    );
    out
}

/// The self-time table as text, largest self time first.
pub fn self_time_table(groups: &[(String, Vec<Span>)]) -> String {
    let mut out = format!(
        "{:<18} {:>9} {:>12} {:>12}\n",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, t) in summed(groups) {
        let _ = writeln!(
            out,
            "{:<18} {:>9} {:>12.3} {:>12.3}",
            name,
            t.count,
            t.total_us / 1e3,
            t.self_us / 1e3
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = vec![
            Span {
                name: STEP,
                start_us: 0.0,
                end_us: 10.0,
                parent: None,
            },
            Span {
                name: FORWARD,
                start_us: 1.0,
                end_us: 6.0,
                parent: Some(0),
            },
            Span {
                name: EXCHANGE,
                start_us: 2.0,
                end_us: 4.0,
                parent: Some(1),
            },
        ];
        let t = totals(&spans);
        assert_eq!(t[FORWARD].self_us, 3.0);
        assert_eq!(t[STEP].self_us, 5.0);
        assert_eq!(coverage(&spans, STEP), 0.5);
        assert_eq!(decode(&encode(&spans)), spans);
    }

    #[test]
    fn nested_spans_record_parents() {
        start(Instant::now());
        span(STEP, || span(FORWARD, || leaf(EXCHANGE, Instant::now())));
        let spans = finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(span(STEP, || true), "recording off still runs the closure");
        assert!(finish().is_empty());
    }
}
