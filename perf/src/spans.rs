//! Spans recorded by the harness around its own calls into the
//! engine (and by the recording storage around the WAL's file calls).
//!
//! Each thread owns a preallocated [`ThreadSpans`]; nothing is shared
//! or written out until the phase has ended. Only one transaction in
//! [`SAMPLE_EVERY`] is traced: two clock reads per call is a
//! measurable tax at 100k+ txn/s, and the span file stays a few MB.

use std::fmt::Write as _;
use std::time::Instant;

/// One transaction in this many carries spans in a traced phase.
pub const SAMPLE_EVERY: u64 = 32;

/// `parent` of a span nothing in the harness caused (the txn span
/// itself, and storage spans from the WAL writer thread).
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    Txn,
    Begin,
    Read,
    Write,
    Commit,
    Abort,
    StorageAppend,
    StorageFsync,
    FeedBegin,
    FeedRead,
    FeedWrite,
}

impl Name {
    const COUNT: usize = Name::FeedWrite as usize + 1;

    pub fn as_str(self) -> &'static str {
        match self {
            Name::Txn => "txn",
            Name::Begin => "engine.begin",
            Name::Read => "engine.read",
            Name::Write => "engine.write",
            Name::Commit => "engine.commit",
            Name::Abort => "engine.abort",
            Name::StorageAppend => "wal.storage.append",
            Name::StorageFsync => "wal.storage.fsync",
            Name::FeedBegin => "sched.feed.begin",
            Name::FeedRead => "sched.feed.read",
            Name::FeedWrite => "sched.feed.write",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same thread's vector.
    pub parent: u32,
    /// The harness's transaction number, shared by a txn span and its
    /// children; 0 for storage spans (a batch serves several txns).
    pub txn: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span buffer. `epoch` is shared by every buffer of a
/// phase, so spans from different threads are on one time axis.
pub struct ThreadSpans {
    epoch: Instant,
    /// Whether the transaction now running is a sampled one.
    on: bool,
    spans: Vec<Span>,
}

impl ThreadSpans {
    /// A buffer that records (`capacity > 0`) or ignores every call.
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        ThreadSpans {
            epoch,
            on: false,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Selects whether spans are kept until the next call: the caller
    /// samples whole transactions, never single calls.
    pub fn sample(&mut self, on: bool) {
        // A full buffer stops sampling instead of reallocating inside
        // the measured loop.
        self.on = on && self.spans.len() + 16 <= self.spans.capacity();
    }

    /// Clock read opening a span (0 and no clock read when not sampled).
    pub fn start(&self) -> u64 {
        if self.on {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Opens a span that will have children: reserves its slot and
    /// returns the index to pass as their `parent`.
    pub fn open(&mut self, name: Name, txn: u64) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let start_ns = self.start();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: NO_PARENT,
            txn,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes a span opened with [`ThreadSpans::open`].
    pub fn close(&mut self, slot: u32) {
        if self.on {
            self.spans[slot as usize].end_ns = self.start();
        }
    }

    /// Records a finished leaf span that began at `start_ns`.
    pub fn leaf(&mut self, name: Name, start_ns: u64, parent: u32, txn: u64) {
        if self.on {
            let end_ns = self.start();
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                txn,
            });
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`
/// (which must be sorted by start; they may overlap each other and
/// stick out of the window).
pub fn covered_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut covered = 0;
    let mut frontier = start;
    for &(s, e) in intervals {
        let s = s.max(frontier);
        let e = e.min(end);
        if s < e {
            covered += e - s;
            frontier = e;
        }
    }
    covered
}

/// Per-name totals of one thread's spans, plus the self time of the
/// txn spans: a span's duration minus the part its children cover.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Totals {
    calls: [u64; Name::COUNT],
    ns: [u64; Name::COUNT],
    /// Sum over txn spans of duration minus child coverage.
    pub txn_self_ns: u64,
}

impl Totals {
    fn add(&mut self, name: Name, ns: u64) {
        self.calls[name as usize] += 1;
        self.ns[name as usize] += ns;
    }

    pub fn calls(&self, name: Name) -> u64 {
        self.calls[name as usize]
    }

    pub fn total_ns(&self, name: Name) -> u64 {
        self.ns[name as usize]
    }

    /// Mean duration of a call in nanoseconds (0 if never called).
    pub fn mean_ns(&self, name: Name) -> f64 {
        match self.calls(name) {
            0 => 0.0,
            c => self.total_ns(name) as f64 / c as f64,
        }
    }

    pub fn merge(&mut self, other: &Totals) {
        for i in 0..Name::COUNT {
            self.calls[i] += other.calls[i];
            self.ns[i] += other.ns[i];
        }
        self.txn_self_ns += other.txn_self_ns;
    }
}

/// Totals of one thread's spans. Children follow their parent in the
/// vector (the parent's slot is reserved first), in start order.
pub fn totals(spans: &[Span]) -> Totals {
    let mut t = Totals::default();
    let mut i = 0;
    while i < spans.len() {
        let s = spans[i];
        t.add(s.name, s.dur_ns());
        if s.name == Name::Txn {
            let mut children = Vec::new();
            let mut j = i + 1;
            while j < spans.len() && spans[j].parent == i as u32 {
                children.push((spans[j].start_ns, spans[j].end_ns));
                t.add(spans[j].name, spans[j].dur_ns());
                j += 1;
            }
            t.txn_self_ns += s.dur_ns() - covered_ns(s.start_ns, s.end_ns, &children);
            i = j;
        } else {
            i += 1;
        }
    }
    t
}

/// The span file of one traced phase: every recorded span, ids of the
/// form `thread:index` so `parent` stays a cross-reference. Written
/// straight into one string: a tree of a few hundred thousand JSON
/// objects would be built only to be rendered and dropped. Thread and
/// span names are this program's own identifiers and need no escaping.
pub fn render_trace(workload: &str, threads: &[(String, Vec<Span>)]) -> String {
    let mut out =
        format!("{{\"workload\":\"{workload}\",\"sample_every\":{SAMPLE_EVERY},\"spans\":[");
    let mut first = true;
    for (thread, spans) in threads {
        for (i, s) in spans.iter().enumerate() {
            let parent = match s.parent {
                NO_PARENT => "null".to_string(),
                p => format!("\"{thread}:{p}\""),
            };
            let _ = write!(
                out,
                "{}\n{{\"id\":\"{thread}:{i}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"txn\":{}}}",
                if first { "" } else { "," },
                s.name.as_str(),
                s.start_ns,
                s.end_ns,
                s.txn
            );
            first = false;
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            txn: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        // txn [0,100): begin [5,15) read [20,40) commit [50,90)
        // -> children cover 70, self time 30.
        let spans = [
            span(Name::Txn, 0, 100, NO_PARENT),
            span(Name::Begin, 5, 15, 0),
            span(Name::Read, 20, 40, 0),
            span(Name::Commit, 50, 90, 0),
            span(Name::Txn, 100, 130, NO_PARENT),
            span(Name::Begin, 100, 110, 4),
        ];
        let t = totals(&spans);
        assert_eq!(t.txn_self_ns, 30 + 20);
        assert_eq!(t.calls(Name::Txn), 2);
        assert_eq!(t.total_ns(Name::Begin), 20);
        assert_eq!(t.mean_ns(Name::Commit), 40.0);
        assert_eq!(t.mean_ns(Name::Abort), 0.0);
        // Per-call totals plus self time reproduce the txn time.
        let children: u64 = [Name::Begin, Name::Read, Name::Commit]
            .iter()
            .map(|n| t.total_ns(*n))
            .sum();
        assert_eq!(children + t.txn_self_ns, t.total_ns(Name::Txn));
    }

    #[test]
    fn coverage_merges_overlaps_and_clips_to_the_window() {
        // Window [100,200). Intervals overlap each other and the edges.
        let iv = [(50, 120), (110, 130), (125, 126), (150, 260)];
        assert_eq!(covered_ns(100, 200, &iv), 30 + 50);
        assert_eq!(covered_ns(100, 200, &[]), 0);
        assert_eq!(covered_ns(100, 200, &[(0, 50), (300, 400)]), 0);
    }

    #[test]
    fn unsampled_transactions_record_nothing() {
        let mut t = ThreadSpans::new(Instant::now(), 64);
        t.sample(false);
        let slot = t.open(Name::Txn, 7);
        let s = t.start();
        t.leaf(Name::Begin, s, slot, 7);
        t.close(slot);
        t.sample(true);
        let slot = t.open(Name::Txn, 8);
        let s = t.start();
        t.leaf(Name::Begin, s, slot, 8);
        t.close(slot);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn the_span_file_is_json_with_cross_references() {
        let threads = vec![
            (
                "client0".to_string(),
                vec![span(Name::Txn, 0, 9, NO_PARENT), span(Name::Begin, 1, 2, 0)],
            ),
            (
                "wal-writer".to_string(),
                vec![span(Name::StorageAppend, 3, 4, NO_PARENT)],
            ),
        ];
        let file = crate::json::Json::parse(&render_trace("durable", &threads)).unwrap();
        let spans = file.get("spans").and_then(|s| s.as_arr()).unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].get("parent").unwrap().as_str(), Some("client0:0"));
        assert_eq!(spans[1].get("name").unwrap().as_str(), Some("engine.begin"));
        assert_eq!(spans[2].get("parent"), Some(&crate::json::Json::Null));
        assert_eq!(spans[2].get("id").unwrap().as_str(), Some("wal-writer:0"));
    }

    #[test]
    fn a_full_buffer_stops_sampling() {
        let mut t = ThreadSpans::new(Instant::now(), 8);
        t.sample(true);
        assert_eq!(t.open(Name::Txn, 1), NO_PARENT);
    }
}
