//! In-memory span recording, self-time attribution and tail percentiles.
//!
//! Spans are recorded by the benchmark around its calls into each crate's
//! public functions (spans inside the program are not recorded). A span's
//! name is `<layer>.<stage>`; its metric is `<layer>.<stage>_s`, the sum of
//! the self times of all spans with that name. A span's self time is its
//! duration minus the part of its interval covered by its children, so the
//! self times of all spans under one root add up to the root's duration.
//! The root's own self time is what no layer span accounts for
//! (`core.unaccounted_s`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    /// Nanoseconds since the trace origin.
    pub start: u64,
    pub end: u64,
    /// Request id, for spans of one wire request.
    pub request: Option<u64>,
    /// Where the interval comes from: `timed` by the benchmark, or `report`
    /// when it is laid out from durations the engine itself exported.
    pub source: &'static str,
}

#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Trace::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.ns(Instant::now());
        self.push(name, parent, now, now, None, "timed")
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.ns(Instant::now());
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Records a span timed elsewhere (e.g. on a client thread).
    pub fn add(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        request: Option<u64>,
    ) -> usize {
        let (s, e) = (self.ns(start), self.ns(end));
        self.push(name, parent, s, e, request, "timed")
    }

    /// Lays `stages` out back to back from the start of `parent`: spans for
    /// stage durations the engine reports about its own run. Stages that
    /// would run past the parent's end are clipped to it.
    pub fn add_reported(&mut self, parent: usize, stages: &[(&str, Duration)]) -> Vec<usize> {
        let (mut at, limit) = (self.spans[parent].start, self.spans[parent].end);
        let mut ids = Vec::with_capacity(stages.len());
        for &(name, d) in stages {
            let end = (at + d.as_nanos() as u64).min(limit);
            ids.push(self.push(name, Some(parent), at, end, None, "report"));
            at = end;
        }
        ids
    }

    fn push(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: u64,
        end: u64,
        request: Option<u64>,
        source: &'static str,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start,
            end,
            request,
            source,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e9)
            .sum()
    }

    /// Writes one JSON object per span.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut s = String::with_capacity(self.spans.len() * 96);
        for (id, sp) in self.spans.iter().enumerate() {
            let _ = write!(
                s,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"source\":\"{}\"",
                sp.name,
                sp.parent.map_or("null".to_string(), |p| p.to_string()),
                sp.start,
                sp.end,
                sp.source
            );
            if let Some(r) = sp.request {
                let _ = write!(s, ",\"request\":{r}");
            }
            s.push_str("}\n");
        }
        std::fs::write(path, s)
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur) = (0u64, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(cur), e.min(hi));
        if e > s {
            total += e - s;
            cur = e;
        }
    }
    total
}

/// Self time of every span: duration minus the part of its interval that
/// its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for sp in spans {
        if let Some(p) = sp.parent {
            children[p].push((sp.start, sp.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(sp, ch)| {
            let dur = sp.end.saturating_sub(sp.start);
            dur - covered(ch, sp.start, sp.end).min(dur)
        })
        .collect()
}

/// Self time per span name, in seconds, over the subtree of `root`; the
/// root's own self time is returned separately (the unaccounted time).
pub fn layer_self_seconds(spans: &[Span], root: usize) -> (BTreeMap<String, f64>, f64) {
    let selfs = self_times(spans);
    let in_tree = |mut i: usize| loop {
        if i == root {
            return true;
        }
        match spans[i].parent {
            Some(p) => i = p,
            None => return false,
        }
    };
    let mut by_name = BTreeMap::new();
    for (i, sp) in spans.iter().enumerate() {
        if i != root && in_tree(i) {
            *by_name.entry(sp.name.clone()).or_insert(0.0) += selfs[i] as f64 / 1e9;
        }
    }
    (by_name, selfs[root] as f64 / 1e9)
}

/// The highest of the usual reporting percentiles that has at least ten
/// samples beyond it, for `n` samples (`None` below ten samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    // In basis points, so the "samples beyond" count is exact.
    [9_999usize, 9_990, 9_900, 9_000, 5_000]
        .into_iter()
        .find(|&bp| n * (10_000 - bp) / 10_000 >= 10)
        .map(|bp| bp as f64 / 100.0)
}

/// Nearest-rank percentile `p` (0–100) of `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name: name.into(),
            parent,
            start,
            end,
            request: None,
            source: "timed",
        }
    }

    #[test]
    fn self_time_subtracts_children_and_counts_overlap_once() {
        let spans = vec![
            span("core.run", None, 0, 100),
            span("a.x", Some(0), 10, 40),
            span("b.y", Some(0), 30, 60),
            span("c.z", Some(1), 15, 20),
            span("d.w", Some(0), 90, 130),
        ];
        let s = self_times(&spans);
        // Root: 100 minus the union [10,60) ∪ [90,100) = 100 - 60.
        assert_eq!(s, vec![40, 25, 30, 5, 40]);
    }

    #[test]
    fn layer_self_times_add_up_to_the_root() {
        let spans = vec![
            span("core.run", None, 0, 1_000),
            span("graph.load", Some(0), 0, 200),
            span("walker.walk", Some(0), 200, 700),
            span("sampler.init", Some(2), 200, 250),
            span("walker.walk", Some(0), 700, 900),
            span("other.root", None, 0, 5_000),
        ];
        let (layers, unaccounted) = layer_self_seconds(&spans, 0);
        let total: f64 = layers.values().sum::<f64>() + unaccounted;
        assert!((total - 1e-6).abs() < 1e-15);
        assert!((layers["walker.walk"] - 650e-9).abs() < 1e-15);
        assert!((unaccounted - 100e-9).abs() < 1e-15);
        assert!(!layers.contains_key("other.root"));
    }

    #[test]
    fn reported_stages_are_laid_out_inside_the_parent() {
        let mut t = Trace::new();
        let root = t.open("stream.session", None);
        std::thread::sleep(Duration::from_millis(2));
        t.close(root);
        let ids = t.add_reported(
            root,
            &[
                ("a.x", Duration::from_micros(500)),
                ("b.y", Duration::from_secs(10)),
            ],
        );
        let sp = t.spans();
        assert_eq!(sp[ids[0]].start, sp[root].start);
        assert_eq!(sp[ids[1]].start, sp[ids[0]].end);
        assert_eq!(sp[ids[1]].end, sp[root].end, "clipped to the parent");
        let (_, unaccounted) = layer_self_seconds(sp, root);
        assert_eq!(unaccounted, 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
