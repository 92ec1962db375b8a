//! The per-layer metrics of a traced run.
//!
//! Every traced run reports every metric below; a layer a workload does not
//! use reads 0. Span-derived metrics are `<span name>_s` self times, which
//! together with `core.unaccounted_s` add up to `core.wall_s`.

use std::path::Path;

use crate::common::{gate, Metrics, Result};
use crate::trace::{layer_self_seconds, Trace};

/// Span names; each gives the metric `<name>_s`.
pub const SPANS: [&str; 17] = [
    "graph.load",
    "core.build",
    "core.train",
    "core.stream",
    "sampler.init",
    "walker.walk",
    "walker.refresh",
    "embedding.learn",
    "embedding.publish",
    "embedding.top_k_ann",
    "embedding.top_k_exact",
    "dyngraph.apply",
    "dyngraph.maintain",
    "dyngraph.compaction",
    "persist.wal_append",
    "server.start",
    "server.top_k",
];

/// Per-layer metrics that are not span self times, with their units.
pub const OTHER: [(&str, &str); 19] = [
    ("sampler.memory_mb", "MiB"),
    ("walker.ns_per_step", "ns"),
    ("walker.dirty_ratio", "ratio"),
    ("embedding.tokens_per_s_per_thread", "tokens/s"),
    ("embedding.ann_reinserted_ratio", "ratio"),
    ("embedding.top_k_ann_us", "us"),
    ("embedding.top_k_exact_us", "us"),
    ("dyngraph.compactions", "count"),
    ("ingest.batches", "count"),
    ("ingest.queue_wait_s", "s"),
    ("persist.wal_bytes", "bytes"),
    ("server.overhead_us", "us"),
    ("server.slab_size", "count"),
    ("server.rejected", "count"),
    ("query_p99_us", "us"),
    ("query_p99_us.high", "us"),
    ("core.unaccounted_s", "s"),
    ("core.wall_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// Closes the trace: per-span self times, the unaccounted remainder, the
/// wall time, zeros for unused layers, line counts; writes the span file.
/// Fails if the self times do not add up to the wall time.
pub fn finish(trace: &Trace, root: usize, mut m: Metrics, out: &Path) -> Result<Metrics> {
    let (selfs, unaccounted) = layer_self_seconds(trace.spans(), root);
    for name in selfs.keys() {
        gate(SPANS.contains(&name.as_str()), || {
            format!("span {name} has no metric")
        })?;
    }
    let root_span = &trace.spans()[root];
    let wall = (root_span.end - root_span.start) as f64 / 1e9;
    for name in SPANS {
        m.set(
            &format!("{name}_s"),
            selfs.get(name).copied().unwrap_or(0.0),
            "s",
        );
    }
    m.set("core.unaccounted_s", unaccounted, "s");
    m.set("core.wall_s", wall, "s");
    let sum: f64 = selfs.values().sum::<f64>() + unaccounted;
    gate((sum - wall).abs() <= 1e-6 * wall.max(1.0), || {
        format!("layer self times sum to {sum} s, wall is {wall} s")
    })?;
    for (name, unit) in OTHER {
        if m.get(name).is_none() {
            m.set(name, 0.0, unit);
        }
    }
    for (name, lines) in crate::loc::line_counts(Path::new(".")) {
        m.set(&name, lines as f64, "lines");
    }
    let spans = out.join("spans.jsonl");
    trace
        .write(&spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    eprintln!("spans written to {}", spans.display());
    Ok(m)
}

/// `(traced - untraced) / untraced`, in percent.
pub fn overhead_pct(traced: f64, untraced: f64) -> f64 {
    (traced - untraced) / untraced * 100.0
}
