//! Lock-free telemetry core for the UniNet workspace.
//!
//! This crate is deliberately dependency-light (std only) and cheap to record
//! into from any hot path:
//!
//! - [`Counter`] / [`Gauge`] — single relaxed atomic RMW per update.
//! - [`Histogram`] — log-bucketed latency/value histogram: constant ~4 KiB
//!   memory, lock-free recording, mergeable [`HistogramSnapshot`]s with
//!   p50/p95/p99 whose error is bounded by the 12.5% bucket width.
//! - [`Stopwatch`] / [`StageTimer`] / [`time_into`] — stage timing, either
//!   sequential-lap style or RAII record-on-drop.
//! - [`MetricsRegistry`] — a named catalogue of instruments that freezes into
//!   a [`MetricsSnapshot`] and renders as a nested JSON tree. Registration is
//!   cold-path (mutex); recording through the returned `Arc` handles never
//!   locks.
//! - [`PhaseTiming`] / [`PhaseRecorder`] — the paper's Table VI `Ti`/`Tw`/`Tl`
//!   breakdown (moved here from `uninet-core`, which re-exports it).
//!
//! The convention across the workspace is three top-level metric sections:
//! `ingest.*` (queue, batch apply, sampler maintenance, walk refresh,
//! compaction), `engine.*` (training rounds, snapshot publishes, epoch age)
//! and `query.*` (per-mode latency, batch sizes, ANN fallbacks).

mod counter;
mod histogram;
mod phase;
mod registry;
mod timer;

pub use counter::{Counter, Gauge};
pub use histogram::{Histogram, HistogramSnapshot, NUM_BUCKETS, SUB_BUCKETS};
pub use phase::{PhaseRecorder, PhaseTiming};
pub use registry::{MetricValue, MetricsRegistry, MetricsSnapshot};
pub use timer::{time_into, StageTimer, Stopwatch};
