//! `stream`: durable `Engine::stream()` sessions of a valid mixed update
//! stream on a planted-partition graph. `dyngraph` applies and compacts,
//! `ingest` queues, `persist` logs, `walker` refreshes the affected walks,
//! and each session ends with one retrain.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use uninet_core::{
    Engine, FsyncPolicy, GraphMutation, MetricsSnapshot, StreamOutcome, UpdateBatch,
};
use uninet_graph::io::{read_edge_list_file, EdgeListOptions};
use uninet_persist::WalWriter;

use crate::common::*;
use crate::gen::{self, GraphInput, LiveEdges, DIGEST_INIT};
use crate::layers;
use crate::trace::{median, Trace};

#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub nodes: usize,
    pub communities: usize,
    pub num_walks: usize,
    pub walk_length: usize,
    pub dim: usize,
    pub window: usize,
    /// Batches of [`BATCH`] mutations per `stream()` session.
    pub batches: usize,
    /// Sessions generated up front (the measured loop uses a prefix).
    pub sessions: usize,
}

/// The `stream` workload.
pub const FULL: Size = Size {
    nodes: 1_000,
    communities: 10,
    num_walks: 2,
    walk_length: 40,
    dim: 32,
    window: 5,
    batches: 100,
    sessions: 40,
};

/// The small copy that fills in `stream`'s metrics for other workloads.
pub const PROBE: Size = Size {
    nodes: 300,
    communities: 6,
    num_walks: 2,
    walk_length: 40,
    dim: 32,
    window: 5,
    batches: 8,
    sessions: 60,
};

struct Inputs {
    graph: GraphInput,
    path: PathBuf,
    /// One chunk of mutations per session.
    sessions: Vec<Vec<GraphMutation>>,
    /// The live-edge model after each session.
    live_after: Vec<LiveEdges>,
}

fn inputs(ctx: &Ctx, size: &Size) -> Result<Inputs> {
    let graph = planted_input(ctx, size.nodes, size.communities);
    let mut digest = DIGEST_INIT;
    let path = write_graph(ctx, &graph, &mut digest)?;
    let mut live = LiveEdges::new(&graph);
    let mut rng = ctx.rng("updates");
    let (mut sessions, mut live_after) = (Vec::new(), Vec::new());
    for _ in 0..size.sessions {
        let chunk = gen::update_stream(
            &mut rng,
            &mut live,
            &graph.community,
            INTRA_SHARE,
            size.batches * BATCH,
        );
        sessions.push(chunk);
        live_after.push(live.clone());
    }
    gen::write_input(
        &ctx.out,
        "updates.txt",
        &gen::updates_text(&sessions.concat()),
        &mut digest,
    )
    .map_err(|e| format!("writing inputs: {e}"))?;
    note_inputs(ctx, digest);
    Ok(Inputs {
        graph,
        path,
        sessions,
        live_after,
    })
}

fn spec(size: &Size, wal: &Path) -> EngineSpec {
    EngineSpec {
        wal: Some(wal.to_path_buf()),
        ..EngineSpec::deepwalk(size.num_walks, size.walk_length, size.dim, size.window)
    }
}

fn fresh_dir(dir: &Path) -> Result<()> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// Runs one session over `chunk` and checks its accounting.
fn session(engine: &Engine, chunk: &[GraphMutation]) -> Result<(StreamOutcome, f64)> {
    let before = engine.snapshot().epoch();
    let t = Instant::now();
    let handle = engine
        .stream(chunk.to_vec())
        .map_err(|e| format!("stream: {e}"))?;
    let outcome = handle.join().map_err(|e| format!("stream join: {e}"))?;
    let visible = engine.snapshot().epoch();
    let wall = secs(t.elapsed());
    let r = &outcome.report;
    let applied = r.weight_mutations + r.topology_mutations;
    gate(applied + r.rejected_mutations == chunk.len(), || {
        format!(
            "{applied} applied + {} rejected != {} sent",
            r.rejected_mutations,
            chunk.len()
        )
    })?;
    gate(r.rejected_mutations == 0, || {
        format!(
            "{} mutations of a valid stream were rejected",
            r.rejected_mutations
        )
    })?;
    gate(outcome.epoch > before && visible == outcome.epoch, || {
        format!(
            "epoch went {before} -> {} (visible {visible})",
            outcome.epoch
        )
    })?;
    if let Some(d) = &r.durability {
        gate(d.wal_error.is_none(), || {
            format!("WAL degraded: {:?}", d.wal_error)
        })?;
    }
    Ok((outcome, wall))
}

/// The checks after the last session: walks are paths in the final graph,
/// the recovered graph has the model's edge count, and quality holds.
fn final_checks(
    ctx: &Ctx,
    size: &Size,
    inp: &Inputs,
    engine: &Engine,
    last: &StreamOutcome,
    sessions_run: usize,
    wal: &Path,
) -> Result<f64> {
    let live = &inp.live_after[sessions_run - 1];
    let adj = Adjacency::undirected(inp.graph.num_nodes, live.pairs().iter().copied());
    check_walks(&last.result.corpus, &adj, size.walk_length)?;
    let recovered = uninet_persist::recover(wal).map_err(|e| format!("recover: {e}"))?;
    let edges = recovered.graph.num_edges();
    gate(edges == 2 * live.len(), || {
        format!(
            "recovered graph has {edges} directed edges, the model {}",
            2 * live.len()
        )
    })?;
    let mut full: HashSet<(u32, u32)> = HashSet::new();
    for &(u, v) in live.pairs().iter().chain(&inp.graph.held_out) {
        full.insert((u, v));
        full.insert((v, u));
    }
    let auc = link_auc(
        &engine.snapshot(),
        &inp.graph.held_out,
        |u, v| full.contains(&(u, v)),
        ctx.seed,
    );
    gate(auc >= LINK_AUC_FLOOR, || {
        format!("link_auc {auc} is below the floor {LINK_AUC_FLOOR}")
    })?;
    Ok(auc)
}

/// `stream` set up: the engine, its WAL, and the sessions run so far.
struct Stream {
    ctx: Ctx,
    size: Size,
    inp: Inputs,
    wal: PathBuf,
    engine: Engine,
    setup_s: f64,
    /// Mutations per second of each session.
    rates: Vec<f64>,
    last: Option<StreamOutcome>,
    sent: usize,
}

pub fn setup(ctx: &Ctx, size: &Size, setup_reps: usize) -> Result<Box<dyn Bench>> {
    let inp = inputs(ctx, size)?;
    let wal = ctx.out.join("wal");
    let spec = spec(size, &wal);
    let (engine, setup_s) = repeated_setup(setup_reps, || {
        fresh_dir(&wal)?;
        let engine = spec.load(ctx, &inp.path)?;
        engine.train().map_err(|e| format!("train: {e}"))?;
        Ok(engine)
    })?;
    Ok(Box::new(Stream {
        ctx: ctx.clone(),
        size: *size,
        inp,
        wal,
        engine,
        setup_s,
        rates: Vec::new(),
        last: None,
        sent: 0,
    }))
}

impl Bench for Stream {
    fn measure(&mut self, seconds: f64, min: usize) -> Result<()> {
        let Stream {
            inp,
            engine,
            rates,
            last,
            sent,
            ..
        } = self;
        measure_loop(seconds, min, || {
            let chunk = inp
                .sessions
                .get(rates.len())
                .ok_or("ran out of generated sessions")?;
            let (outcome, wall) = session(engine, chunk)?;
            *sent += chunk.len();
            rates.push(chunk.len() as f64 / wall);
            *last = Some(outcome);
            Ok(())
        })
        .map(drop)
    }

    fn finish(self: Box<Self>) -> Result<Outcome> {
        eprintln!("stream: mutations/s per session {:.0?}", self.rates);
        let last = self.last.as_ref().ok_or("no session was measured")?;
        let auc = final_checks(
            &self.ctx,
            &self.size,
            &self.inp,
            &self.engine,
            last,
            self.rates.len(),
            &self.wal,
        )?;
        let mut m = Metrics::default();
        m.set("setup_s", self.setup_s, "s");
        m.set("stream_updates_per_s", median(&self.rates), "mutations/s");
        m.set("link_auc", auc, "ratio");
        Ok(Outcome {
            metrics: m,
            attempted: self.sent as u64,
            failed: 0,
        })
    }
}

fn hist_sum_ns(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> Duration {
    let sum = |s: &MetricsSnapshot| s.histogram(name).map_or(0, |h| h.sum());
    Duration::from_nanos(sum(after).saturating_sub(sum(before)))
}

/// Mean time to append one batch of `chunk` to a fresh WAL with the
/// engine's fsync policy.
fn wal_append_per_batch(dir: &Path, chunk: &[GraphMutation]) -> Result<Duration> {
    fresh_dir(dir)?;
    let mut wal = WalWriter::open(dir, FsyncPolicy::Always).map_err(|e| format!("wal: {e}"))?;
    let batches: Vec<UpdateBatch> = chunk
        .chunks(BATCH)
        .map(|c| UpdateBatch::from_mutations(c.to_vec()))
        .collect();
    let t = Instant::now();
    for b in &batches {
        wal.append(b).map_err(|e| format!("wal append: {e}"))?;
    }
    Ok(t.elapsed() / batches.len() as u32)
}

/// The traced run. A session runs its stages inside one `Engine::stream`
/// call, so their times come from what the engine exports about itself:
/// `StreamingReport` (walk init and walks, apply, maintain, refresh, final
/// retrain) and `Engine::metrics()` deltas (compaction, publish). WAL
/// append time is estimated by replaying the session's batches through
/// `WalWriter::append`. These spans are marked `"source": "report"`.
pub fn trace(ctx: &Ctx, size: &Size) -> Result<Outcome> {
    let inp = inputs(ctx, size)?;
    let wal = ctx.out.join("wal");
    fresh_dir(&wal)?;
    let spec = spec(size, &wal);

    let mut tr = Trace::new();
    let root = tr.open("core.run", None);
    let graph = tr
        .time("graph.load", Some(root), || {
            read_edge_list_file(&inp.path, EdgeListOptions::default())
        })
        .map_err(|e| format!("load: {e}"))?;
    let engine = tr
        .time("core.build", Some(root), || {
            spec.builder(ctx).graph(graph).build()
        })
        .map_err(|e| format!("build: {e}"))?;
    let m0 = engine.metrics();
    let train_span = tr.open("core.train", Some(root));
    let report = engine.train().map_err(|e| format!("train: {e}"))?;
    tr.close(train_span);
    let publish = hist_sum_ns(&m0, &engine.metrics(), "engine.publish.total_ns");
    tr.add_reported(
        train_span,
        &[
            ("sampler.init", report.timing.init),
            ("walker.walk", report.timing.walk),
            ("embedding.learn", report.timing.learn),
            ("embedding.publish", publish),
        ],
    );

    let mut traced = Vec::new();
    let mut done: Vec<(usize, StreamOutcome, Duration, Duration)> = Vec::new();
    measure_loop(ctx.seconds / 2.0, 2, || {
        let chunk = inp
            .sessions
            .get(done.len())
            .ok_or("ran out of generated sessions")?;
        let before = engine.metrics();
        let span = tr.open("core.stream", Some(root));
        let (outcome, wall) = session(&engine, chunk)?;
        tr.close(span);
        let after = engine.metrics();
        traced.push(wall);
        done.push((
            span,
            outcome,
            hist_sum_ns(&before, &after, "ingest.compaction.duration_ns"),
            hist_sum_ns(&before, &after, "engine.publish.total_ns"),
        ));
        Ok(())
    })?;
    tr.close(root);

    // Untraced baseline on the next sessions, then the WAL replay estimate.
    let (mut untraced, mut last) = (Vec::new(), None);
    for chunk in &inp.sessions[done.len()..2 * done.len()] {
        let (outcome, wall) = session(&engine, chunk)?;
        untraced.push(wall);
        last = Some(outcome);
    }
    let last = last.expect("at least one session");
    final_checks(ctx, size, &inp, &engine, &last, 2 * done.len(), &wal)?;
    let per_batch = wal_append_per_batch(&ctx.out.join("wal-replay"), &inp.sessions[0])?;

    let (mut batches, mut compactions, mut queue_wait, mut wal_bytes) = (0, 0, Duration::ZERO, 0);
    let (mut refreshed, mut walk_slots, mut tokens) = (0usize, 0usize, 0usize);
    for (span, o, compaction, publish) in &done {
        let r = &o.report;
        let t = &o.result.timing;
        let ids = tr.add_reported(
            *span,
            &[
                ("sampler.init", t.init),
                ("walker.walk", t.walk),
                ("dyngraph.apply", r.apply_time),
                ("dyngraph.maintain", r.maintain_time),
                ("walker.refresh", r.refresh_time),
                ("persist.wal_append", per_batch * r.batches as u32),
                ("embedding.learn", t.learn),
                ("embedding.publish", *publish),
            ],
        );
        tr.add_reported(ids[3], &[("dyngraph.compaction", *compaction)]);
        batches += r.batches;
        compactions += r.compactions;
        queue_wait += r.queue.producer_wait;
        wal_bytes += r.durability.as_ref().map_or(0, |d| d.wal_bytes);
        refreshed += r.refresh.walks_refreshed;
        walk_slots += r.batches * o.result.corpus.num_walks();
        tokens += o.result.corpus.total_tokens();
    }
    let tokens = (tokens + report.corpus.total_tokens()) as f64;
    let threads = engine.config().embedding.num_threads as f64;
    let mut m = Metrics::default();
    m.set(
        "walker.ns_per_step",
        tr.total_seconds("walker.walk") * 1e9 / tokens,
        "ns",
    );
    m.set(
        "walker.dirty_ratio",
        refreshed as f64 / walk_slots.max(1) as f64,
        "ratio",
    );
    m.set(
        "embedding.tokens_per_s_per_thread",
        tokens / tr.total_seconds("embedding.learn") / threads,
        "tokens/s",
    );
    m.set("dyngraph.compactions", compactions as f64, "count");
    m.set("ingest.batches", batches as f64, "count");
    m.set("ingest.queue_wait_s", secs(queue_wait), "s");
    m.set("persist.wal_bytes", wal_bytes as f64, "bytes");
    m.set(
        "trace.overhead_pct",
        layers::overhead_pct(median(&traced), median(&untraced)),
        "%",
    );
    Ok(Outcome {
        metrics: layers::finish(&tr, root, m, &ctx.out)?,
        attempted: (done.len() + untraced.len()) as u64,
        failed: 0,
    })
}
