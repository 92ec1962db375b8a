//! `train`: `Engine::train()` on a planted-partition graph. SGD in
//! `embedding` is nearly all of a round; walks are a small share.

use std::time::Instant;

use uninet_core::Engine;
use uninet_embedding::Word2VecTrainer;
use uninet_graph::io::{read_edge_list_file, EdgeListOptions};
use uninet_walker::{SamplerManager, WalkEngine};

use crate::common::*;
use crate::gen::{GraphInput, DIGEST_INIT};
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
}

/// The `train` workload.
pub const FULL: Size = Size {
    nodes: 1_000,
    communities: 10,
    num_walks: 4,
    walk_length: 40,
    dim: 64,
    window: 10,
};

/// The small copy that fills in `train`'s metrics for other workloads.
pub const PROBE: Size = Size {
    nodes: 300,
    communities: 6,
    num_walks: 2,
    walk_length: 40,
    dim: 32,
    window: 5,
};

fn spec(size: &Size) -> EngineSpec {
    EngineSpec::deepwalk(size.num_walks, size.walk_length, size.dim, size.window)
}

fn inputs(ctx: &Ctx, size: &Size) -> Result<(GraphInput, std::path::PathBuf)> {
    let g = planted_input(ctx, size.nodes, size.communities);
    let mut digest = DIGEST_INIT;
    let path = write_graph(ctx, &g, &mut digest)?;
    note_inputs(ctx, digest);
    Ok((g, path))
}

fn quality(ctx: &Ctx, engine: &Engine, g: &GraphInput) -> Result<f64> {
    let full = g.adjacency();
    let auc = link_auc(
        &engine.snapshot(),
        &g.held_out,
        |u, v| full.contains(&(u, v)),
        ctx.seed,
    );
    gate(auc >= LINK_AUC_FLOOR, || {
        format!("link_auc {auc} is below the floor {LINK_AUC_FLOOR}")
    })?;
    Ok(auc)
}

/// `train` set up: the engine and the rates of the rounds measured so far.
struct Train {
    ctx: Ctx,
    g: GraphInput,
    engine: Engine,
    setup_s: f64,
    check: CorpusCheck,
    rates: Vec<f64>,
}

pub fn setup(ctx: &Ctx, size: &Size, setup_reps: usize) -> Result<Box<dyn Bench>> {
    let (g, path) = inputs(ctx, size)?;
    let spec = spec(size);
    let (engine, setup_s) = repeated_setup(setup_reps, || spec.load(ctx, &path))?;
    let check = CorpusCheck::new(&g, size.walk_length);
    Ok(Box::new(Train {
        ctx: ctx.clone(),
        g,
        engine,
        setup_s,
        check,
        rates: Vec::new(),
    }))
}

impl Bench for Train {
    fn measure(&mut self, seconds: f64, min: usize) -> Result<()> {
        let Train {
            engine,
            check,
            rates,
            ..
        } = self;
        let epochs = engine.config().embedding.epochs as f64;
        measure_loop(seconds, min, || {
            let t = Instant::now();
            let report = engine.train().map_err(|e| format!("train: {e}"))?;
            let wall = secs(t.elapsed());
            let tokens = check.check(&report.corpus)?;
            rates.push(tokens as f64 * epochs / wall);
            Ok(())
        })
        .map(drop)
    }

    fn finish(self: Box<Self>) -> Result<Outcome> {
        eprintln!("train: tokens/s per round {:.0?}", self.rates);
        let mut m = Metrics::default();
        m.set("setup_s", self.setup_s, "s");
        m.set("train_tokens_per_s", median(&self.rates), "tokens/s");
        m.set(
            "link_auc",
            quality(&self.ctx, &self.engine, &self.g)?,
            "ratio",
        );
        Ok(Outcome {
            metrics: m,
            attempted: self.rates.len() as u64,
            failed: 0,
        })
    }
}

/// The traced run: the layer calls `Engine::train()` makes, made one by one
/// with a span around each, after an untraced baseline of `train()` itself.
pub fn trace(ctx: &Ctx, size: &Size) -> Result<Outcome> {
    let (g, path) = inputs(ctx, size)?;
    let spec = spec(size);
    let mut check = CorpusCheck::new(&g, size.walk_length);

    let engine = spec.load(ctx, &path)?;
    let mut untraced = Vec::new();
    measure_loop(ctx.seconds / 2.0, 2, || {
        let t = Instant::now();
        let report = engine.train().map_err(|e| format!("train: {e}"))?;
        untraced.push(secs(t.elapsed()));
        check.check(&report.corpus).map(drop)
    })?;
    drop(engine);

    let mut tr = Trace::new();
    let root = tr.open("core.run", None);
    let graph = tr
        .time("graph.load", Some(root), || {
            read_edge_list_file(&path, EdgeListOptions::default())
        })
        .map_err(|e| format!("load: {e}"))?;
    let owned = graph.clone();
    let engine = tr
        .time("core.build", Some(root), || {
            spec.builder(ctx).graph(owned).build()
        })
        .map_err(|e| format!("build: {e}"))?;
    let cfg = *engine.config();
    let model = engine
        .spec()
        .instantiate(&graph)
        .map_err(|e| format!("model: {e}"))?;
    let starts: Vec<u32> = graph.non_isolated_nodes().collect();
    let (mut traced, mut tokens, mut memory) = (Vec::new(), 0usize, 0usize);
    let rounds = measure_loop(ctx.seconds / 2.0, 2, || {
        let t = Instant::now();
        let manager = tr.time("sampler.init", Some(root), || {
            SamplerManager::new(
                &graph,
                model.as_ref(),
                cfg.walk.sampler,
                cfg.walk.memory_budget_bytes,
            )
        });
        memory = manager.memory_bytes();
        let (corpus, _) = tr.time("walker.walk", Some(root), || {
            WalkEngine::new(cfg.walk).generate_with_manager(
                &graph,
                model.as_ref(),
                &manager,
                &starts,
            )
        });
        tokens += check.check(&corpus)?;
        let (embeddings, _) = tr.time("embedding.learn", Some(root), || {
            Word2VecTrainer::new(cfg.embedding).train(corpus.walks(), graph.num_nodes())
        });
        tr.time("embedding.publish", Some(root), || {
            engine.store().publish(embeddings)
        });
        traced.push(secs(t.elapsed()));
        Ok(())
    })?;
    tr.close(root);
    quality(ctx, &engine, &g)?;

    let mut m = Metrics::default();
    m.set("sampler.memory_mb", memory as f64 / (1 << 20) as f64, "MiB");
    m.set(
        "walker.ns_per_step",
        tr.total_seconds("walker.walk") * 1e9 / tokens as f64,
        "ns",
    );
    m.set(
        "embedding.tokens_per_s_per_thread",
        tokens as f64 * cfg.embedding.epochs as f64
            / tr.total_seconds("embedding.learn")
            / cfg.embedding.num_threads as f64,
        "tokens/s",
    );
    m.set(
        "trace.overhead_pct",
        layers::overhead_pct(median(&traced), median(&untraced)),
        "%",
    );
    Ok(Outcome {
        metrics: layers::finish(&tr, root, m, &ctx.out)?,
        attempted: (untraced.len() + rounds) as u64,
        failed: 0,
    })
}
