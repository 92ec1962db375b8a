//! `walk`: `Engine::generate_walks()` with node2vec on a weighted R-MAT
//! graph larger than a core's L2 cache. `sampler` and `walker` do all the
//! work; `embedding` does none.

use std::time::Instant;

use uninet_core::{Engine, ModelSpec};
use uninet_graph::io::{read_edge_list_file, EdgeListOptions};
use uninet_walker::{SamplerManager, WalkEngine};

use crate::common::*;
use crate::gen::{self, GraphInput, DIGEST_INIT};
use crate::layers;
use crate::trace::{median, Trace};

#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub nodes: usize,
    /// Undirected edges (mean degree is twice this over `nodes`).
    pub edges: usize,
    pub num_walks: usize,
    pub walk_length: usize,
}

/// The `walk` workload: 100k nodes, mean degree 20, so the CSR arrays
/// (about 16 MiB) exceed a 4 MiB per-core L2.
pub const FULL: Size = Size {
    nodes: 100_000,
    edges: 1_000_000,
    num_walks: 1,
    walk_length: 40,
};

/// The small copy that fills in `walk`'s metrics for other workloads.
pub const PROBE: Size = Size {
    nodes: 10_000,
    edges: 100_000,
    num_walks: 1,
    walk_length: 40,
};

fn spec(size: &Size) -> EngineSpec {
    EngineSpec {
        model: ModelSpec::Node2Vec { p: 0.25, q: 4.0 },
        ..EngineSpec::deepwalk(size.num_walks, size.walk_length, 16, 5)
    }
}

fn inputs(ctx: &Ctx, size: &Size) -> Result<(GraphInput, std::path::PathBuf)> {
    let edges = gen::rmat(&mut ctx.rng("graph"), size.nodes, size.edges);
    let g = gen::with_holdout(&mut ctx.rng("holdout"), edges, Vec::new(), 0.0);
    let mut digest = DIGEST_INIT;
    let path = write_graph(ctx, &g, &mut digest)?;
    note_inputs(ctx, digest);
    Ok((g, path))
}

/// `walk` set up: the engine and the rates of the calls measured so far.
struct Walk {
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
    Ok(Box::new(Walk {
        engine,
        setup_s,
        check,
        rates: Vec::new(),
    }))
}

impl Bench for Walk {
    fn measure(&mut self, seconds: f64, min: usize) -> Result<()> {
        let Walk {
            engine,
            check,
            rates,
            ..
        } = self;
        measure_loop(seconds, min, || {
            let t = Instant::now();
            let (corpus, _) = engine.generate_walks().map_err(|e| format!("walks: {e}"))?;
            let wall = secs(t.elapsed());
            rates.push(check.check(&corpus)? as f64 / wall);
            Ok(())
        })
        .map(drop)
    }

    fn finish(self: Box<Self>) -> Result<Outcome> {
        eprintln!("walk: steps/s per call {:.0?}", self.rates);
        let mut m = Metrics::default();
        m.set("setup_s", self.setup_s, "s");
        m.set("walk_steps_per_s", median(&self.rates), "steps/s");
        Ok(Outcome {
            metrics: m,
            attempted: self.rates.len() as u64,
            failed: 0,
        })
    }
}

/// The traced run: `SamplerManager::new` and `generate_with_manager` called
/// one by one, after an untraced baseline of `generate_walks()`.
pub fn trace(ctx: &Ctx, size: &Size) -> Result<Outcome> {
    let (g, path) = inputs(ctx, size)?;
    let spec = spec(size);
    let mut check = CorpusCheck::new(&g, size.walk_length);
    let engine = spec.load(ctx, &path)?;
    let mut untraced = Vec::new();
    measure_loop(ctx.seconds / 2.0, 2, || {
        let t = Instant::now();
        let (corpus, _) = engine.generate_walks().map_err(|e| format!("walks: {e}"))?;
        untraced.push(secs(t.elapsed()));
        check.check(&corpus).map(drop)
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
        traced.push(secs(t.elapsed()));
        tokens += check.check(&corpus)?;
        Ok(())
    })?;
    tr.close(root);

    let mut m = Metrics::default();
    m.set("sampler.memory_mb", memory as f64 / (1 << 20) as f64, "MiB");
    m.set(
        "walker.ns_per_step",
        tr.total_seconds("walker.walk") * 1e9 / tokens as f64,
        "ns",
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
