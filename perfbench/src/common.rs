//! What every workload shares: run context, metric output, engine set-up,
//! and the correctness helpers.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use uninet_core::{EmbeddingSnapshot, Engine, EngineBuilder, ModelSpec, WalkCorpus};
use uninet_eval::{link_prediction_auc, LinkPredictionConfig};

use crate::gen::{self, GraphInput};
use crate::rng::Rng;

pub type Result<T> = std::result::Result<T, String>;

/// Fails the run with `msg` unless `cond` holds.
pub fn gate(cond: bool, msg: impl FnOnce() -> String) -> Result<()> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// Where inputs, WAL directories and the span file go.
    pub out: PathBuf,
}

/// Engine threads (walk and SGD): the 2 vCPUs the benchmark is sized for.
pub const THREADS: usize = 2;

/// Mutations per update batch.
pub const BATCH: usize = 64;

impl Ctx {
    pub fn rng(&self, stream: &str) -> Rng {
        Rng::derive(self.seed, stream)
    }

    /// A sub-context writing under `out/<name>` with its own time budget.
    pub fn sub(&self, name: &str, seconds: f64) -> Result<Ctx> {
        let out = self.out.join(name);
        std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        Ok(Ctx {
            out,
            seconds,
            ..self.clone()
        })
    }
}

/// Named metrics with units, in output order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|m| m.0)
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    /// Adds `other`'s counts, and those of its metrics this one lacks.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (k, v) in other.metrics.0 {
            self.metrics.0.entry(k).or_insert(v);
        }
    }
}

/// A workload, set up and ready to measure. Measuring may be split into
/// several calls, with other workloads measured in between; `finish` then
/// reports over all of them.
pub trait Bench {
    /// Runs measured rounds for about `seconds`, and at least `min` of them.
    fn measure(&mut self, seconds: f64, min: usize) -> Result<()>;
    /// Checks the program's outputs and reports the metrics and counts.
    fn finish(self: Box<Self>) -> Result<Outcome>;
}

/// Peak resident set of this process, from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Engine settings a workload builds with.
#[derive(Debug, Clone)]
pub struct EngineSpec {
    pub model: ModelSpec,
    pub num_walks: usize,
    pub walk_length: usize,
    pub dim: usize,
    pub window: usize,
    pub ann_index: bool,
    pub wal: Option<PathBuf>,
}

impl EngineSpec {
    pub fn deepwalk(num_walks: usize, walk_length: usize, dim: usize, window: usize) -> Self {
        EngineSpec {
            model: ModelSpec::DeepWalk,
            num_walks,
            walk_length,
            dim,
            window,
            ann_index: false,
            wal: None,
        }
    }

    /// The builder with every setting except the graph source.
    pub fn builder(&self, ctx: &Ctx) -> EngineBuilder {
        let mut b = Engine::builder()
            .model(self.model.clone())
            .num_walks(self.num_walks)
            .walk_length(self.walk_length)
            .dim(self.dim)
            .window(self.window)
            .epochs(1)
            .threads(THREADS)
            .seed(ctx.seed)
            .update_batch_size(BATCH)
            .ann_index(self.ann_index);
        if let Some(dir) = &self.wal {
            b = b.wal(dir);
        }
        b
    }

    /// `EngineBuilder::graph_from_edge_list` plus `build()`.
    pub fn load(&self, ctx: &Ctx, edges: &Path) -> Result<Engine> {
        self.builder(ctx)
            .graph_from_edge_list(edges)
            .build()
            .map_err(|e| format!("engine build: {e}"))
    }
}

/// Writes the graph input files and returns the edge-list path.
pub fn write_graph(ctx: &Ctx, g: &GraphInput, digest: &mut u64) -> Result<PathBuf> {
    let io = |e: std::io::Error| format!("writing inputs: {e}");
    gen::write_input(
        &ctx.out,
        "graph.edges",
        &gen::edge_list_text(&g.edges),
        digest,
    )
    .map_err(io)?;
    gen::write_input(
        &ctx.out,
        "heldout.edges",
        &gen::pairs_text(&g.held_out),
        digest,
    )
    .map_err(io)?;
    Ok(ctx.out.join("graph.edges"))
}

/// Planted partition with 10% of edges held out: the `train`, `stream` and
/// `serve` graph family.
pub fn planted_input(ctx: &Ctx, n: usize, communities: usize) -> GraphInput {
    let mut rng = ctx.rng("graph");
    let (edges, community) = gen::planted_partition(&mut rng, n, communities, 12.0, 2.0);
    gen::with_holdout(&mut rng, edges, community, 0.1)
}

/// Share of planted-partition edges that are intra-community (12 of 14).
pub const INTRA_SHARE: f64 = 12.0 / 14.0;

/// Runs `setup` at least `reps` times, and more (up to 25) while the runs
/// so far took under a second, so a cheap set-up still has a steady median.
/// Returns the last result with the median set-up time.
pub fn repeated_setup<T>(reps: usize, mut setup: impl FnMut() -> Result<T>) -> Result<(T, f64)> {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < reps.max(1) || (times.iter().sum::<f64>() < 1.0 && times.len() < 25) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(secs(t.elapsed()));
    }
    Ok((
        last.expect("at least one set-up"),
        crate::trace::median(&times),
    ))
}

/// Sorted adjacency for membership checks on large graphs.
pub struct Adjacency {
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
}

impl Adjacency {
    /// Both directions of every `(u, v)` pair.
    pub fn undirected(num_nodes: usize, pairs: impl Iterator<Item = (u32, u32)> + Clone) -> Self {
        let mut degree = vec![0usize; num_nodes + 1];
        for (u, v) in pairs.clone() {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = vec![0usize; num_nodes + 1];
        for v in 0..num_nodes {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let mut fill = offsets.clone();
        let mut neighbors = vec![0u32; offsets[num_nodes]];
        for (u, v) in pairs {
            neighbors[fill[u as usize]] = v;
            fill[u as usize] += 1;
            neighbors[fill[v as usize]] = u;
            fill[v as usize] += 1;
        }
        for v in 0..num_nodes {
            neighbors[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Adjacency { offsets, neighbors }
    }

    pub fn has(&self, u: u32, v: u32) -> bool {
        let u = u as usize;
        u + 1 < self.offsets.len()
            && self.neighbors[self.offsets[u]..self.offsets[u + 1]]
                .binary_search(&v)
                .is_ok()
    }
}

/// Every walk is a non-empty path in `adj` of at most `max_len` nodes.
pub fn check_walks(corpus: &WalkCorpus, adj: &Adjacency, max_len: usize) -> Result<()> {
    for (i, w) in corpus.iter().enumerate() {
        gate(!w.is_empty() && w.len() <= max_len, || {
            format!("walk {i} has {} nodes (limit {max_len})", w.len())
        })?;
        if let Some(p) = w.windows(2).position(|p| !adj.has(p[0], p[1])) {
            return Err(format!(
                "walk {i} steps {} -> {}, which is not an edge",
                w[p],
                w[p + 1]
            ));
        }
    }
    Ok(())
}

/// Checks each round's corpus over the loaded graph: the first is walked
/// for validity, every later one (traced or not) must have the same token
/// count.
pub struct CorpusCheck {
    adj: Adjacency,
    walk_length: usize,
    tokens: Option<usize>,
}

impl CorpusCheck {
    pub fn new(g: &GraphInput, walk_length: usize) -> Self {
        CorpusCheck {
            adj: Adjacency::undirected(g.num_nodes, g.edges.iter().map(|&(u, v, _)| (u, v))),
            walk_length,
            tokens: None,
        }
    }

    /// Returns the corpus's token count.
    pub fn check(&mut self, corpus: &WalkCorpus) -> Result<usize> {
        let tokens = corpus.total_tokens();
        match self.tokens {
            None => {
                check_walks(corpus, &self.adj, self.walk_length)?;
                self.tokens = Some(tokens);
            }
            Some(t) => gate(t == tokens, || {
                format!("corpus has {tokens} tokens, the first had {t}")
            })?,
        }
        Ok(tokens)
    }
}

/// Held-out edges against random non-edges, scored by cosine.
pub fn link_auc(
    snapshot: &EmbeddingSnapshot,
    held_out: &[(u32, u32)],
    is_edge: impl Fn(u32, u32) -> bool,
    seed: u64,
) -> f64 {
    link_prediction_auc(
        snapshot.num_nodes(),
        held_out,
        is_edge,
        |u, v| snapshot.cosine(u, v).unwrap_or(0.0) as f64,
        &LinkPredictionConfig {
            num_pairs: 2000,
            seed,
        },
    )
}

/// Quality floors, well above chance: 0.5 AUC, and about 0.001 recall of
/// 10 nodes among thousands.
pub const LINK_AUC_FLOOR: f64 = 0.65;
pub const RECALL_FLOOR: f64 = 0.5;

/// Calls `op` at least `min` times, and again while one more call (as long
/// as the longest so far) still ends within `seconds`. Returns the count.
pub fn measure_loop(seconds: f64, min: usize, mut op: impl FnMut() -> Result<()>) -> Result<usize> {
    let start = Instant::now();
    let (mut n, mut longest) = (0usize, 0.0f64);
    while n < min || secs(start.elapsed()) + longest <= seconds {
        let t = Instant::now();
        op()?;
        longest = longest.max(secs(t.elapsed()));
        n += 1;
    }
    Ok(n)
}

/// Prints the input digest, so two runs can be checked for identical inputs.
pub fn note_inputs(ctx: &Ctx, digest: u64) {
    eprintln!("inputs {:016x} in {}", digest, ctx.out.display());
}
