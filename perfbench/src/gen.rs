//! Seeded input generator: every byte the program receives comes from here.
//!
//! One `--seed` fixes the edge lists, the held-out edge set, the update
//! stream, the query schedule and the republisher's drift plan. The update
//! stream is generated against a model of the live edge set, so every
//! mutation it emits is valid against the graph it will be applied to.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::path::Path;

use uninet_dyngraph::GraphMutation;

use crate::rng::Rng;

/// An undirected edge, stored once with `u < v`.
pub type Edge = (u32, u32, f32);

/// A generated graph: the edge list the engine loads, the edges held out of
/// it for link prediction, and (for planted partitions) the community map.
#[derive(Debug, Clone)]
pub struct GraphInput {
    pub num_nodes: usize,
    pub edges: Vec<Edge>,
    pub held_out: Vec<(u32, u32)>,
    pub community: Vec<u32>,
}

impl GraphInput {
    /// Every pair that is an edge of the full graph (loaded or held out).
    pub fn adjacency(&self) -> HashSet<(u32, u32)> {
        let mut adj = HashSet::with_capacity(2 * (self.edges.len() + self.held_out.len()));
        for &(u, v, _) in &self.edges {
            adj.insert((u, v));
            adj.insert((v, u));
        }
        for &(u, v) in &self.held_out {
            adj.insert((u, v));
            adj.insert((v, u));
        }
        adj
    }
}

fn key(u: u32, v: u32) -> (u32, u32) {
    if u < v {
        (u, v)
    } else {
        (v, u)
    }
}

/// Planted partition: `communities` groups, expected intra/inter-community
/// degrees per node, unit weights. Community sizes differ by at most one.
pub fn planted_partition(
    rng: &mut Rng,
    n: usize,
    communities: usize,
    intra_degree: f64,
    inter_degree: f64,
) -> (Vec<Edge>, Vec<u32>) {
    let mut community: Vec<u32> = (0..n).map(|i| (i % communities) as u32).collect();
    rng.shuffle(&mut community);
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); communities];
    for (v, &c) in community.iter().enumerate() {
        members[c as usize].push(v as u32);
    }
    let intra = (n as f64 * intra_degree / 2.0) as usize;
    let inter = (n as f64 * inter_degree / 2.0) as usize;
    let mut seen = HashSet::with_capacity(intra + inter);
    let mut edges = Vec::with_capacity(intra + inter);
    while edges.len() < intra {
        let group = &members[rng.below(communities)];
        let (u, v) = (group[rng.below(group.len())], group[rng.below(group.len())]);
        if u != v && seen.insert(key(u, v)) {
            let (a, b) = key(u, v);
            edges.push((a, b, 1.0));
        }
    }
    while edges.len() < intra + inter {
        let (u, v) = (rng.below(n) as u32, rng.below(n) as u32);
        if community[u as usize] != community[v as usize] && seen.insert(key(u, v)) {
            let (a, b) = key(u, v);
            edges.push((a, b, 1.0));
        }
    }
    (edges, community)
}

/// R-MAT (Graph500 quadrant probabilities 0.57/0.19/0.19/0.05): `m` distinct
/// undirected edges over `0..n`, weights uniform in `[0.5, 2)`.
pub fn rmat(rng: &mut Rng, n: usize, m: usize) -> Vec<Edge> {
    let levels = usize::BITS - (n - 1).leading_zeros();
    let mut seen = HashSet::with_capacity(m);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let (mut u, mut v) = (0usize, 0usize);
        for _ in 0..levels {
            let r = rng.unit();
            let (du, dv) = if r < 0.57 {
                (0, 0)
            } else if r < 0.76 {
                (0, 1)
            } else if r < 0.95 {
                (1, 0)
            } else {
                (1, 1)
            };
            u = (u << 1) | du;
            v = (v << 1) | dv;
        }
        if u >= n || v >= n || u == v {
            continue;
        }
        let k = key(u as u32, v as u32);
        if seen.insert(k) {
            edges.push((k.0, k.1, rng.weight(0.5, 2.0)));
        }
    }
    edges
}

/// Builds a [`GraphInput`], holding out `fraction` of the edges. An edge is
/// only held out when both endpoints keep another edge, so the loaded graph
/// has the same node set as the full one.
pub fn with_holdout(
    rng: &mut Rng,
    edges: Vec<Edge>,
    community: Vec<u32>,
    fraction: f64,
) -> GraphInput {
    let num_nodes = edges
        .iter()
        .map(|&(u, v, _)| u.max(v) as usize + 1)
        .max()
        .unwrap_or(0);
    let mut degree = vec![0u32; num_nodes];
    for &(u, v, _) in &edges {
        degree[u as usize] += 1;
        degree[v as usize] += 1;
    }
    let target = (edges.len() as f64 * fraction) as usize;
    let mut order: Vec<usize> = (0..edges.len()).collect();
    rng.shuffle(&mut order);
    let mut held = vec![false; edges.len()];
    let mut held_out = Vec::with_capacity(target);
    for i in order {
        if held_out.len() == target {
            break;
        }
        let (u, v, _) = edges[i];
        if degree[u as usize] > 1 && degree[v as usize] > 1 {
            degree[u as usize] -= 1;
            degree[v as usize] -= 1;
            held[i] = true;
            held_out.push((u, v));
        }
    }
    let edges = edges
        .into_iter()
        .zip(held)
        .filter_map(|(e, h)| (!h).then_some(e))
        .collect();
    GraphInput {
        num_nodes,
        edges,
        held_out,
        community,
    }
}

/// The generator's model of the live (loaded) edge set, which the update
/// stream is generated against.
#[derive(Debug, Clone)]
pub struct LiveEdges {
    edges: Vec<(u32, u32)>,
    index: HashMap<(u32, u32), usize>,
    degree: Vec<u32>,
    /// Held-out pairs: never inserted, so link prediction stays honest.
    blocked: HashSet<(u32, u32)>,
}

impl LiveEdges {
    pub fn new(input: &GraphInput) -> Self {
        let mut live = LiveEdges {
            edges: Vec::with_capacity(input.edges.len()),
            index: HashMap::with_capacity(input.edges.len()),
            degree: vec![0; input.num_nodes],
            blocked: input.held_out.iter().map(|&(u, v)| key(u, v)).collect(),
        };
        for &(u, v, _) in &input.edges {
            live.insert(u, v);
        }
        live
    }

    /// The live edges, each once with `u < v`.
    pub fn pairs(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Undirected live edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    fn insert(&mut self, u: u32, v: u32) {
        let k = key(u, v);
        self.index.insert(k, self.edges.len());
        self.edges.push(k);
        self.degree[u as usize] += 1;
        self.degree[v as usize] += 1;
    }

    fn remove_at(&mut self, i: usize) -> (u32, u32) {
        let k = self.edges.swap_remove(i);
        self.index.remove(&k);
        if i < self.edges.len() {
            self.index.insert(self.edges[i], i);
        }
        self.degree[k.0 as usize] -= 1;
        self.degree[k.1 as usize] -= 1;
        k
    }

    fn contains(&self, u: u32, v: u32) -> bool {
        let k = key(u, v);
        self.index.contains_key(&k) || self.blocked.contains(&k)
    }
}

/// A valid mixed update stream of `count` mutations: 70% reweights of live
/// edges, 20% inserts of absent pairs (intra-community with the planted
/// partition's intra share, so the community structure persists), 10%
/// deletes of live edges whose endpoints keep another edge.
pub fn update_stream(
    rng: &mut Rng,
    live: &mut LiveEdges,
    community: &[u32],
    intra_share: f64,
    count: usize,
) -> Vec<GraphMutation> {
    let n = community.len();
    let mut members: HashMap<u32, Vec<u32>> = HashMap::new();
    for (v, &c) in community.iter().enumerate() {
        members.entry(c).or_default().push(v as u32);
    }
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let r = rng.unit();
        if r < 0.7 {
            let (src, dst) = live.edges[rng.below(live.len())];
            out.push(GraphMutation::UpdateWeight {
                src,
                dst,
                weight: rng.weight(0.5, 2.0),
            });
        } else if r < 0.9 {
            let u = rng.below(n) as u32;
            let v = if rng.unit() < intra_share {
                let group = &members[&community[u as usize]];
                group[rng.below(group.len())]
            } else {
                rng.below(n) as u32
            };
            if u == v || live.contains(u, v) {
                continue;
            }
            live.insert(u, v);
            out.push(GraphMutation::AddEdge {
                src: u,
                dst: v,
                weight: rng.weight(0.5, 2.0),
            });
        } else {
            let i = rng.below(live.len());
            let (u, v) = live.edges[i];
            if live.degree[u as usize] < 2 || live.degree[v as usize] < 2 {
                continue;
            }
            let (src, dst) = live.remove_at(i);
            out.push(GraphMutation::RemoveEdge { src, dst });
        }
    }
    out
}

/// `count` node ids drawn uniformly from `0..num_nodes`.
pub fn queries(rng: &mut Rng, num_nodes: usize, count: usize) -> Vec<u32> {
    (0..count).map(|_| rng.below(num_nodes) as u32).collect()
}

/// One republish of the drift plan: which rows move, and the seed of the
/// noise added to them.
#[derive(Debug, Clone)]
pub struct Drift {
    pub rows: Vec<u32>,
    pub noise_seed: u64,
}

/// `publishes` drift steps, each moving `share` of the `num_nodes` rows.
pub fn drift_plan(rng: &mut Rng, num_nodes: usize, share: f64, publishes: usize) -> Vec<Drift> {
    let per = ((num_nodes as f64 * share) as usize).max(1);
    (0..publishes)
        .map(|_| {
            let mut rows: Vec<u32> = (0..per).map(|_| rng.below(num_nodes) as u32).collect();
            rows.sort_unstable();
            rows.dedup();
            Drift {
                rows,
                noise_seed: rng.next_u64(),
            }
        })
        .collect()
}

/// Width of the uniform per-component drift noise, relative to the row's
/// RMS: a drifted row moves by about 10% of its norm (0.35/√12), above the
/// HNSW index's default re-insert threshold of 5%.
const DRIFT_AMPLITUDE: f32 = 0.35;

/// Applies one drift step in place: each listed row moves by uniform noise
/// of [`DRIFT_AMPLITUDE`] times its RMS magnitude per component.
pub fn apply_drift(flat: &mut [f32], dim: usize, drift: &Drift) {
    let mut rng = Rng::new(drift.noise_seed);
    for &r in &drift.rows {
        let row = &mut flat[r as usize * dim..(r as usize + 1) * dim];
        let rms = (row.iter().map(|x| x * x).sum::<f32>() / dim as f32).sqrt();
        for x in row.iter_mut() {
            *x += DRIFT_AMPLITUDE * rms * (rng.unit() as f32 - 0.5);
        }
    }
}

pub fn edge_list_text(edges: &[Edge]) -> String {
    let mut s = String::with_capacity(edges.len() * 16);
    for &(u, v, w) in edges {
        let _ = writeln!(s, "{u} {v} {w}");
    }
    s
}

pub fn pairs_text(pairs: &[(u32, u32)]) -> String {
    let mut s = String::with_capacity(pairs.len() * 12);
    for &(u, v) in pairs {
        let _ = writeln!(s, "{u} {v}");
    }
    s
}

/// The update stream in the program's update-file syntax.
pub fn updates_text(mutations: &[GraphMutation]) -> String {
    let mut s = String::with_capacity(mutations.len() * 16);
    for m in mutations {
        let _ = match *m {
            GraphMutation::AddEdge { src, dst, weight } => writeln!(s, "add {src} {dst} {weight}"),
            GraphMutation::RemoveEdge { src, dst } => writeln!(s, "del {src} {dst}"),
            GraphMutation::UpdateWeight { src, dst, weight } => {
                writeln!(s, "w {src} {dst} {weight}")
            }
            ref other => unreachable!("the generator emits no {other:?}"),
        };
    }
    s
}

pub fn queries_text(nodes: &[u32]) -> String {
    let mut s = String::with_capacity(nodes.len() * 6);
    for v in nodes {
        let _ = writeln!(s, "{v}");
    }
    s
}

pub fn drift_text(plan: &[Drift]) -> String {
    let mut s = String::new();
    for d in plan {
        let _ = write!(s, "{:016x}", d.noise_seed);
        for r in &d.rows {
            let _ = write!(s, " {r}");
        }
        s.push('\n');
    }
    s
}

/// Writes `text` to `dir/name` and folds it into the running input digest.
pub fn write_input(dir: &Path, name: &str, text: &str, digest: &mut u64) -> std::io::Result<()> {
    for b in name.bytes().chain(text.bytes()) {
        *digest = (*digest ^ b as u64).wrapping_mul(0x0100_0000_01B3);
    }
    std::fs::write(dir.join(name), text)
}

pub const DIGEST_INIT: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    fn pp(seed: u64) -> GraphInput {
        let mut rng = Rng::derive(seed, "graph");
        let (edges, community) = planted_partition(&mut rng, 400, 4, 10.0, 1.0);
        with_holdout(&mut rng, edges, community, 0.1)
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let render = |seed| {
            let g = pp(seed);
            let mut live = LiveEdges::new(&g);
            let mut rng = Rng::derive(seed, "updates");
            let ups = update_stream(&mut rng, &mut live, &g.community, 0.9, 500);
            let mut rng = Rng::derive(seed, "queries");
            let q = queries(&mut rng, g.num_nodes, 100);
            let d = drift_plan(&mut rng, g.num_nodes, 0.05, 3);
            let r = rmat(&mut Rng::derive(seed, "rmat"), 1000, 3000);
            format!(
                "{}{}{}{}{}{}",
                edge_list_text(&g.edges),
                pairs_text(&g.held_out),
                updates_text(&ups),
                queries_text(&q),
                drift_text(&d),
                edge_list_text(&r)
            )
        };
        assert_eq!(render(3), render(3));
        assert_ne!(render(3), render(4));
    }

    #[test]
    fn holdout_keeps_every_node_connected_and_is_disjoint() {
        let g = pp(1);
        let mut degree = vec![0; g.num_nodes];
        for &(u, v, _) in &g.edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        assert!(degree.iter().all(|&d| d > 0));
        let loaded: HashSet<_> = g.edges.iter().map(|&(u, v, _)| (u, v)).collect();
        assert!(g.held_out.iter().all(|p| !loaded.contains(p)));
        assert!(!g.held_out.is_empty());
    }

    #[test]
    fn update_stream_is_valid_against_the_live_model() {
        let g = pp(2);
        let mut live = LiveEdges::new(&g);
        let mut model: HashSet<(u32, u32)> = g.edges.iter().map(|&(u, v, _)| (u, v)).collect();
        let held: HashSet<(u32, u32)> = g.held_out.iter().copied().collect();
        let mut rng = Rng::derive(2, "updates");
        let ups = update_stream(&mut rng, &mut live, &g.community, 0.9, 2000);
        let (mut w, mut a, mut d) = (0, 0, 0);
        for m in &ups {
            match *m {
                GraphMutation::UpdateWeight { src, dst, .. } => {
                    assert!(model.contains(&key(src, dst)));
                    w += 1;
                }
                GraphMutation::AddEdge { src, dst, .. } => {
                    assert_ne!(src, dst);
                    assert!(!held.contains(&key(src, dst)));
                    assert!(model.insert(key(src, dst)));
                    a += 1;
                }
                GraphMutation::RemoveEdge { src, dst } => {
                    assert!(model.remove(&key(src, dst)));
                    d += 1;
                }
                _ => unreachable!(),
            }
        }
        assert_eq!(model.len(), live.len());
        assert!(w > a && a > d && d > 0, "mix {w}/{a}/{d}");
    }

    #[test]
    fn rmat_edges_are_distinct_and_in_range() {
        let e = rmat(&mut Rng::new(5), 1000, 5000);
        let set: HashSet<_> = e.iter().map(|&(u, v, _)| (u, v)).collect();
        assert_eq!(set.len(), e.len());
        assert!(e
            .iter()
            .all(|&(u, v, w)| u < v && v < 1000 && (0.5..2.0).contains(&w)));
    }
}
