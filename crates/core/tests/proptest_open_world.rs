//! The open-world equivalence layer: for arbitrary churn streams (edge ops
//! interleaved with node arrivals and retirements), the concurrent streaming
//! path must land on exactly the state a from-scratch rebuild of the
//! surviving universe would produce:
//!
//! * the node universe (capacity + live mask) and every row's adjacency
//!   match an independent reference model of the id lifecycle;
//! * retired rows are empty in the compacted CSR and never rejoin with
//!   recycled state (an id that rejoins does so with an empty adjacency);
//! * incrementally maintained alias sampler tables draw the same sequences
//!   as tables built fresh over the final graph (sampler-weight equivalence);
//! * a snapshot published with the final universe mask never surfaces a
//!   retired id from `top_k` — exact scan or ANN index.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use uninet_core::{
    AnnConfig, DynamicGraph, EdgeSamplerKind, EmbeddingStore, Embeddings, GraphMutation,
    QueryMode,
};
use uninet_graph::{Graph, GraphBuilder, NodeId};
use uninet_ingest::{run_pipeline, IngestConfig, IngestMetrics};
use uninet_walker::models::DeepWalk;
use uninet_walker::{RandomWalkModel, SamplerManager};

const N: u32 = 12;

/// Independent reference model of the open-world id lifecycle, mirroring the
/// documented `DynamicGraph::apply` semantics: ids `0..N` start live,
/// `AddNode` grows the universe (duplicate arrivals rejected, retired ids
/// rejoin empty), `RemoveNode` drops every incident edge and marks the id
/// dead, and edge ops are rejected unless both endpoints are live.
struct OpenWorldModel {
    live: Vec<bool>,
    edges: BTreeMap<(NodeId, NodeId), f32>,
    symmetric: bool,
}

impl OpenWorldModel {
    fn from_graph(g: &Graph, symmetric: bool) -> Self {
        let mut edges = BTreeMap::new();
        for (src, dst, w) in g.all_edges() {
            edges.insert((src, dst), w);
        }
        OpenWorldModel {
            live: vec![true; g.num_nodes()],
            edges,
            symmetric,
        }
    }

    fn capacity(&self) -> usize {
        self.live.len()
    }

    /// Applies one directed edge op; returns whether it took effect.
    fn apply_directed(&mut self, m: GraphMutation) -> bool {
        let (src, dst) = m.endpoints();
        match m {
            GraphMutation::AddEdge { weight, .. } => {
                self.edges.insert((src, dst), weight);
                true
            }
            GraphMutation::RemoveEdge { .. } => self.edges.remove(&(src, dst)).is_some(),
            GraphMutation::UpdateWeight { weight, .. } => {
                match self.edges.get_mut(&(src, dst)) {
                    Some(w) => {
                        *w = weight;
                        true
                    }
                    None => false,
                }
            }
            GraphMutation::AddNode { .. } | GraphMutation::RemoveNode { .. } => {
                unreachable!("node ops never reach the directed edge path")
            }
        }
    }

    fn apply(&mut self, m: GraphMutation) {
        match m {
            GraphMutation::AddNode { node } => {
                let idx = node as usize;
                if self.live.get(idx).copied().unwrap_or(false) {
                    return; // duplicate arrival: rejected
                }
                if idx >= self.live.len() {
                    self.live.resize(idx + 1, false);
                }
                self.live[idx] = true; // vacant arrives, retired rejoins empty
            }
            GraphMutation::RemoveNode { node } => {
                let idx = node as usize;
                if !self.live.get(idx).copied().unwrap_or(false) {
                    return; // unknown or already retired: rejected
                }
                self.edges
                    .retain(|&(src, dst), _| src != node && dst != node);
                self.live[idx] = false;
            }
            edge_op => {
                let (src, dst) = edge_op.endpoints();
                let n = self.capacity() as NodeId;
                if src >= n
                    || dst >= n
                    || src == dst
                    || !self.live[src as usize]
                    || !self.live[dst as usize]
                {
                    return;
                }
                if self.apply_directed(edge_op) && self.symmetric {
                    let mirrored = match edge_op {
                        GraphMutation::AddEdge { src, dst, weight } => GraphMutation::AddEdge {
                            src: dst,
                            dst: src,
                            weight,
                        },
                        GraphMutation::RemoveEdge { src, dst } => {
                            GraphMutation::RemoveEdge { src: dst, dst: src }
                        }
                        GraphMutation::UpdateWeight { src, dst, weight } => {
                            GraphMutation::UpdateWeight {
                                src: dst,
                                dst: src,
                                weight,
                            }
                        }
                        _ => unreachable!("edge_op is an edge op"),
                    };
                    self.apply_directed(mirrored);
                }
            }
        }
    }

    fn neighbor_weights(&self, v: NodeId) -> Vec<(NodeId, f32)> {
        self.edges
            .range((v, 0)..=(v, NodeId::MAX))
            .map(|(&(_, dst), &w)| (dst, w))
            .collect()
    }
}

fn base_graph(edges: &[(u32, u32, f32)]) -> Graph {
    let mut b = GraphBuilder::new();
    b.set_num_nodes(N as usize);
    b.symmetric(true).dedup(true);
    for &(u, v, w) in edges {
        if u != v {
            b.add_edge(u % N, v % N, w);
        }
    }
    b.build()
}

/// Edge ops over the (growable) id space plus arrivals and retirements.
fn churn_mutation() -> impl Strategy<Value = GraphMutation> {
    (0u8..6, 0u32..N + 4, 0u32..N + 4, 0.1f32..8.0).prop_map(|(op, src, dst, w)| match op {
        0 | 1 => GraphMutation::AddEdge {
            src,
            dst,
            weight: w,
        },
        2 => GraphMutation::RemoveEdge { src, dst },
        3 => GraphMutation::UpdateWeight {
            src,
            dst,
            weight: w,
        },
        4 => GraphMutation::AddNode { node: src },
        _ => GraphMutation::RemoveNode { node: src },
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The headline open-world property: streaming churn through the
    /// concurrent ingest pipeline == a from-scratch rebuild of the surviving
    /// universe, across graph state, sampler state and the query plane.
    #[test]
    fn open_world_equivalence(
        edges in prop::collection::vec((0u32..N, 0u32..N, 0.5f32..4.0), 1..40),
        mutations in prop::collection::vec(churn_mutation(), 0..80),
        batch_size in 1usize..16,
        seed in 0u64..1000,
    ) {
        let g = base_graph(&edges);
        let model = DeepWalk::new();

        // Reference: replay the stream against the independent lifecycle
        // model (the "from-scratch rebuild on the surviving universe").
        let mut reference = OpenWorldModel::from_graph(&g, true);
        for &m in &mutations {
            reference.apply(m);
        }

        // Streaming: the concurrent pipeline (queued batches, serial apply,
        // incremental sampler maintenance).
        let mut dg = DynamicGraph::new(g, true);
        let mut manager = SamplerManager::new(dg.base(), &model, EdgeSamplerKind::Alias, 0);
        run_pipeline(
            &IngestConfig {
                batch_size,
                queue_capacity: 4,
                num_threads: 3,
                compaction_threshold: 8,
            },
            &IngestMetrics::detached(),
            &mut dg,
            &mut manager,
            &model,
            &mutations,
            None,
            |_, _, _, _| {},
        );

        // Universe equivalence: capacity, live mask, every row's adjacency.
        prop_assert_eq!(dg.num_nodes(), reference.capacity(), "universe capacity");
        prop_assert_eq!(dg.live_mask(), reference.live.as_slice(), "live mask");
        let final_graph = dg.materialize();
        final_graph.validate().unwrap();
        prop_assert_eq!(final_graph.num_nodes(), reference.capacity());
        for v in 0..reference.capacity() as NodeId {
            let expect = reference.neighbor_weights(v);
            if !reference.live[v as usize] {
                prop_assert!(expect.is_empty());
                prop_assert_eq!(
                    final_graph.degree(v), 0,
                    "retired id {} kept edges in the compacted CSR", v
                );
                continue;
            }
            let got: Vec<(NodeId, f32)> = final_graph
                .neighbors(v)
                .iter()
                .copied()
                .zip(final_graph.weights(v).iter().copied())
                .collect();
            prop_assert_eq!(&got, &expect, "adjacency of {}", v);
        }

        // Sampler-weight equivalence: alias tables maintained incrementally
        // through the churn draw the same sequences as tables built fresh
        // over the final graph. Alias construction is deterministic in the
        // weights, so any divergence is a maintenance bug.
        let fresh = SamplerManager::new(&final_graph, &model, EdgeSamplerKind::Alias, 0);
        prop_assert_eq!(manager.num_states(), fresh.num_states(), "sampler state count");
        for v in 0..reference.capacity() as NodeId {
            if !reference.live[v as usize] || final_graph.degree(v) == 0 {
                continue;
            }
            let state = model.initial_state(&final_graph, v);
            let mut rng_a = SmallRng::seed_from_u64(seed ^ u64::from(v));
            let mut rng_b = SmallRng::seed_from_u64(seed ^ u64::from(v));
            for draw in 0..16 {
                let a = manager.sample(dg.base(), &model, state, &mut rng_a);
                let b = fresh.sample(&final_graph, &model, state, &mut rng_b);
                prop_assert_eq!(
                    a, b,
                    "maintained vs fresh alias draw {} diverged at node {}", draw, v
                );
            }
        }

        // Query-plane equivalence: a snapshot published with the final mask
        // never surfaces a retired id, from the exact scan or the ANN index.
        let capacity = reference.capacity();
        let dim = 8usize;
        let mut rng = SmallRng::seed_from_u64(seed);
        let flat: Vec<f32> = (0..capacity * dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let store = EmbeddingStore::with_ann(AnnConfig {
            m: 4,
            ef_construction: 16,
            ef_search: 16,
            ..AnnConfig::default()
        });
        let mask = reference
            .live
            .iter()
            .any(|&l| !l)
            .then(|| reference.live.clone());
        store.publish_with_universe(Embeddings::from_flat(dim, flat), mask);
        let snapshot = store.snapshot();
        prop_assert_eq!(
            snapshot.live_count(),
            reference.live.iter().filter(|&&l| l).count()
        );
        for v in 0..capacity as NodeId {
            if reference.live[v as usize] {
                for mode in [QueryMode::Exact, QueryMode::Ann] {
                    for (u, _) in snapshot.top_k_mode(v, capacity, mode) {
                        prop_assert!(
                            reference.live[u as usize],
                            "retired id {} surfaced from {:?} top_k({})", u, mode, v
                        );
                    }
                }
            } else {
                prop_assert!(!snapshot.is_live(v));
                prop_assert!(snapshot.top_k(v, 4).is_empty(), "retired id {} answered", v);
                prop_assert!(store.vector(v).is_none(), "retired id {} served a vector", v);
            }
        }
    }
}
