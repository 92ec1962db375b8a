//! Property-based tests of the ingestion pipeline.
//!
//! The property: streaming an **arbitrary mutation sequence** through the
//! full pipeline (reader thread, bounded queue, serial apply, sampler
//! maintenance on `num_threads` workers) yields the same compacted graph,
//! report tallies and maintenance accounting as a plain single-threaded
//! `IncrementalMaintainer` batch loop — for every sampler family, including
//! the alias and rejection backends whose bucket rebuilds run in parallel.

use proptest::prelude::*;
use uninet_dyngraph::{DynamicGraph, GraphMutation, IncrementalMaintainer, MaintainerConfig};
use uninet_graph::{Graph, GraphBuilder};
use uninet_ingest::{run_pipeline, IngestConfig, IngestMetrics};
use uninet_sampler::{EdgeSamplerKind, InitStrategy};
use uninet_walker::models::DeepWalk;
use uninet_walker::{MaintenanceStats, SamplerManager};

const N: u32 = 16;

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

fn arbitrary_mutation() -> impl Strategy<Value = GraphMutation> {
    (0usize..3, 0u32..N + 2, 0u32..N + 2, 0.1f32..8.0).prop_map(|(op, src, dst, w)| match op {
        0 => GraphMutation::AddEdge {
            src,
            dst,
            weight: w,
        },
        1 => GraphMutation::RemoveEdge { src, dst },
        _ => GraphMutation::UpdateWeight {
            src,
            dst,
            weight: w,
        },
    })
}

fn assert_graphs_identical(a: &Graph, b: &Graph) {
    assert_eq!(a.num_edges(), b.num_edges());
    for v in 0..N {
        assert_eq!(a.neighbors(v), b.neighbors(v), "neighbors of {v}");
        assert_eq!(a.weights(v), b.weights(v), "weights of {v}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// The full pipeline is graph- and tally-identical to the sequential
    /// batch loop, for arbitrary mutation sequences, samplers, worker
    /// counts, batch splits, queue capacities and compaction policies.
    #[test]
    fn pipeline_is_graph_identical_to_sequential(
        edges in prop::collection::vec((0u32..N, 0u32..N, 0.5f32..4.0), 4..40),
        mutations in prop::collection::vec(arbitrary_mutation(), 1..60),
        kind in prop_oneof![
            Just(EdgeSamplerKind::MetropolisHastings(InitStrategy::Random)),
            Just(EdgeSamplerKind::Alias),
            Just(EdgeSamplerKind::Rejection),
        ],
        num_threads in 1usize..=4,
        batch_size in 1usize..20,
        queue_capacity in 1usize..5,
        compaction_threshold in prop_oneof![Just(4usize), Just(16), Just(1_000_000)],
        symmetric in any::<bool>(),
    ) {
        let g = base_graph(&edges);
        let model = DeepWalk::new();

        let mut dg_serial = DynamicGraph::new(g.clone(), symmetric);
        let mut mgr_serial = SamplerManager::new(dg_serial.base(), &model, kind, 0);
        let serial = IncrementalMaintainer::new(MaintainerConfig { compaction_threshold });
        let (mut weight, mut topology, mut rejected, mut compactions) = (0, 0, 0, 0);
        let mut maintenance = MaintenanceStats::default();
        for batch in uninet_dyngraph::into_batches(&mutations, batch_size) {
            let r = serial.apply_batch(&mut dg_serial, &mut mgr_serial, &model, &batch);
            weight += r.weight_mutations;
            topology += r.topology_mutations;
            rejected += r.rejected_mutations;
            compactions += r.compacted as usize;
            maintenance.merge(&r.maintenance);
        }
        let flush = serial.flush(&mut dg_serial, &mut mgr_serial, &model);
        compactions += flush.compacted as usize;
        maintenance.merge(&flush.maintenance);

        let mut dg = DynamicGraph::new(g, symmetric);
        let mut mgr = SamplerManager::new(dg.base(), &model, kind, 0);
        let report = run_pipeline(
            &IngestConfig {
                batch_size,
                queue_capacity,
                num_threads,
                compaction_threshold,
            },
            &IngestMetrics::detached(),
            &mut dg,
            &mut mgr,
            &model,
            &mutations,
            None,
            |_, _, _, _| {},
        );
        prop_assert_eq!(report.batches, mutations.len().div_ceil(batch_size));
        prop_assert_eq!(report.weight_mutations, weight);
        prop_assert_eq!(report.topology_mutations, topology);
        prop_assert_eq!(report.rejected_mutations, rejected);
        prop_assert_eq!(report.compactions, compactions);
        prop_assert_eq!(report.maintenance, maintenance);
        prop_assert_eq!(dg.pending(), 0);
        prop_assert_eq!(dg.version(), dg_serial.version());
        prop_assert_eq!(dg.rejected(), dg_serial.rejected());
        assert_graphs_identical(dg_serial.base(), dg.base());
        prop_assert_eq!(mgr.num_states(), mgr_serial.num_states());
    }
}
