//! # uninet-ingest
//!
//! Ingestion pipeline for dynamic graphs: keeps mutation intake off the
//! `apply → maintain → refresh → retrain` path of a streaming session.
//!
//! 1. **Bounded intake** ([`queue`]) — a reader thread chunks the update
//!    stream into batches and feeds a bounded MPSC queue; a full queue blocks
//!    the reader (back-pressure), so memory stays bounded under load spikes.
//! 2. **Serial apply** ([`pipeline`]) — the consumer applies each batch
//!    through `uninet_dyngraph::IncrementalMaintainer`. With the M-H sampler a
//!    reweight is one O(1) weight write, so application is a small share of a
//!    batch's cost and stays on one thread.
//! 3. **Parallel maintenance** — alias/rejection bucket rebuilds over touched
//!    nodes fan out across `IngestConfig::num_threads` workers
//!    (`SamplerManager::maintain_weights_parallel`); the M-H backend needs no
//!    rebuild at all, which is the paper's dynamic-workload claim.
//! 4. **Downstream hooks** ([`pipeline`]) — after every batch the pipeline
//!    hands the report to a callback where `uninet-core` fans walk refresh
//!    out over the walk-engine thread pool and applies incremental
//!    (regenerated-walks-only) embedding updates.
//!
//! ```
//! use uninet_dyngraph::{DynamicGraph, GraphMutation};
//! use uninet_graph::GraphBuilder;
//! use uninet_ingest::{run_pipeline, IngestConfig, IngestMetrics};
//! use uninet_sampler::{EdgeSamplerKind, InitStrategy};
//! use uninet_walker::models::DeepWalk;
//! use uninet_walker::SamplerManager;
//!
//! let mut b = GraphBuilder::new();
//! b.add_edge(0, 1, 1.0);
//! b.add_edge(1, 2, 1.0);
//! b.add_edge(2, 3, 1.0);
//! let model = DeepWalk::new();
//! let mut graph = DynamicGraph::new(b.symmetric(true).build(), true);
//! let mh = EdgeSamplerKind::MetropolisHastings(InitStrategy::Random);
//! let mut manager = SamplerManager::new(graph.base(), &model, mh, 0);
//!
//! let updates = [
//!     GraphMutation::UpdateWeight { src: 0, dst: 1, weight: 5.0 },
//!     GraphMutation::AddEdge { src: 0, dst: 3, weight: 2.0 },
//!     GraphMutation::RemoveEdge { src: 1, dst: 2 },
//! ];
//! let metrics = IngestMetrics::detached();
//! let report = run_pipeline(
//!     &IngestConfig::default(),
//!     &metrics,
//!     &mut graph,
//!     &mut manager,
//!     &model,
//!     &updates,
//!     None,
//!     |_, _, _, _| {},
//! );
//! assert_eq!(report.weight_mutations, 1);
//! assert_eq!(report.topology_mutations, 2);
//! // The end-of-stream flush folded the overlay into the CSR, and was timed.
//! assert!(graph.base().has_edge(0, 3) && !graph.base().has_edge(1, 2));
//! assert_eq!(metrics.compactions.get(), 1);
//! assert_eq!(metrics.compaction_ns.count(), 1);
//! ```

pub mod metrics;
pub mod pipeline;
pub mod queue;

pub use metrics::IngestMetrics;
pub use pipeline::{run_pipeline, IngestConfig, IngestReport};
pub use queue::{
    batch_queue, instrumented_batch_queue, BatchReceiver, BatchSender, QueueStats, RateLimiter,
};
