//! `serve`: ANN `top_k` over the wire from `uninet_server::serve` on
//! loopback TCP, while a republisher publishes a drifted epoch beside the
//! reads. Open loop at a low and a high fixed rate, then closed loop.

use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use uninet_core::{EmbeddingStore, Embeddings, Engine, MetricsSnapshot, QueryMode};
use uninet_embedding::Word2VecTrainer;
use uninet_graph::io::{read_edge_list_file, EdgeListOptions};
use uninet_server::{serve, Client, ServeAddr, ServerConfig, ServerHandle};
use uninet_walker::{SamplerManager, WalkEngine};

use crate::common::*;
use crate::gen::{self, Drift, DIGEST_INIT};
use crate::layers;
use crate::load::{
    closed_loop, open_loop, phase_stats, windowed_p99, RealClock, Sample, MIN_WINDOW,
};
use crate::trace::{median, percentile, Trace};

#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub nodes: usize,
    pub communities: usize,
    pub num_walks: usize,
    pub walk_length: usize,
    pub dim: usize,
    pub window: usize,
    /// Total offered rate of the low and high open-loop phases, in q/s.
    pub low_qps: f64,
    pub high_qps: f64,
    /// Length of one load phase, a whole number of republish periods.
    pub phase_s: f64,
}

/// The `serve` workload.
pub const FULL: Size = Size {
    nodes: 4_000,
    communities: 20,
    num_walks: 2,
    walk_length: 20,
    dim: 64,
    window: 5,
    low_qps: 2_000.0,
    high_qps: 4_000.0,
    phase_s: 1.0,
};

/// The small copy that fills in `serve`'s metrics for other workloads.
pub const PROBE: Size = Size {
    nodes: 1_000,
    communities: 10,
    num_walks: 1,
    walk_length: 40,
    dim: 32,
    window: 5,
    low_qps: 2_000.0,
    high_qps: 4_000.0,
    phase_s: 0.5,
};

const K: usize = 10;
/// Client connections (the host's vCPU count).
const CONNECTIONS: usize = 2;
const REPUBLISH_EVERY: Duration = Duration::from_millis(500);
const DRIFT_SHARE: f64 = 0.05;
/// The latency limit goodput counts against.
const LIMIT_US: f64 = 1_000.0;
/// Queries in the wire-vs-in-process and recall sample.
const SAMPLE: usize = 200;

type Conn = Client<Polled>;
/// Receives one timed step of the traced query loop: span name, start, end,
/// request id.
type Record<'a> = dyn FnMut(&str, Instant, Instant, Option<u64>) + 'a;

struct Inputs {
    path: std::path::PathBuf,
    num_nodes: usize,
    /// One query schedule per connection.
    queries: Vec<Vec<u32>>,
    drift: Vec<Drift>,
}

fn inputs(ctx: &Ctx, size: &Size) -> Result<Inputs> {
    let g = planted_input(ctx, size.nodes, size.communities);
    let mut digest = DIGEST_INIT;
    let path = write_graph(ctx, &g, &mut digest)?;
    let mut rng = ctx.rng("queries");
    let per_conn = (size.high_qps * ctx.seconds) as usize / CONNECTIONS + SAMPLE;
    let queries: Vec<Vec<u32>> = (0..CONNECTIONS)
        .map(|_| gen::queries(&mut rng, g.num_nodes, per_conn))
        .collect();
    let publishes = (ctx.seconds / REPUBLISH_EVERY.as_secs_f64()) as usize + 8;
    let drift = gen::drift_plan(&mut ctx.rng("drift"), g.num_nodes, DRIFT_SHARE, publishes);
    let io = |e: std::io::Error| format!("writing inputs: {e}");
    gen::write_input(
        &ctx.out,
        "queries.txt",
        &gen::queries_text(&queries.concat()),
        &mut digest,
    )
    .map_err(io)?;
    gen::write_input(&ctx.out, "drift.txt", &gen::drift_text(&drift), &mut digest).map_err(io)?;
    note_inputs(ctx, digest);
    Ok(Inputs {
        path,
        num_nodes: g.num_nodes,
        queries,
        drift,
    })
}

fn spec(size: &Size) -> EngineSpec {
    EngineSpec {
        ann_index: true,
        ..EngineSpec::deepwalk(size.num_walks, size.walk_length, size.dim, size.window)
    }
}

fn start_server(engine: &Engine) -> Result<(ServerHandle, String)> {
    let server = serve(
        engine,
        &ServeAddr::Tcp("127.0.0.1:0".into()),
        ServerConfig::default(),
    )
    .map_err(|e| format!("serve: {e}"))?;
    let addr = server.addr().to_string();
    Ok((server, addr))
}

/// A non-blocking TCP stream that waits for its peer by polling, so a load
/// thread never leaves its vCPU idle while a request is in flight (see
/// [`RealClock`]).
struct Polled(TcpStream);

fn poll<T>(mut op: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
    loop {
        match op() {
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => thread::yield_now(),
            r => return r,
        }
    }
}

impl std::io::Read for Polled {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        poll(|| self.0.read(buf))
    }
}

impl std::io::Write for Polled {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        poll(|| self.0.write(buf))
    }
    fn flush(&mut self) -> std::io::Result<()> {
        poll(|| self.0.flush())
    }
}

fn connect(addr: &str) -> Result<Conn> {
    let err = |e: std::io::Error| format!("connect {addr}: {e}");
    let stream = TcpStream::connect(addr).map_err(err)?;
    stream.set_nodelay(true).map_err(err)?;
    stream.set_nonblocking(true).map_err(err)?;
    Ok(Client::from_stream(Polled(stream)))
}

fn top_k(c: &mut Conn, node: u32) -> Result<(u64, Vec<(u32, f32)>)> {
    c.top_k(node, K as u32, QueryMode::Ann)
        .map_err(|e| format!("top_k({node}): {e}"))
}

/// The republisher: one long-lived thread that applies the drift plan's
/// next step to its copy of the matrix and publishes it through
/// `EmbeddingStore::publish`, in the middle of every [`REPUBLISH_EVERY`]
/// period of each phase it is given, so each latency window holds exactly
/// one whole publish.
struct Republisher {
    phases: mpsc::Sender<(Instant, f64)>,
    done: mpsc::Receiver<()>,
    /// Yields the duration of every publish, in seconds.
    thread: thread::JoinHandle<Vec<f64>>,
}

impl Republisher {
    fn start(store: Arc<EmbeddingStore>, plan: Vec<Drift>) -> Self {
        let (phases, phase_rx) = mpsc::channel::<(Instant, f64)>();
        let (done_tx, done) = mpsc::channel();
        let thread = thread::spawn(move || {
            let snap = store.snapshot();
            let (dim, mut flat) = (
                snap.embeddings().dim(),
                snap.embeddings().as_flat().to_vec(),
            );
            drop(snap);
            let mut took = Vec::new();
            for (start, seconds) in phase_rx {
                let periods = (seconds / REPUBLISH_EVERY.as_secs_f64()).round() as u32;
                for k in 0..periods {
                    let at = start + REPUBLISH_EVERY * k + REPUBLISH_EVERY / 2;
                    thread::sleep(at.saturating_duration_since(Instant::now()));
                    gen::apply_drift(&mut flat, dim, &plan[took.len() % plan.len()]);
                    let t = Instant::now();
                    store.publish(Embeddings::from_flat(dim, flat.clone()));
                    took.push(secs(t.elapsed()));
                }
                let _ = done_tx.send(());
            }
            took
        });
        Republisher {
            phases,
            done,
            thread,
        }
    }

    fn finish(self) -> Vec<f64> {
        drop(self.phases);
        self.thread.join().expect("republisher panicked")
    }
}

/// Runs one load phase of `seconds`, one thread per connection, with the
/// republisher beside it, and returns the samples in due order. `offset`
/// picks where in the query schedules the phase starts.
fn phase(
    conns: &mut [Conn],
    queries: &[Vec<u32>],
    offset: usize,
    seconds: f64,
    rate: Option<f64>,
    republisher: Option<&Republisher>,
) -> Vec<Sample> {
    let start = Instant::now() + Duration::from_millis(2);
    if let Some(r) = republisher {
        r.phases
            .send((start, seconds))
            .expect("republisher is running");
    }
    let mut samples: Vec<Sample> = thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(queries)
            .enumerate()
            .map(|(c, (conn, q))| {
                s.spawn(move || {
                    let clock = RealClock(start);
                    let call = |i: usize| top_k(conn, q[(offset + i) % q.len()]).is_ok();
                    match rate {
                        Some(rate) => {
                            let period = Duration::from_secs_f64(CONNECTIONS as f64 / rate);
                            let count = (seconds * rate) as usize / CONNECTIONS;
                            let first = period * c as u32 / CONNECTIONS as u32;
                            open_loop(&clock, first, period, count, call)
                        }
                        None => closed_loop(&clock, Duration::from_secs_f64(seconds), call),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    if let Some(r) = republisher {
        r.done.recv().expect("republisher is running");
    }
    samples.sort_by_key(|s| s.due);
    samples
}

/// Logs a phase's figures with their sample counts and checks that the
/// windows support a p99; returns the windowed p99.
fn windowed(name: &str, rounds: &[Vec<Sample>]) -> Result<f64> {
    let st = phase_stats(&rounds.concat());
    let (p99, windows) = windowed_p99(rounds, REPUBLISH_EVERY).ok_or_else(|| {
        format!(
            "{name}: {} requests fill no window of {MIN_WINDOW} requests",
            st.samples
        )
    })?;
    eprintln!(
        "{name}: {} requests, {} failed, p50 {:.1} us, p99 of {windows} windows {:.1} us, \
         overall p99 {:.1} us, p{} {:.1} us, generator lag p50 {:.1} us max {:.1} us",
        st.samples,
        st.failed,
        st.p50_us,
        p99,
        st.p99_us,
        st.tail_pct,
        st.tail_us,
        st.lag_p50_us,
        st.lag_max_us
    );
    let per_round: Vec<f64> = rounds
        .iter()
        .filter_map(|r| windowed_p99(std::slice::from_ref(r), REPUBLISH_EVERY).map(|p| p.0))
        .collect();
    eprintln!("{name}: windowed p99 per round {per_round:.0?} us");
    gate(p99.is_finite(), || {
        format!("{name}: over 1% of requests failed in most windows")
    })?;
    Ok(p99)
}

/// Wire replies equal in-process replies at the same epoch; returns the
/// recall of wire ANN against in-process exact top-k.
fn check_replies(engine: &Engine, conn: &mut Conn, sample: &[u32]) -> Result<f64> {
    let snap = engine.snapshot();
    let mut hits = 0usize;
    for &node in sample {
        let (epoch, wire) = top_k(conn, node)?;
        gate(epoch == snap.epoch(), || {
            format!("wire epoch {epoch}, in-process {}", snap.epoch())
        })?;
        let local = snap.top_k_mode(node, K, QueryMode::Ann);
        let same = wire.len() == local.len()
            && wire
                .iter()
                .zip(&local)
                .all(|(a, b)| a.0 == b.0 && (a.1 - b.1).abs() <= 1e-5);
        gate(same, || {
            format!("top_k({node}): wire {wire:?} != in-process {local:?}")
        })?;
        let exact = snap.top_k_mode(node, K, QueryMode::Exact);
        hits += wire
            .iter()
            .filter(|w| exact.iter().any(|e| e.0 == w.0))
            .count();
    }
    Ok(hits as f64 / (sample.len() * K) as f64)
}

/// `serve` set up: the engine behind a running server, and the samples of
/// the rounds measured so far.
struct Serve {
    engine: Engine,
    server: ServerHandle,
    addr: String,
    inp: Inputs,
    size: Size,
    setup_s: f64,
    /// The low-rate open-loop phase of each round.
    low: Vec<Vec<Sample>>,
    /// The closed-loop phase of each round.
    closed: Vec<Vec<Sample>>,
}

pub fn setup(ctx: &Ctx, size: &Size, setup_reps: usize) -> Result<Box<dyn Bench>> {
    let inp = inputs(ctx, size)?;
    let spec = spec(size);
    let ((engine, server, addr), setup_s) = repeated_setup(setup_reps, || {
        let engine = spec.load(ctx, &inp.path)?;
        engine.train().map_err(|e| format!("train: {e}"))?;
        let (server, addr) = start_server(&engine)?;
        top_k(&mut connect(&addr)?, inp.queries[0][0])?;
        Ok((engine, server, addr))
    })?;
    Ok(Box::new(Serve {
        engine,
        server,
        addr,
        inp,
        size: *size,
        setup_s,
        low: Vec::new(),
        closed: Vec::new(),
    }))
}

impl Bench for Serve {
    /// Rounds of a low-rate phase, which gives the median latency, and a
    /// closed-loop phase, which gives the goodput. The high rate only feeds
    /// the traced run's tail latency.
    fn measure(&mut self, seconds: f64, min: usize) -> Result<()> {
        let rounds = ((seconds / (2.0 * self.size.phase_s)) as usize).max(min);
        let first = self.low.len();
        let mut phases = load(
            self.engine.store(),
            &self.addr,
            &self.inp,
            &self.size,
            first..first + rounds,
            &[Some(self.size.low_qps), None],
        )?;
        self.closed.extend(phases.pop().expect("closed-loop phase"));
        self.low.extend(phases.pop().expect("low-rate phase"));
        Ok(())
    }

    fn finish(self: Box<Self>) -> Result<Outcome> {
        let Serve {
            engine,
            server,
            addr,
            inp,
            size,
            setup_s,
            low,
            closed,
        } = *self;
        let recall = check_replies(&engine, &mut connect(&addr)?, &inp.queries[0][..SAMPLE])?;
        server.shutdown();

        // The median over rounds of each round's p50: a round in a slow
        // stretch of the host moves one value, not the figure.
        let round_p50: Vec<f64> = low.iter().map(|r| phase_stats(r).p50_us).collect();
        let p50 = median(&round_p50);
        eprintln!("low: p50 per round {round_p50:.1?} us");
        windowed("low", &low)?;
        // Likewise the median over rounds of each round's goodput.
        let round_goodput: Vec<f64> = closed
            .iter()
            .map(|r| r.iter().filter(|s| s.latency_us() <= LIMIT_US).count() as f64 / size.phase_s)
            .collect();
        let goodput = median(&round_goodput);
        eprintln!("closed: goodput per round {round_goodput:.0?} q/s");
        let (low, closed) = (low.concat(), closed.concat());
        let all = [low, closed].concat();
        gate(recall >= RECALL_FLOOR, || {
            format!("recall_at_10 {recall} is below the floor {RECALL_FLOOR}")
        })?;
        let mut m = Metrics::default();
        m.set("setup_s", setup_s, "s");
        m.set("query_p50_us", p50, "us");
        m.set("query_goodput_qps", goodput, "q/s");
        m.set("recall_at_10", recall, "ratio");
        Ok(Outcome {
            metrics: m,
            attempted: (all.len() + SAMPLE) as u64,
            failed: all.iter().filter(|s| !s.ok).count() as u64,
        })
    }
}

/// The rounds numbered `rounds` of load, with the republisher publishing
/// beside every phase; a round's number picks where in the query schedules
/// it starts. Each round opens fresh connections, warms them up for 0.1 s, then
/// runs one phase per entry of `rates`: open loop at that total rate, or
/// closed loop for `None`. Returns the samples per entry, per round. Rounds
/// spread each phase over the run, and fresh connections give each round
/// its own thread placement, so neither a slow stretch of the host nor one
/// placement decides a figure.
fn load(
    store: Arc<EmbeddingStore>,
    addr: &str,
    inp: &Inputs,
    size: &Size,
    rounds: std::ops::Range<usize>,
    rates: &[Option<f64>],
) -> Result<Vec<Vec<Vec<Sample>>>> {
    let republisher = Republisher::start(store, inp.drift.clone());
    let mut out = vec![Vec::new(); rates.len()];
    for r in rounds {
        let mut conns = (0..CONNECTIONS)
            .map(|_| connect(addr))
            .collect::<Result<Vec<_>>>()?;
        let (q, offset) = (&inp.queries, r * (size.high_qps * size.phase_s) as usize);
        phase(&mut conns, q, offset, 0.1, None, None);
        for (samples, &rate) in out.iter_mut().zip(rates) {
            samples.push(phase(
                &mut conns,
                q,
                offset,
                size.phase_s,
                rate,
                Some(&republisher),
            ));
        }
    }
    let publishes = republisher.finish();
    eprintln!(
        "{} publishes beside the load, median {:.3} s",
        publishes.len(),
        if publishes.is_empty() {
            0.0
        } else {
            median(&publishes)
        }
    );
    Ok(out)
}

fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    (after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)) as f64
}

/// The traced run. Set-up is made of the layer calls `train()` makes; the
/// query loop then runs on one thread, one connection: a wire `top_k`
/// (request-id spans), the same query in-process (ANN, and exact on every
/// tenth), and a drift publish every [`REPUBLISH_EVERY`]. The same loop
/// untraced gives the tracing overhead.
pub fn trace(ctx: &Ctx, size: &Size) -> Result<Outcome> {
    let inp = inputs(ctx, size)?;
    let spec = spec(size);
    let mut tr = Trace::new();
    let root = tr.open("core.run", None);
    let graph = tr
        .time("graph.load", Some(root), || {
            read_edge_list_file(&inp.path, EdgeListOptions::default())
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
    let manager = tr.time("sampler.init", Some(root), || {
        SamplerManager::new(
            &graph,
            model.as_ref(),
            cfg.walk.sampler,
            cfg.walk.memory_budget_bytes,
        )
    });
    let starts: Vec<u32> = graph.non_isolated_nodes().collect();
    let (corpus, _) = tr.time("walker.walk", Some(root), || {
        WalkEngine::new(cfg.walk).generate_with_manager(&graph, model.as_ref(), &manager, &starts)
    });
    let (embeddings, _) = tr.time("embedding.learn", Some(root), || {
        Word2VecTrainer::new(cfg.embedding).train(corpus.walks(), graph.num_nodes())
    });
    let store = engine.store();
    tr.time("embedding.publish", Some(root), || {
        store.publish(embeddings)
    });
    let (server, addr, mut conn) = tr.time("server.start", Some(root), || {
        let (server, addr) = start_server(&engine)?;
        let conn = connect(&addr)?;
        Ok::<_, String>((server, addr, conn))
    })?;
    let dim = store.snapshot().embeddings().dim();
    let mut flat = store.snapshot().embeddings().as_flat().to_vec();

    // One pass of the query loop; `record` receives each timed step.
    let mut query_loop = |seconds: f64, record: &mut Record| -> Result<usize> {
        let q = &inp.queries[0];
        let start = Instant::now();
        let (mut i, mut next_publish, mut p) = (0usize, start + REPUBLISH_EVERY, 0usize);
        while secs(start.elapsed()) < seconds {
            if Instant::now() >= next_publish {
                gen::apply_drift(&mut flat, dim, &inp.drift[p % inp.drift.len()]);
                let t = Instant::now();
                store.publish(Embeddings::from_flat(dim, flat.clone()));
                record("embedding.publish", t, Instant::now(), None);
                next_publish += REPUBLISH_EVERY;
                p += 1;
            }
            let node = q[i % q.len()];
            let t = Instant::now();
            top_k(&mut conn, node)?;
            record("server.top_k", t, Instant::now(), Some(i as u64));
            let t = Instant::now();
            store.top_k_mode(node, K, QueryMode::Ann);
            record("embedding.top_k_ann", t, Instant::now(), None);
            if i % 10 == 0 {
                let t = Instant::now();
                store.top_k_mode(node, K, QueryMode::Exact);
                record("embedding.top_k_exact", t, Instant::now(), None);
            }
            i += 1;
        }
        Ok(i)
    };
    let t = Instant::now();
    let traced_n = query_loop(ctx.seconds / 2.0, &mut |name, s, e, req| {
        tr.add(name, Some(root), s, e, req);
    })?;
    let traced = secs(t.elapsed()) / traced_n as f64;
    tr.close(root);
    let after = engine.metrics();
    let t = Instant::now();
    let untraced_n = query_loop(ctx.seconds / 2.0, &mut |_, _, _, _| {})?;
    let untraced = secs(t.elapsed()) / untraced_n as f64;
    drop(conn);
    // The fixed-rate phases on two connections, for the tail latencies and
    // the coalescing they cause.
    let before_load = engine.metrics();
    let rates = [Some(size.low_qps), Some(size.high_qps)];
    let load = load(engine.store(), &addr, &inp, size, 0..2, &rates)?;
    let after_load = engine.metrics();
    server.shutdown();

    let p50_us = |name: &str| {
        let mut d: Vec<f64> = tr
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e3)
            .collect();
        d.sort_by(|a, b| a.total_cmp(b));
        percentile(&d, 50.0)
    };
    let tokens = corpus.total_tokens() as f64;
    let reinserted = after
        .histogram("engine.publish.ann_reinserted")
        .filter(|h| h.count() > 0)
        .map_or(0.0, |h| h.sum() as f64 / h.count() as f64);
    let mut m = Metrics::default();
    m.set(
        "sampler.memory_mb",
        manager.memory_bytes() as f64 / (1 << 20) as f64,
        "MiB",
    );
    m.set(
        "walker.ns_per_step",
        tr.total_seconds("walker.walk") * 1e9 / tokens,
        "ns",
    );
    m.set(
        "embedding.tokens_per_s_per_thread",
        tokens / tr.total_seconds("embedding.learn") / cfg.embedding.num_threads as f64,
        "tokens/s",
    );
    m.set(
        "embedding.ann_reinserted_ratio",
        reinserted / inp.num_nodes as f64,
        "ratio",
    );
    m.set(
        "embedding.top_k_ann_us",
        p50_us("embedding.top_k_ann"),
        "us",
    );
    m.set(
        "embedding.top_k_exact_us",
        p50_us("embedding.top_k_exact"),
        "us",
    );
    m.set(
        "server.overhead_us",
        p50_us("server.top_k") - p50_us("embedding.top_k_ann"),
        "us",
    );
    m.set(
        "server.slab_size",
        counter_delta(&before_load, &after_load, "server.coalesced_queries")
            / counter_delta(&before_load, &after_load, "server.coalesced_slabs").max(1.0),
        "count",
    );
    m.set(
        "server.rejected",
        after_load.counter("server.rejected_overload").unwrap_or(0) as f64,
        "count",
    );
    m.set("query_p99_us", windowed("low", &load[0])?, "us");
    m.set("query_p99_us.high", windowed("high", &load[1])?, "us");
    m.set(
        "trace.overhead_pct",
        layers::overhead_pct(traced, untraced),
        "%",
    );
    Ok(Outcome {
        metrics: layers::finish(&tr, root, m, &ctx.out)?,
        attempted: (traced_n + untraced_n + load.concat().iter().map(Vec::len).sum::<usize>())
            as u64,
        failed: 0,
    })
}
