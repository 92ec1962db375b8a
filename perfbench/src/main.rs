//! Layered benchmark of the uninet workspace.
//!
//! ```text
//! perfbench --workload <train|walk|stream|serve> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Generates the workload's inputs from the seed under `--out` (default
//! `.bench_out/<workload>-<seed>-<trace>`), runs it, checks the program's
//! outputs, and prints one JSON line as the last line of standard output:
//! end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
//! A failed check exits non-zero. See `README.md` next to this crate.

mod common;
mod gen;
mod layers;
mod load;
mod loc;
mod rng;
mod serve;
mod stream;
mod trace;
mod train;
mod walk;

use std::path::PathBuf;

use common::{peak_rss_mb, Bench, Ctx, Outcome, Result};

const WORKLOADS: [&str; 4] = ["train", "walk", "stream", "serve"];

/// Every end-to-end metric, printed by every workload.
const END_TO_END: [&str; 9] = [
    "setup_s",
    "peak_rss_mb",
    "train_tokens_per_s",
    "link_auc",
    "walk_steps_per_s",
    "stream_updates_per_s",
    "query_p50_us",
    "query_goodput_qps",
    "recall_at_10",
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Sets up `workload` at its full size, or as a probe: a small copy of it
/// that the other workloads run so that every workload prints every
/// end-to-end metric.
fn setup(workload: &str, ctx: &Ctx, probe: bool) -> Result<Box<dyn Bench>> {
    let reps = if probe { 1 } else { SETUP_REPS };
    match (workload, probe) {
        ("train", false) => train::setup(ctx, &train::FULL, reps),
        ("train", true) => train::setup(ctx, &train::PROBE, reps),
        ("walk", false) => walk::setup(ctx, &walk::FULL, reps),
        ("walk", true) => walk::setup(ctx, &walk::PROBE, reps),
        ("stream", false) => stream::setup(ctx, &stream::FULL, reps),
        ("stream", true) => stream::setup(ctx, &stream::PROBE, reps),
        ("serve", false) => serve::setup(ctx, &serve::FULL, reps),
        ("serve", true) => serve::setup(ctx, &serve::PROBE, reps),
        _ => unreachable!("workload validated"),
    }
}

/// Passes over the probes per run. The probes are set up once, then
/// measured in turn, a share of the time each, pass after pass, so that
/// each probe's rounds are spread over the whole probing time and a slow
/// stretch of the host moves a few of them, not the figure.
const PROBE_PASSES: usize = 7;

/// A probe's measured time per pass: one round of `serve`'s phases, about
/// three rounds of the others.
fn probe_seconds(workload: &str) -> f64 {
    if workload == "serve" {
        1.0
    } else {
        0.5
    }
}

fn run_traced(workload: &str, ctx: &Ctx) -> Result<Outcome> {
    match workload {
        "train" => train::trace(ctx, &train::FULL),
        "walk" => walk::trace(ctx, &walk::FULL),
        "stream" => stream::trace(ctx, &stream::FULL),
        "serve" => serve::trace(ctx, &serve::FULL),
        _ => unreachable!("workload validated"),
    }
}

fn run(workload: &str, ctx: &Ctx, traced: bool) -> Result<Outcome> {
    if traced {
        return run_traced(workload, ctx);
    }
    let mut bench = setup(workload, ctx, false)?;
    bench.measure(ctx.seconds, 3)?;
    let mut out = bench.finish()?;
    // Read before the probes are set up, so it is the workload's own peak.
    out.metrics.set("peak_rss_mb", peak_rss_mb(), "MiB");
    let others: Vec<&str> = WORKLOADS.into_iter().filter(|&w| w != workload).collect();
    let mut probes = Vec::new();
    for &w in &others {
        let seconds = probe_seconds(w) * PROBE_PASSES as f64;
        probes.push(setup(w, &ctx.sub(&format!("probe-{w}"), seconds)?, true)?);
    }
    for _ in 0..PROBE_PASSES {
        for (&w, probe) in others.iter().zip(&mut probes) {
            probe.measure(probe_seconds(w), 1)?;
        }
    }
    for probe in probes {
        out.absorb(probe.finish()?);
    }
    for name in END_TO_END {
        common::gate(out.metrics.get(name).is_some(), || {
            format!("{name} was not measured")
        })?;
    }
    Ok(out)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 12.0,
        trace: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => a.trace = value != "0",
            "--out" => a.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    common::gate(WORKLOADS.contains(&a.workload.as_str()), || {
        format!("--workload must be one of {WORKLOADS:?}")
    })?;
    common::gate(a.seconds > 0.0, || "--seconds must be positive".into())?;
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = args.out.clone().unwrap_or_else(|| {
        PathBuf::from(".bench_out").join(format!(
            "{}-{}-{}",
            args.workload, args.seed, args.trace as u8
        ))
    });
    let _ = std::fs::remove_dir_all(&out);
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: {}: {e}", out.display());
        std::process::exit(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        out,
    };
    match run(&args.workload, &ctx, args.trace) {
        Ok(o) => println!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            o.attempted.max(1),
            o.failed,
            o.metrics.to_json()
        ),
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            std::process::exit(1);
        }
    }
}
