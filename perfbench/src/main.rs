//! The repository benchmark: two workloads over the `pardp-core`
//! library, every answer checked against a sequential oracle.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch_paper|serve_small> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! per-layer probes (see `layers.rs`) and prints the per-layer metrics.
//! The last line of standard output is the result object; the line
//! before it records the host, corpus shape and exact counts. See
//! `perfbench/README.md` for what each workload and metric is for.

mod closed;
mod corpus;
mod layers;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use pardp_core::prelude::*;

use closed::Batch;
use corpus::{Job, Plan};
use report::{median, result_line, Metrics, Tally};
use serve::Daemon;
use trace::Tracer;

pub const WORKLOADS: [&str; 2] = ["batch_paper", "serve_small"];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 25;

/// Open-loop rate of `serve_small`, requests per second: half the
/// highest rate at which the daemon meets its p90 limit.
pub const SMALL_RATE: f64 = 2000.0;

/// `serve_small` runs in windows of [`WINDOW_SECONDS`]. A window in
/// which the generator sent its 90th-percentile request later than
/// [`LATE_BOUND_MS`] is invalid: the client, not the daemon, set its
/// latency. Its answers still count for `ok_share`, its latencies are left
/// out, and the run goes on (to twice its length at most) until half its
/// windows are valid; a run that cannot get there is invalid as a whole.
pub const LATE_BOUND_MS: f64 = 2.0;
pub const WINDOW_SECONDS: f64 = 1.0;

/// The quantile, across the valid windows of a `serve_small` run, of the
/// windows' latency percentiles it reports: the best decile, as the best
/// pass of `batch_paper`. A host's slow phase moves the median window.
pub const WINDOW_QUANTILE: f64 = 0.1;

/// Print `msg` and exit with status 2, without a result line.
pub fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::fs::remove_dir_all(work_dir()).ok();
    std::process::exit(2);
}

/// Working space inside the build directory of the repository, private to
/// this process.
pub fn work_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    base.join("perfbench-work")
        .join(std::process::id().to_string())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.chunks(2);
    for pair in &mut it {
        let [flag, value] = pair else {
            fail(&format!("flag {} needs a value", pair[0]));
        };
        let bad = || -> ! { fail(&format!("bad value {value:?} for {flag}")) };
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().unwrap_or_else(|_| bad()),
            "--seconds" => a.seconds = value.parse().unwrap_or_else(|_| bad()),
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            _ => fail(&format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        fail(&format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !a.seconds.is_finite() || a.seconds <= 0.0 {
        fail("--seconds must be a positive number");
    }
    a
}

/// The corpus plan of `workload` for `seed`.
pub fn plan(workload: &str, seed: u64) -> Plan {
    match workload {
        "batch_paper" => corpus::batch_paper(seed),
        "serve_small" => corpus::serve_small(seed),
        other => unreachable!("unknown workload {other}"),
    }
}

/// Run `setup` [`SETUPS`] times, keeping the last; returns it with the
/// median set-up time. `teardown` releases every earlier one.
pub fn set_up<S>(mut setup: impl FnMut() -> S, mut teardown: impl FnMut(S)) -> (S, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some(s) = last.take() {
            teardown(s);
        }
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// The end-to-end metrics shared by every workload. `answers_per_s`
/// counts every answer, `ok_per_s` only the right ones.
pub fn end_to_end(
    setup_s: f64,
    tally: Tally,
    answers_per_s: f64,
    p50_ms: f64,
    p90_ms: f64,
) -> Metrics {
    let ok_share = tally.ok() as f64 / tally.attempted as f64;
    let mut m = Metrics::default();
    m.add("setup_s", setup_s, "s");
    m.add("ok_per_s", answers_per_s * ok_share, "1/s");
    m.add("ok_share", ok_share, "share");
    m.add("lat_p50_ms", p50_ms, "ms");
    m.add("lat_p90_ms", p90_ms, "ms");
    m
}

/// Context printed before the result: what ran, where, on what corpus.
pub struct Context {
    pub fields: Vec<(String, String)>,
}

impl Context {
    fn put(&mut self, key: &str, json: impl ToString) {
        self.fields.push((key.to_string(), json.to_string()));
    }

    fn line(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn main() {
    let a = args();
    let plan = plan(&a.workload, a.seed);
    let mut ctx = Context { fields: Vec::new() };
    ctx.put("workload", format!("{:?}", a.workload));
    ctx.put("seed", a.seed);
    ctx.put("host", report::host());
    ctx.put("jobs", plan.len());
    // The next seed must give a corpus of the same shape.
    let next = self::plan(&a.workload, a.seed.wrapping_add(1));
    let same_shape = corpus::shape(&plan) == corpus::shape(&next);
    if !same_shape {
        fail("seed and seed + 1 gave corpora of different shapes");
    }
    ctx.put("shape_matches_next_seed", same_shape);
    let jobs = corpus::with_oracle(plan);

    let (tally, metrics) = if a.trace {
        layers::run(&a.workload, a.seed, a.seconds, &jobs, &mut ctx)
    } else {
        let mut tr = Tracer::new(false);
        let (tally, metrics, _) = run_workload(&a.workload, a.seconds, &jobs, &mut tr, &mut ctx);
        (tally, metrics)
    };
    std::fs::remove_dir_all(work_dir()).ok();
    ctx.put("wrong", tally.wrong);
    println!("{}", ctx.line());
    println!("{}", result_line(tally, &metrics));
}

/// What a daemon workload's run leaves for the per-layer metrics.
pub struct Served {
    pub stats: ServeStats,
    pub p99_ms: f64,
    pub late_ms: f64,
}

/// Set up and run one workload for `seconds`; returns its tally, its
/// end-to-end metrics and, for the daemon workloads, what [`Served`]
/// keeps.
pub fn run_workload(
    workload: &str,
    seconds: f64,
    jobs: &[Job],
    tr: &mut Tracer,
    ctx: &mut Context,
) -> (Tally, Metrics, Option<Served>) {
    match workload {
        "batch_paper" => {
            let (batch, setup_s) = set_up(|| Batch::setup(jobs), drop);
            let (run, counts) = batch.run(seconds, tr);
            ctx.put(
                "counts",
                format!(
                    "{{\"kernel.candidates\": {}, \"kernel.writes\": {}, \"solver.iterations\": {}, \"batch.small_jobs\": {}, \"batch.large_jobs\": {}}}",
                    counts.candidates, counts.writes, counts.iterations, counts.small_jobs, counts.large_jobs
                ),
            );
            (
                run.tally,
                end_to_end(
                    setup_s,
                    run.tally,
                    run.answers_per_s,
                    serve::latency_ms(&run.latencies, 0.5, run.wall),
                    serve::latency_ms(&run.latencies, 0.9, run.wall),
                ),
                None,
            )
        }
        "serve_small" => {
            let (mut d, setup_s) = set_up(
                || Daemon::start(ServeConfig::default(), None, &[&jobs[0]]),
                |d| {
                    d.stop();
                },
            );
            let per_window = (SMALL_RATE * WINDOW_SECONDS) as usize;
            let target = ((seconds / WINDOW_SECONDS).round() as usize).max(1);
            let run = d.windows(jobs, SMALL_RATE, per_window, target, LATE_BOUND_MS, tr);
            let stats = d.stop();
            let late = run.gen_late_ms();
            let kept = run.kept().len();
            ctx.put("gen_late_p99_ms", late);
            ctx.put("gen_windows", run.runs.len());
            ctx.put("gen_windows_late", run.runs.len() - kept);
            ctx.put("server_overloaded", stats.errors_overloaded);
            if !run.valid(target) {
                fail(&format!(
                    "the generator sent its p90 request more than {LATE_BOUND_MS} ms late in \
                     {} of {} windows: the run is invalid",
                    run.runs.len() - kept,
                    run.runs.len()
                ));
            }
            let tally = run.tally();
            let answers_per_s = tally.attempted as f64 / run.elapsed().as_secs_f64();
            let served = Served {
                stats,
                p99_ms: run.pooled_lat_ms(0.99),
                late_ms: late,
            };
            (
                tally,
                end_to_end(
                    setup_s,
                    tally,
                    answers_per_s,
                    run.lat_ms(0.5, WINDOW_QUANTILE),
                    run.lat_ms(0.9, WINDOW_QUANTILE),
                ),
                Some(served),
            )
        }
        other => unreachable!("unknown workload {other}"),
    }
}
