//! The traced run: per-layer metrics for the modules of `pardp-core`.
//!
//! Every layer is timed from outside, by spans the harness takes around
//! calls into the layer's public functions, and its exact work is read
//! from `Solution::stats`, `SolveTrace`, `BatchReport` and `ServeStats`.
//! The run first repeats the chosen workload, half untraced and half
//! traced (`trace.overhead_share`), then runs one probe per layer. The
//! probes are the same whichever workload was chosen, so every traced
//! run reports every per-layer metric.

use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

use pardp_core::exec::ExecBackend;
use pardp_core::prelude::*;
use pardp_core::reduced::default_band;
use pardp_core::seq::sequential_work;
use pardp_core::store::CachedSolution;
use pardp_core::tables::{BandedPw, PairIndexer};
use pardp_core::wavefront::WavefrontConfig;

use crate::closed::{matches, paper_options, Batch, Run};
use crate::corpus::{self, Job, Kind, Rng};
use crate::report::{median, us, Metrics, Tally};
use crate::serve::{Daemon, OpenLoop};
use crate::trace::Tracer;
use crate::{fail, run_workload, work_dir, Context, Served, SMALL_RATE};

/// Crossover sweep of `Sequential` against `Wavefront`.
const SWEEP: [usize; 11] = [64, 96, 128, 192, 256, 320, 384, 448, 512, 640, 768];

/// The p90 limit `serve.max_ok_rate` holds the daemon to, and the rates
/// it tries.
const LAT_LIMIT_MS: f64 = 2.0;
const RATES: [f64; 4] = [1000.0, 2000.0, 4000.0, 8000.0];

/// Length of each short daemon run of the probes.
const PROBE_SECONDS: f64 = 1.5;

pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    jobs: &[Job],
    ctx: &mut Context,
) -> (Tally, Metrics) {
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let mut tr = Tracer::new(true);

    // The harness's own cost: the same workload untraced, then traced.
    let mut discard = Context { fields: Vec::new() };
    let (t_off, m_off, _) = run_workload(
        workload,
        seconds / 2.0,
        jobs,
        &mut Tracer::new(false),
        &mut discard,
    );
    let (t_on, m_on, stats) = tr.span("harness.workload", 0, |tr| {
        run_workload(workload, seconds / 2.0, jobs, tr, &mut discard)
    });
    tally.merge(t_off);
    tally.merge(t_on);
    // Time per answer: the inverse throughput of a closed loop, the
    // median latency of an open one (whose throughput is its rate).
    let cost = |m: &Metrics| match stats {
        Some(_) => m.get("lat_p50_ms").expect("reported"),
        None => 1.0 / m.get("ok_per_s").expect("reported"),
    };
    let trace_overhead = cost(&m_on) / cost(&m_off) - 1.0;

    let wave = tr.span("probe.kernel", 0, |tr| {
        kernel_and_solver(seed, tr, &mut tally, &mut m)
    });
    tr.span("probe.exec", 0, |tr| exec(wave, tr, &mut m));
    tr.span("probe.facade", 0, |tr| facade(seed, tr, &mut tally, &mut m));
    tr.span("probe.batch", 0, |tr| batch(seed, tr, &mut tally, &mut m));
    tr.span("probe.spec_store", 0, |tr| {
        spec_and_store(seed, tr, &mut tally, &mut m)
    });
    tr.span("probe.serve", 0, |tr| {
        serve(seed, stats, tr, &mut tally, &mut m)
    });
    m.add("trace.overhead_share", trace_overhead, "share");

    write_spans(workload, seed, &tr, ctx);
    (tally, m)
}

fn check(ok: bool, tally: &mut Tally) {
    tally.attempted += 1;
    if !ok {
        tally.failed += 1;
        tally.wrong += 1;
    }
}

/// Seconds of the fastest of `reps` calls of `f` inside spans `name`.
fn best_of<T>(
    tr: &mut Tracer,
    name: &'static str,
    req: u64,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let s = tr.begin(name, req);
        let t = Instant::now();
        let v = f();
        best = best.min(t.elapsed().as_secs_f64());
        tr.end(s);
        out = Some(v);
    }
    (best, out.expect("at least one repetition"))
}

/// `seq` and `wavefront` through their direct entry points across the
/// crossover sweep. Returns the wavefront's wall seconds and parallel
/// regions over the sizes from 256 up.
fn kernel_and_solver(seed: u64, tr: &mut Tracer, tally: &mut Tally, m: &mut Metrics) -> (f64, u64) {
    let mut rng = Rng::new(seed, "sweep");
    let specs: Vec<ProblemSpec> = SWEEP
        .iter()
        .map(|&n| corpus::instance("chain", n, &mut rng))
        .collect();
    let expects = corpus::oracle_all(&specs.iter().collect::<Vec<_>>());
    let mut times = Vec::new();
    for (spec, expect) in specs.iter().zip(&expects) {
        let p = spec.build();
        let n = spec.n() as u64;
        let reps = if n <= 448 { 3 } else { 1 };
        let (seq, w) = best_of(tr, "seq.solve_sequential", n, reps, || {
            pardp_core::seq::solve_sequential(&p)
        });
        check(matches(&w, expect), tally);
        let (wave, w) = best_of(tr, "wavefront.solve_wavefront_default", n, reps, || {
            pardp_core::wavefront::solve_wavefront_default(&p)
        });
        check(matches(&w, expect), tally);
        times.push((spec.n(), seq, wave));
    }
    let big: Vec<_> = times.iter().filter(|t| t.0 >= 256).collect();
    let cand: u64 = big.iter().map(|t| sequential_work(t.0)).sum();
    let seq: f64 = big.iter().map(|t| t.1).sum();
    let wave: f64 = big.iter().map(|t| t.2).sum();
    m.add("kernel.ns_per_cand.seq", seq * 1e9 / cand as f64, "ns");
    m.add(
        "kernel.ns_per_cand.wavefront",
        wave * 1e9 / cand as f64,
        "ns",
    );
    m.add("solver.wavefront_speedup", seq / wave, "ratio");
    // The first size from which the wavefront wins at every larger size;
    // twice the largest size when it never does.
    let mut crossover = 2 * SWEEP[SWEEP.len() - 1];
    for t in times.iter().rev() {
        if t.2 >= t.1 {
            break;
        }
        crossover = t.0;
    }
    m.add("solver.crossover_n", crossover as f64, "n");
    (wave, big.iter().map(|t| regions(t.0)).sum())
}

/// Parallel regions one default wavefront solve of size `n` dispatches:
/// one per anti-diagonal with at least `parallel_threshold` candidates.
fn regions(n: usize) -> u64 {
    let threshold = WavefrontConfig::default().parallel_threshold;
    (2..=n)
        .filter(|&d| (n - d + 1) * (d - 1) >= threshold)
        .count() as u64
}

/// One `ExecBackend::Parallel.map_collect` dispatch and join, and its
/// share of the sweep's wavefront wall time.
fn exec((wave, regions): (f64, u64), tr: &mut Tracer, m: &mut Metrics) {
    let backend = ExecBackend::Parallel;
    let len = 4 * backend.effective_threads();
    let mut walls = Vec::new();
    for i in 0..2000 {
        let s = tr.begin("exec.map_collect", i);
        let t = Instant::now();
        std::hint::black_box(backend.map_collect(len, std::hint::black_box(|i: usize| i)));
        walls.push(us(t.elapsed()));
        tr.end(s);
    }
    let region_us = median(&walls);
    m.add("exec.region_us", region_us, "us");
    m.add(
        "exec.region_share",
        regions as f64 * region_us * 1e-6 / wave,
        "share",
    );
}

/// `Solver::solve` against the direct entry point on the small jobs the
/// daemon serves.
fn facade(seed: u64, tr: &mut Tracer, tally: &mut Tally, m: &mut Metrics) {
    let plan: corpus::Plan = corpus::serve_small(seed)
        .into_iter()
        .filter(|(_, a)| *a == Algorithm::Sequential)
        .take(64)
        .collect();
    let jobs = corpus::with_oracle(plan);
    let solver = Solver::new(Algorithm::Sequential)
        .options(SolveOptions::default().exec(ExecBackend::Sequential));
    let mut diffs = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let p = job.spec.build();
        let (mut direct, mut facade) = (Vec::new(), Vec::new());
        for _ in 0..15 {
            let s = tr.begin("seq.solve_sequential", i as u64);
            let t = Instant::now();
            let w = pardp_core::seq::solve_sequential(&p);
            direct.push(us(t.elapsed()));
            tr.end(s);
            let s = tr.begin("solver.solve", i as u64);
            let t = Instant::now();
            let sol = solver.solve(&p);
            facade.push(us(t.elapsed()));
            tr.end(s);
            check(
                matches(&w, &job.expect) && matches(&sol.w, &job.expect),
                tally,
            );
        }
        diffs.push(median(&facade) - median(&direct));
    }
    m.add("facade.overhead_us", median(&diffs), "us");
}

/// `BatchSolver::solve_batch` over the `batch_paper` corpus, then every
/// job again through its direct entry point, which must report the same
/// exact counts.
fn batch(seed: u64, tr: &mut Tracer, tally: &mut Tally, m: &mut Metrics) {
    let jobs = corpus::with_oracle(corpus::batch_paper(seed));
    let b = Batch::setup(&jobs);
    let mut run = Run::default();
    let (report, counts) = b.pass(&mut run, tr);
    tally.merge(run.tally);
    let workers = BatchSolver::new().backend().effective_threads() as f64;
    let wall = report.wall.as_secs_f64();
    let job_wall = |large: bool| -> f64 {
        report
            .results
            .iter()
            .filter(|r| r.large == large)
            .map(|r| r.wall().as_secs_f64())
            .sum()
    };
    m.add("kernel.candidates", counts.candidates as f64, "count");
    m.add("kernel.writes", counts.writes as f64, "count");
    m.add("solver.iterations", counts.iterations as f64, "count");
    m.add("batch.small_jobs", counts.small_jobs as f64, "count");
    m.add("batch.large_jobs", counts.large_jobs as f64, "count");
    m.add("batch.large_share", job_wall(true) / wall, "share");
    m.add(
        "batch.busy_share",
        (job_wall(true) + job_wall(false)) / (workers * wall),
        "share",
    );

    // Direct entry points: small jobs single-threaded (their kernel cost
    // per candidate), large ones on the pool, as the batch runs them.
    let (mut sub, mut red) = ((0.0, 0u64), (0.0, 0u64));
    let mut bytes = 0u64;
    for (i, (job, r)) in jobs.iter().zip(&report.results).enumerate() {
        let p = job.spec.build();
        let exec = if r.large {
            ExecBackend::Parallel
        } else {
            ExecBackend::Sequential
        };
        let opts = paper_options().exec(exec);
        let n = job.spec.n();
        let (secs, sol, pw_cells) = if job.algo == Algorithm::Sublinear {
            let (t, s) = best_of(tr, "sublinear.solve_sublinear", i as u64, 1, || {
                pardp_core::sublinear::solve_sublinear(&p, &opts.sublinear_config())
            });
            let pairs = PairIndexer::new(n).len() as u64;
            (t, s, pairs * pairs)
        } else {
            let (t, s) = best_of(tr, "reduced.solve_reduced", i as u64, 1, || {
                pardp_core::reduced::solve_reduced(&p, &opts.reduced_config())
            });
            (
                t,
                s,
                BandedPw::<u64>::new(n, default_band(n)).stored_cells() as u64,
            )
        };
        check(matches(&sol.w, &job.expect), tally);
        let same = (sol.stats.candidates, sol.stats.writes, sol.trace.iterations)
            == (
                r.solution.stats.candidates,
                r.solution.stats.writes,
                r.solution.trace.iterations,
            );
        if !same {
            fail(&format!(
                "job {i}: the direct entry point and BatchSolver report different exact counts"
            ));
        }
        if !r.large {
            let acc = if job.algo == Algorithm::Sublinear {
                &mut sub
            } else {
                &mut red
            };
            acc.0 += secs;
            acc.1 += sol.stats.candidates;
        }
        // Bytes computed from table sizes: the w table and the pw table,
        // once per iteration. Not measured.
        bytes += sol.trace.iterations * 8 * ((n as u64 + 1).pow(2) + pw_cells);
    }
    m.add(
        "kernel.ns_per_cand.sublinear",
        sub.0 * 1e9 / sub.1 as f64,
        "ns",
    );
    m.add(
        "kernel.ns_per_cand.reduced",
        red.0 * 1e9 / red.1 as f64,
        "ns",
    );
    m.add("kernel.bytes_computed", bytes as f64, "bytes");
    m.add(
        "kernel.cand_per_byte",
        counts.candidates as f64 / bytes as f64,
        "cand/byte",
    );
}

/// `JobSpec` parsing and resolution, `JobRecord` building, and the
/// `FileStore` calls a cached daemon makes per job.
fn spec_and_store(seed: u64, tr: &mut Tracer, tally: &mut Tally, m: &mut Metrics) {
    let (plan, _) = corpus::serve_store(seed, 0);
    let jobs = corpus::with_oracle(plan);
    let base = ServeConfig::default().options;
    let dir = work_dir().join("probe-store");
    let store =
        FileStore::open(&dir).unwrap_or_else(|e| fail(&format!("cannot open a probe store: {e}")));
    let (mut parse, mut record, mut key, mut put, mut get) =
        (vec![], vec![], vec![], vec![], vec![]);
    for (i, job) in jobs.iter().enumerate() {
        let req = i as u64;
        let line = job.line();
        let t = Instant::now();
        let resolved = tr.span("spec.parse", req, |_| {
            serde_json::from_str::<JobSpec>(&line)
                .expect("the request line parses")
                .resolve(Algorithm::Sublinear, base)
                .expect("the request resolves")
        });
        parse.push(us(t.elapsed()));
        let opts = resolved.options.exec(ExecBackend::Sequential);
        let sol = Solver::new(resolved.algorithm)
            .options(opts)
            .solve(&resolved.problem.build());
        check(matches(&sol.w, &job.expect), tally);
        let t = Instant::now();
        let line = tr.span("spec.record", req, |_| {
            serde_json::to_string(&JobRecord::of_solution(i, job.spec.family(), &sol, false))
                .expect("a record serializes")
        });
        record.push(us(t.elapsed()));
        std::hint::black_box(line);
        let t = Instant::now();
        let k = tr.span("store.key", req, |_| {
            ProblemKey::derive(&resolved.problem, resolved.algorithm, &opts)
        });
        key.push(us(t.elapsed()));
        let k = k.expect("sequential and wavefront jobs are cacheable");
        let cached = CachedSolution::of_solution(job.spec.family(), &sol);
        let t = Instant::now();
        tr.span("store.put", req, |_| store.try_put(k, cached))
            .unwrap_or_else(|e| fail(&format!("probe store put failed: {e}")));
        put.push(us(t.elapsed()));
        let t = Instant::now();
        let hit = tr.span("store.get", req, |_| store.try_get(k));
        get.push(us(t.elapsed()));
        let hit = hit.ok().flatten().and_then(|c| c.to_table().ok());
        check(hit.is_some_and(|w| matches(&w, &job.expect)), tally);
    }
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
    m.add("spec.parse_us", median(&parse), "us");
    m.add("spec.record_us", median(&record), "us");
    m.add("store.key_us", median(&key), "us");
    m.add("store.get_us", median(&get), "us");
    m.add("store.put_us", median(&put), "us");
}

/// One short open-loop daemon run over the `serve_small` pool.
fn short_run(
    pool: &[Job],
    config: ServeConfig,
    rate: f64,
    tr: &mut Tracer,
) -> (OpenLoop, ServeStats) {
    let mut d = Daemon::start(config, None, &[&pool[0]]);
    let n = (rate * PROBE_SECONDS) as usize;
    let sent: Vec<&Job> = (0..n).map(|i| &pool[i % pool.len()]).collect();
    let run = d.open_loop(&sent, rate, tr);
    (run, d.stop())
}

/// The daemon: fixed cost per job, rate limit, telemetry cost, and the
/// exact cache shares of a fixed `serve_store` corpus.
fn serve(seed: u64, workload: Option<Served>, tr: &mut Tracer, tally: &mut Tally, m: &mut Metrics) {
    let pool = corpus::with_oracle(corpus::serve_small(seed));

    // Fixed cost: the daemon's median latency minus the median in-process
    // solve of the same jobs under the same options.
    let (run, stats) = short_run(&pool, ServeConfig::default(), SMALL_RATE, tr);
    tally.merge(run.tally);
    let opts = ServeConfig::default().options.exec(ExecBackend::Sequential);
    let solves: Vec<f64> = pool
        .iter()
        .enumerate()
        .map(|(i, job)| {
            let p = job.spec.build();
            let s = tr.begin("solver.solve", i as u64);
            let t = Instant::now();
            let sol = Solver::new(job.algo).options(opts).solve(&p);
            let dt = us(t.elapsed());
            tr.end(s);
            check(matches(&sol.w, &job.expect), tally);
            dt
        })
        .collect();
    m.add(
        "serve.fixed_cost_us",
        run.lat_ms(0.5) * 1e3 - median(&solves),
        "us",
    );
    // Queue, overload and tail figures come from the traced workload's
    // own daemon when it ran one, else from this run.
    let served = workload.unwrap_or(Served {
        p99_ms: run.lat_ms(0.99),
        late_ms: run.gen_late_ms(0.99),
        stats,
    });
    m.add(
        "serve.server_p50_us",
        served.stats.latency_p50_us as f64,
        "us",
    );
    m.add(
        "serve.queue_high_watermark",
        served.stats.queue_high_watermark as f64,
        "count",
    );
    m.add(
        "serve.overloaded",
        served.stats.errors_overloaded as f64,
        "count",
    );
    m.add("serve.lat_p99_ms", served.p99_ms, "ms");
    m.add("serve.gen_late_ms", served.late_ms, "ms");

    // The highest fixed rate whose p90 meets the limit with no backlog.
    // Refusals are expected above the knee; wrong answers never are.
    let mut max_ok = 0.0;
    for rate in RATES {
        let (run, _) = short_run(&pool, ServeConfig::default(), rate, tr);
        check(run.tally.wrong == 0, tally);
        if run.kept_up() && run.lat_ms(0.9) <= LAT_LIMIT_MS {
            max_ok = rate;
        }
    }
    m.add("serve.max_ok_rate", max_ok, "1/s");

    // Telemetry on (events written to io::sink) against off, alternating.
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        let (run, _) = short_run(&pool, ServeConfig::default(), SMALL_RATE, tr);
        tally.merge(run.tally);
        off.push(run.lat_ms(0.5));
        let sink = Arc::new(WriterSink::new(Box::new(std::io::sink())));
        let config = ServeConfig {
            telemetry: Some(Arc::new(Telemetry::new(sink))),
            ..ServeConfig::default()
        };
        let (run, _) = short_run(&pool, config, SMALL_RATE, tr);
        tally.merge(run.tally);
        on.push(run.lat_ms(0.5));
    }
    m.add(
        "telemetry.overhead_share",
        median(&on) / median(&off) - 1.0,
        "share",
    );

    // Exact cache shares of a fixed corpus, checked against the counts
    // the corpus fixes.
    const STORE_REQUESTS: usize = 1000;
    let (plan, requests) = corpus::serve_store(seed, STORE_REQUESTS);
    let jobs = corpus::with_oracle(plan);
    let hot: Vec<&Job> = jobs[..corpus::HOT_SET].iter().collect();
    let mut d = Daemon::start(
        ServeConfig::default(),
        Some(work_dir().join("probe-serve-store")),
        &hot,
    );
    let sent: Vec<&Job> = requests.iter().map(|&(i, _)| &jobs[i]).collect();
    let run = d.open_loop(&sent, 500.0, tr);
    tally.merge(run.tally);
    let stats = d.stop();
    check_store_counts(&requests, &stats);
    m.add(
        "store.hit_share",
        stats.cache_hits as f64 / STORE_REQUESTS as f64,
        "share",
    );
    m.add(
        "store.warm_share",
        stats.warm_starts as f64 / STORE_REQUESTS as f64,
        "share",
    );
}

/// The daemon's cache counters must be the ones the corpus fixes: a hit
/// per hot read, a warm start per extension, a miss per other key.
fn check_store_counts(requests: &[(usize, Kind)], stats: &ServeStats) {
    let [hot, fresh, extend] = kinds(requests).map(|k| k as u64);
    let want = (hot, corpus::HOT_SET as u64 + fresh + extend, extend);
    let got = (stats.cache_hits, stats.cache_misses, stats.warm_starts);
    if got != want {
        fail(&format!(
            "serve_store cache counts (hits, misses, warm starts) are {got:?}, the corpus fixes {want:?}"
        ));
    }
}

fn kinds(requests: &[(usize, Kind)]) -> [usize; 3] {
    let mut k = [0; 3];
    for &(_, kind) in requests {
        k[kind as usize] += 1;
    }
    k
}

/// Write every span to the build directory and a per-name summary to
/// standard error.
fn write_spans(workload: &str, seed: u64, tr: &Tracer, ctx: &mut Context) {
    let dir = work_dir()
        .parent()
        .expect("the work dir has a parent")
        .join("traces");
    let path = dir.join(format!("{workload}-{seed}.jsonl"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut out = std::io::BufWriter::new(f);
            tr.write(&mut out)?;
            out.flush()
        });
    if let Err(e) = written {
        fail(&format!("cannot write spans to {}: {e}", path.display()));
    }
    ctx.put("spans", format!("{:?}", path.display().to_string()));
    eprintln!(
        "{:<36} {:>8} {:>12} {:>12}",
        "span", "count", "wall_ms", "self_ms"
    );
    for (name, t) in tr.totals() {
        eprintln!(
            "{name:<36} {:>8} {:>12.3} {:>12.3}",
            t.count,
            t.wall.as_secs_f64() * 1e3,
            t.self_time.as_secs_f64() * 1e3
        );
    }
}
