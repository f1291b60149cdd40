//! The closed-loop workload `batch_paper`: the whole corpus handed to
//! `BatchSolver`, in whole passes, so every run measures the same mix of
//! sizes.
//!
//! Timings are best of the passes. On a shared host the neighbours slow
//! whole seconds at a time by up to half again; a pass mean or median
//! moved by 20% between runs of one build, the best pass less.

use std::time::{Duration, Instant};

use pardp_core::prelude::*;
use pardp_core::spec::{table_hash, SpecProblem};

use crate::corpus::{Expect, Job};
use crate::report::Tally;
use crate::trace::Tracer;

/// What one timed run measured.
#[derive(Default)]
pub struct Run {
    pub tally: Tally,
    /// Answers (right or wrong) per second of measured calls.
    pub answers_per_s: f64,
    /// One latency per job: its best time over the passes, or `None`
    /// when any of its answers was missing or wrong.
    pub latencies: Vec<Option<Duration>>,
    /// Wall time of all passes.
    pub wall: Duration,
    /// Every time of every job, per pass, in job order.
    times: Vec<Vec<Duration>>,
    failed_jobs: Vec<bool>,
}

impl Run {
    fn answer(&mut self, job: usize, time: Duration, ok: bool) {
        if self.times.len() <= job {
            self.times.resize(job + 1, Vec::new());
            self.failed_jobs.resize(job + 1, false);
        }
        self.times[job].push(time);
        self.tally.attempted += 1;
        if !ok {
            self.tally.failed += 1;
            self.tally.wrong += 1;
            self.failed_jobs[job] = true;
        }
    }

    /// Per-job best times into `latencies`.
    fn finish(&mut self) {
        self.latencies = self
            .times
            .iter()
            .zip(&self.failed_jobs)
            .map(|(t, &failed)| {
                if failed {
                    None
                } else {
                    t.iter().min().copied()
                }
            })
            .collect();
    }
}

/// Whether `w` is the oracle's table.
pub fn matches(w: &WTable<u64>, expect: &Expect) -> bool {
    w.root() == expect.value && table_hash(w) == expect.hash
}

/// Passes to run after the first one took `first`, so the run lasts
/// about `seconds` (at least one pass).
fn passes(first: Duration, seconds: f64) -> usize {
    ((seconds / first.as_secs_f64()).round() as usize).max(1)
}

/// Exact counts of one batch pass; every pass must repeat them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchCounts {
    pub candidates: u64,
    pub writes: u64,
    pub iterations: u64,
    pub small_jobs: usize,
    pub large_jobs: usize,
}

/// The options every `batch_paper` job runs with: the fixpoint stop
/// `pardp batch` sets for every job.
pub fn paper_options() -> SolveOptions {
    SolveOptions::default().termination(Termination::Fixpoint)
}

pub struct Batch<'a> {
    jobs: &'a [Job],
    problems: Vec<SpecProblem>,
    solver: BatchSolver,
}

impl<'a> Batch<'a> {
    /// Build every instance and run a warm-up batch of the four smallest
    /// jobs (the first set-up also starts the thread pool).
    pub fn setup(jobs: &'a [Job]) -> Batch<'a> {
        let problems: Vec<SpecProblem> = jobs.iter().map(|j| j.spec.build()).collect();
        let solver = BatchSolver::new();
        let mut by_size: Vec<usize> = (0..jobs.len()).collect();
        by_size.sort_by_key(|&i| jobs[i].spec.n());
        let warm: Vec<BatchJob<'_, u64>> = by_size[..4]
            .iter()
            .map(|&i| {
                BatchJob::new(&problems[i])
                    .algorithm(jobs[i].algo)
                    .options(paper_options())
            })
            .collect();
        let report = solver.solve_batch(&warm);
        for (r, &i) in report.results.iter().zip(&by_size) {
            assert!(
                matches(&r.solution.w, &jobs[i].expect),
                "warm-up answer is wrong"
            );
        }
        Batch {
            jobs,
            problems,
            solver,
        }
    }

    pub fn batch_jobs(&self) -> Vec<BatchJob<'_, u64>> {
        self.jobs
            .iter()
            .zip(&self.problems)
            .map(|(j, p)| BatchJob::new(p).algorithm(j.algo).options(paper_options()))
            .collect()
    }

    /// One `solve_batch` over the corpus, checked against the oracle.
    pub fn pass(&self, run: &mut Run, tr: &mut Tracer) -> (BatchReport<u64>, BatchCounts) {
        let jobs = self.batch_jobs();
        let span = tr.begin("batch.solve_batch", 0);
        let report = self.solver.solve_batch(&jobs);
        tr.end(span);
        let mut counts = BatchCounts {
            candidates: 0,
            writes: 0,
            iterations: 0,
            small_jobs: report.small_jobs,
            large_jobs: report.large_jobs,
        };
        for (i, (r, job)) in report.results.iter().zip(self.jobs).enumerate() {
            counts.candidates += r.solution.stats.candidates;
            counts.writes += r.solution.stats.writes;
            counts.iterations += r.solution.trace.iterations;
            run.answer(i, r.wall(), matches(&r.solution.w, &job.expect));
        }
        (report, counts)
    }

    /// Whole passes for about `seconds`; every pass must report the
    /// same exact counts. Throughput is over the best pass; a job's
    /// latency is its own best wall inside the batch.
    pub fn run(&self, seconds: f64, tr: &mut Tracer) -> (Run, BatchCounts) {
        let mut run = Run::default();
        let t = Instant::now();
        let (report, first) = self.pass(&mut run, tr);
        let mut walls = vec![report.wall];
        for _ in 1..passes(report.wall, seconds) {
            let (report, counts) = self.pass(&mut run, tr);
            if counts != first {
                crate::fail(&format!(
                    "batch_paper exact counts changed between passes of one seed: {first:?} then {counts:?}"
                ));
            }
            walls.push(report.wall);
        }
        run.wall = t.elapsed();
        run.finish();
        let best = walls.iter().min().expect("at least one pass");
        run.answers_per_s = self.jobs.len() as f64 / best.as_secs_f64();
        (run, first)
    }
}
