//! The baseline of Rytter \[8\]: `O(log^2 n)` time, `O(n^6 / log n)`
//! processors.
//!
//! Same tables, same `a-activate` and `a-pebble`; the difference is the
//! square, which composes partial trees through **every** intermediate gap
//! (a full masked min-plus matrix square) instead of only endpoint-sharing
//! gaps. Pointer doubling over full compositions pebbles any optimal tree
//! in `O(log n)` moves, so the iteration count drops from `2*ceil(sqrt n)`
//! to logarithmic — at the price of `Theta(n^6)` work per iteration, the
//! gap the paper's restricted square closes to `O(n^5)` (§2) and §5
//! further to `O(n^3.5)`.

use crate::exec::ExecBackend;
use crate::fault::CancelToken;
use crate::ops::{a_activate_dense, a_pebble_dense, a_square_rytter_with, OpStats, SquareStrategy};
use crate::problem::DpProblem;
use crate::solver::{Algorithm, Solution};
use crate::tables::{DensePw, WTable};
use crate::trace::{time_op, IterationRecord, OpRecord, SolveTrace, StopReason};
use crate::weight::Weight;

/// Configuration of [`solve_rytter`].
#[derive(Debug, Clone, Copy)]
pub struct RytterConfig {
    /// Execution backend for the data-parallel passes.
    pub exec: ExecBackend,
    /// Keep per-iteration records.
    pub record_trace: bool,
    /// Stop early at a fixpoint (on by default; the schedule cap is the
    /// logarithmic bound below).
    pub fixpoint_stop: bool,
    /// Kernel of the full-composition square (same tables either way;
    /// see [`SquareStrategy`]).
    pub square: SquareStrategy,
}

impl Default for RytterConfig {
    fn default() -> Self {
        RytterConfig {
            exec: ExecBackend::Parallel,
            record_trace: false,
            fixpoint_stop: true,
            square: SquareStrategy::Auto,
        }
    }
}

/// The iteration bound for the doubling argument: `2*ceil(log2 n) + 4`
/// moves always reach the fixpoint (tests verify convergence well below
/// this; the constant is generous because activations feed in level by
/// level).
pub fn rytter_schedule(n: usize) -> u64 {
    2 * (usize::BITS - n.next_power_of_two().leading_zeros()) as u64 + 4
}

/// Solve recurrence (*) with Rytter's full-composition algorithm \[8\].
pub fn solve_rytter<W: Weight, P: DpProblem<W> + ?Sized>(
    problem: &P,
    config: &RytterConfig,
) -> Solution<W> {
    solve_rytter_cancel(problem, config, CancelToken::NONE)
}

/// Cancellable Rytter solve for the façade: `cancel` is checked once
/// per iteration, and an expired deadline stops the run with
/// [`StopReason::DeadlineExceeded`] and a partial table.
pub(crate) fn solve_rytter_cancel<W: Weight, P: DpProblem<W> + ?Sized>(
    problem: &P,
    config: &RytterConfig,
    cancel: CancelToken,
) -> Solution<W> {
    let t0 = std::time::Instant::now();
    let n = problem.n();
    let exec = &config.exec;
    let schedule = rytter_schedule(n);

    let mut w = WTable::new(n);
    for i in 0..n {
        w.set(i, i + 1, problem.init(i));
    }
    let mut pw = DensePw::new(n);
    let mut pw_next = DensePw::new(n);
    let mut w_next = w.clone();

    let mut trace = SolveTrace {
        n,
        iterations: 0,
        schedule_bound: schedule,
        stop: StopReason::ScheduleExhausted,
        total_candidates: 0,
        per_iteration: Vec::new(),
    };
    let mut stats = OpStats::default();

    for iter in 1..=schedule {
        if cancel.is_cancelled() {
            trace.stop = StopReason::DeadlineExceeded;
            break;
        }
        let timed = config.record_trace;
        let (act, act_ns) = time_op(timed, || a_activate_dense(problem, &w, &mut pw, exec));
        let (sq, sq_ns) = time_op(timed, || {
            a_square_rytter_with(&pw, &mut pw_next, config.square, exec)
        });
        std::mem::swap(&mut pw, &mut pw_next);
        let (pb, pb_ns) = time_op(timed, || a_pebble_dense(&pw, &w, &mut w_next, exec));
        std::mem::swap(&mut w, &mut w_next);

        trace.iterations = iter;
        trace.total_candidates += act.candidates + sq.candidates + pb.candidates;
        stats = stats.merge(act).merge(sq).merge(pb);
        if config.record_trace {
            trace.per_iteration.push(IterationRecord {
                iteration: iter,
                activate: OpRecord::timed(act, act_ns),
                square: OpRecord::timed(sq, sq_ns),
                pebble: OpRecord::timed(pb, pb_ns),
                root_finite: w.root().is_finite_cost(),
            });
        }
        if config.fixpoint_stop && !act.changed && !sq.changed && !pb.changed {
            trace.stop = StopReason::Fixpoint;
            break;
        }
    }

    Solution {
        algorithm: Algorithm::Rytter,
        w,
        trace,
        stats,
        wall: t0.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::FnProblem;
    use crate::seq::solve_sequential;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn chain(dims: Vec<u64>) -> impl DpProblem<u64> {
        let n = dims.len() - 1;
        FnProblem::new(n, |_| 0u64, move |i, k, j| dims[i] * dims[k] * dims[j])
    }

    fn cfg() -> RytterConfig {
        RytterConfig {
            exec: ExecBackend::Sequential,
            record_trace: true,
            fixpoint_stop: true,
            square: SquareStrategy::Auto,
        }
    }

    #[test]
    fn naive_square_strategy_matches_streamed() {
        let mut rng = SmallRng::seed_from_u64(99);
        let dims: Vec<u64> = (0..=13).map(|_| rng.gen_range(1..40)).collect();
        let p = chain(dims);
        let streamed = solve_rytter(&p, &cfg());
        let naive = solve_rytter(
            &p,
            &RytterConfig {
                square: SquareStrategy::Naive,
                ..cfg()
            },
        );
        assert!(streamed.w.table_eq(&naive.w));
        assert_eq!(streamed.trace.iterations, naive.trace.iterations);
        assert_eq!(
            streamed.trace.total_candidates,
            naive.trace.total_candidates
        );
    }

    #[test]
    fn rytter_solves_clrs_chain() {
        let p = chain(vec![30, 35, 15, 5, 10, 20, 25]);
        let sol = solve_rytter(&p, &cfg());
        assert_eq!(sol.value(), 15125);
        assert!(sol.w.table_eq(&solve_sequential(&p)));
    }

    #[test]
    fn rytter_matches_oracle_and_converges_logarithmically() {
        let mut rng = SmallRng::seed_from_u64(2025);
        for n in [2usize, 4, 8, 12, 17, 24] {
            let dims: Vec<u64> = (0..=n).map(|_| rng.gen_range(1..50)).collect();
            let p = chain(dims);
            let oracle = solve_sequential(&p);
            let sol = solve_rytter(&p, &cfg());
            assert!(sol.w.table_eq(&oracle), "n={n}");
            let log = (n as f64).log2().ceil() as u64;
            assert!(
                sol.trace.iterations <= 2 * log + 4,
                "n={n}: {} iterations > 2 log + 4",
                sol.trace.iterations
            );
        }
    }

    #[test]
    fn rytter_work_dwarfs_everything() {
        use crate::sublinear::{solve_sublinear, SolverConfig};
        use crate::trace::Termination;
        let mut rng = SmallRng::seed_from_u64(3);
        let dims: Vec<u64> = (0..=20).map(|_| rng.gen_range(1..30)).collect();
        let p = chain(dims);
        let ryt = solve_rytter(&p, &cfg());
        let sub = solve_sublinear(
            &p,
            &SolverConfig {
                exec: ExecBackend::Sequential,
                termination: Termination::FixedSqrtN,
                record_trace: true,
                ..Default::default()
            },
        );
        // Even though Rytter runs fewer iterations, its per-iteration work
        // is far larger — the processor gap the paper closes.
        assert!(ryt.trace.iterations < sub.trace.iterations);
        let ryt_per_iter = ryt.trace.total_candidates / ryt.trace.iterations;
        let sub_per_iter = sub.trace.total_candidates / sub.trace.iterations;
        assert!(
            ryt_per_iter > 2 * sub_per_iter,
            "rytter {ryt_per_iter}/iter vs sublinear {sub_per_iter}/iter"
        );
    }

    #[test]
    fn parallel_equals_sequential_rytter() {
        let mut rng = SmallRng::seed_from_u64(6);
        let dims: Vec<u64> = (0..=14).map(|_| rng.gen_range(1..30)).collect();
        let p = chain(dims);
        let seq = solve_rytter(&p, &cfg());
        let par = solve_rytter(
            &p,
            &RytterConfig {
                exec: ExecBackend::Parallel,
                ..cfg()
            },
        );
        assert!(seq.w.table_eq(&par.w));
    }
}
