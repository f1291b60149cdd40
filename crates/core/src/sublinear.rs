//! The sublinear algorithm of §2: `2 * ceil(sqrt(n))` iterations of
//! (`a-activate`, `a-square`, `a-pebble`) over dense tables.
//!
//! ```text
//! Initialize w'(i, i+1) = init(i),          0 <= i < n;
//! Initialize pw'(i, j, i, j) = 0,           0 <= i < j <= n;
//! repeat 2*ceil(sqrt(n)) times begin
//!     a-activate; a-square; a-pebble;
//! end.
//! ```
//!
//! On a CREW PRAM this runs in `O(sqrt(n) log n)` time with
//! `O(n^5 / log n)` processors (§4). Here each operation is executed as a
//! data-parallel pass on the configured [`ExecBackend`] (sequential
//! reference or the work-stealing thread pool); the PRAM costs are
//! recorded separately by [`crate::pram_exec`].
//!
//! **Release note:** the historical `ExecMode` name is deprecated; name
//! [`ExecBackend`] directly. Removal timeline: the prelude re-export was
//! removed in this release (it had carried `#[deprecated]` for one
//! release), and this module's [`ExecMode`] alias — `#[deprecated]`
//! since 0.1.0 — is removed in the next minor release. Migrate with a
//! textual rename; the variants and semantics are identical.

use crate::fault::CancelToken;
use crate::ops::{
    a_activate_dense_tracked, a_pebble_dense_scheduled, a_square_dense_scheduled, OpStats,
};
use crate::problem::DpProblem;
use crate::solver::Algorithm;
use crate::tables::{DensePw, WTable};
use crate::trace::{time_op, IterationRecord, OpRecord, SolveTrace, StopReason, Termination};
use crate::weight::Weight;

pub use crate::exec::ExecBackend;
pub use crate::ops::SquareStrategy;
pub use crate::solver::Solution;

/// Execution mode for the data-parallel passes — the historical name for
/// [`ExecBackend`], kept only so downstream code compiles while it
/// migrates. Same variants, same semantics; new code should name
/// `ExecBackend` directly.
#[deprecated(
    since = "0.1.0",
    note = "use `ExecBackend` (the alias predates the pluggable backend API)"
)]
pub type ExecMode = ExecBackend;

/// Configuration of [`solve_sublinear`].
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    /// Execution backend for the data-parallel passes.
    pub exec: ExecBackend,
    /// Stopping rule (all rules are capped at `2 * ceil(sqrt(n))`, which
    /// Lemma 3.3 proves sufficient, so every configuration is exact).
    pub termination: Termination,
    /// Keep per-iteration records in the trace.
    pub record_trace: bool,
    /// Candidate-enumeration kernel of the dense `a-square` — the
    /// `O(n^5)` hot path. All strategies produce bit-identical tables;
    /// see [`SquareStrategy`].
    pub square: SquareStrategy,
    /// Convergence-aware scheduling: skip `a-square` rows none of whose
    /// input rows changed in the previous iteration, and `a-pebble` pairs
    /// none of whose inputs (their `pw'` row or a nested pair's `w'`)
    /// changed — both are copied forward and report zero candidates.
    /// Exact under every termination rule: square and pebble are
    /// deterministic monotone functions of their inputs, so a clean
    /// row's/pair's recomputation would reproduce its previous output.
    /// The §5 reduced solver has the same knob in
    /// [`crate::reduced::ReducedConfig`], where the pebble bookkeeping
    /// additionally persists across the size window.
    pub skip_clean_rows: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            exec: ExecBackend::Parallel,
            termination: Termination::FixedSqrtN,
            record_trace: false,
            square: SquareStrategy::Auto,
            skip_clean_rows: true,
        }
    }
}

/// Solve recurrence (*) with the paper's sublinear algorithm (§2, dense
/// `O(n^4)`-memory tables).
pub fn solve_sublinear<W: Weight, P: DpProblem<W> + ?Sized>(
    problem: &P,
    config: &SolverConfig,
) -> Solution<W> {
    solve_seeded(problem, config, None, CancelToken::NONE)
}

/// Cancellable §2 solve for the façade: `cancel` is checked once per
/// iteration, and an expired deadline stops the run with
/// [`StopReason::DeadlineExceeded`] and a partial table.
pub(crate) fn solve_sublinear_cancel<W: Weight, P: DpProblem<W> + ?Sized>(
    problem: &P,
    config: &SolverConfig,
    cancel: CancelToken,
) -> Solution<W> {
    solve_seeded(problem, config, None, cancel)
}

/// Warm-started §2 solve for the solution store: pairs `(i,j)` with
/// `j <= seed_m` start at the cached *optimal* prefix values in `seed`
/// and are dirty-bit-excluded from every pebble pass, so the iterations
/// converge only on the new region.
///
/// Exact by monotonicity: pebble is a non-increasing re-minimisation
/// whose candidates never undercut the optimum, so a pair already at
/// its optimal value is reproduced verbatim by any pebble — skipping it
/// is a no-op — and every other pair starts from inputs at least as
/// converged as a cold run's, so the fixed schedule still suffices and
/// the final table is bit-identical to a cold solve
/// (property-tested in `crates/core/tests/proptest_store.rs`).
pub(crate) fn solve_sublinear_seeded<W: Weight, P: DpProblem<W> + ?Sized>(
    problem: &P,
    config: &SolverConfig,
    seed_m: usize,
    seed: &crate::tables::WTable<W>,
    cancel: CancelToken,
) -> Solution<W> {
    debug_assert!(seed.n() == seed_m && seed_m < problem.n());
    solve_seeded(problem, config, Some((seed_m, seed)), cancel)
}

fn solve_seeded<W: Weight, P: DpProblem<W> + ?Sized>(
    problem: &P,
    config: &SolverConfig,
    seed: Option<(usize, &WTable<W>)>,
    cancel: CancelToken,
) -> Solution<W> {
    let t0 = std::time::Instant::now();
    let n = problem.n();
    let exec = &config.exec;
    let schedule = 2 * pardp_pebble::ceil_sqrt(n as u64);

    // Initialize w'(i, i+1) = init(i); everything else infinity.
    let mut w = WTable::new(n);
    for i in 0..n {
        w.set(i, i + 1, problem.init(i));
    }
    // Warm start: copy the cached optimal prefix cells into place.
    if let Some((m, sw)) = seed {
        for i in 0..m {
            for j in i + 1..=m {
                w.set(i, j, sw.get(i, j));
            }
        }
    }
    // Initialize pw'(i,j,i,j) = 0; everything else infinity.
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
    let mut w_stable_streak = 0u32;
    let mut stats = OpStats::default();

    // Dirty-row scheduling state: which pw rows the previous square
    // changed, which pairs the previous pebble improved, and scratch
    // masks for the skip decisions.
    let dim = pw.dim();
    let mut square_changed_rows = vec![true; dim];
    let mut w_changed_pairs = vec![true; dim];
    let mut skip_mask = vec![false; dim];
    let mut pebble_skip_mask = vec![false; dim];
    // Warm start: seeded pairs are final from iteration 1 — exclude them
    // from every pebble (their square rows still run; partial weights of
    // prefix pairs feed the compositions of bigger pairs).
    let final_pairs: Option<Vec<bool>> = seed.map(|(m, _)| {
        pw.indexer()
            .pairs()
            .map(|(_, j)| j <= m)
            .collect::<Vec<bool>>()
    });

    for iter in 1..=schedule {
        if cancel.is_cancelled() {
            trace.stop = StopReason::DeadlineExceeded;
            break;
        }
        let timed = config.record_trace;
        let ((act, activate_changed_rows), act_ns) = time_op(timed, || {
            a_activate_dense_tracked(problem, &w, &mut pw, exec)
        });
        // Row (i,j) of the square reads exactly the rows nested in (i,j)
        // of pw-after-activate. That input row c is unchanged since the
        // previous iteration iff neither the previous square nor this
        // activate touched it; if every input row is unchanged, the
        // square's output row is reproduced verbatim — copy it instead.
        let skip = if config.skip_clean_rows && iter > 1 {
            for a in 0..dim {
                skip_mask[a] = activate_changed_rows[a] || square_changed_rows[a];
            }
            pw.indexer().propagate_nested(&mut skip_mask);
            for dirty in skip_mask.iter_mut() {
                *dirty = !*dirty; // clean rows are the skippable ones
            }
            Some(skip_mask.as_slice())
        } else {
            None
        };
        let ((sq, sq_rows), sq_ns) = time_op(timed, || {
            a_square_dense_scheduled(&pw, &mut pw_next, config.square, skip, exec)
        });
        square_changed_rows = sq_rows;
        std::mem::swap(&mut pw, &mut pw_next);
        // Pebble pair (i,j) reads its pw row (changed iff this
        // iteration's activate or square touched it) and the w' of its
        // nested pairs (changed iff the previous pebble improved them);
        // pairs with no changed input since their last re-minimisation
        // would reproduce their current value, so copy them instead.
        let pebble_skip = if config.skip_clean_rows && iter > 1 {
            for a in 0..dim {
                pebble_skip_mask[a] =
                    activate_changed_rows[a] || square_changed_rows[a] || w_changed_pairs[a];
            }
            pw.indexer().propagate_nested(&mut pebble_skip_mask);
            for dirty in pebble_skip_mask.iter_mut() {
                *dirty = !*dirty;
            }
            if let Some(fm) = &final_pairs {
                for (skip, f) in pebble_skip_mask.iter_mut().zip(fm) {
                    *skip |= *f;
                }
            }
            Some(pebble_skip_mask.as_slice())
        } else if let Some(fm) = &final_pairs {
            pebble_skip_mask.copy_from_slice(fm);
            Some(pebble_skip_mask.as_slice())
        } else {
            None
        };
        let ((pb, pb_pairs), pb_ns) = time_op(timed, || {
            a_pebble_dense_scheduled(&pw, &w, &mut w_next, pebble_skip, exec)
        });
        w_changed_pairs = pb_pairs;
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

        match config.termination {
            Termination::FixedSqrtN => {}
            Termination::Fixpoint => {
                if !act.changed && !sq.changed && !pb.changed {
                    trace.stop = StopReason::Fixpoint;
                    break;
                }
            }
            Termination::WStableTwice => {
                if pb.changed {
                    w_stable_streak = 0;
                } else {
                    w_stable_streak += 1;
                    if w_stable_streak >= 2 {
                        trace.stop = StopReason::WStable;
                        break;
                    }
                }
            }
        }
    }

    Solution {
        algorithm: Algorithm::Sublinear,
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

    fn cfg(term: Termination) -> SolverConfig {
        SolverConfig {
            exec: ExecBackend::Sequential,
            termination: term,
            record_trace: true,
            square: SquareStrategy::Auto,
            // Off so the work-accounting assertions below see full sweeps;
            // the skip_* tests cover the scheduler.
            skip_clean_rows: false,
        }
    }

    #[test]
    fn solves_clrs_chain_exactly() {
        let p = chain(vec![30, 35, 15, 5, 10, 20, 25]);
        let sol = solve_sublinear(&p, &cfg(Termination::FixedSqrtN));
        assert_eq!(sol.value(), 15125);
        assert!(sol.w.table_eq(&solve_sequential(&p)));
        assert_eq!(sol.trace.iterations, sol.trace.schedule_bound);
    }

    #[test]
    fn all_terminations_agree_on_random_instances() {
        let mut rng = SmallRng::seed_from_u64(31337);
        for n in [1usize, 2, 3, 5, 9, 14, 20] {
            for _ in 0..4 {
                let dims: Vec<u64> = (0..=n).map(|_| rng.gen_range(1..40)).collect();
                let p = chain(dims);
                let oracle = solve_sequential(&p);
                for term in [
                    Termination::FixedSqrtN,
                    Termination::Fixpoint,
                    Termination::WStableTwice,
                ] {
                    let sol = solve_sublinear(&p, &cfg(term));
                    assert!(sol.w.table_eq(&oracle), "n={n} {term:?}");
                    assert!(sol.trace.iterations <= sol.trace.schedule_bound);
                }
            }
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let mut rng = SmallRng::seed_from_u64(55);
        let dims: Vec<u64> = (0..=18).map(|_| rng.gen_range(1..30)).collect();
        let p = chain(dims);
        let seq = solve_sublinear(&p, &cfg(Termination::FixedSqrtN));
        let par = solve_sublinear(
            &p,
            &SolverConfig {
                exec: ExecBackend::Parallel,
                termination: Termination::FixedSqrtN,
                record_trace: false,
                ..Default::default()
            },
        );
        assert!(seq.w.table_eq(&par.w));
        assert_eq!(seq.trace.iterations, par.trace.iterations);
    }

    #[test]
    fn skip_clean_rows_is_exact_on_random_instances() {
        let mut rng = SmallRng::seed_from_u64(2026);
        for n in [2usize, 5, 9, 16, 24] {
            for term in [Termination::FixedSqrtN, Termination::Fixpoint] {
                let dims: Vec<u64> = (0..=n).map(|_| rng.gen_range(1..40)).collect();
                let p = chain(dims);
                let base = solve_sublinear(&p, &cfg(term));
                for (square, exec) in [
                    (SquareStrategy::Auto, ExecBackend::Sequential),
                    (SquareStrategy::Naive, ExecBackend::Sequential),
                    (SquareStrategy::Tiled(5), ExecBackend::Sequential),
                    (SquareStrategy::Auto, ExecBackend::Threads(4)),
                ] {
                    let skipping = solve_sublinear(
                        &p,
                        &SolverConfig {
                            exec,
                            termination: term,
                            record_trace: true,
                            square,
                            skip_clean_rows: true,
                        },
                    );
                    assert!(skipping.w.table_eq(&base.w), "n={n} {term:?} {square}");
                    assert_eq!(
                        skipping.trace.iterations, base.trace.iterations,
                        "n={n} {term:?} {square}"
                    );
                }
            }
        }
    }

    #[test]
    fn skip_clean_rows_saves_square_work() {
        // Uniform dims converge fast; under the fixed schedule the
        // post-convergence iterations must skip every row, so the total
        // square candidates are strictly below the full-sweep figure.
        let p = chain(vec![3u64; 50]); // n = 49, schedule bound 14
        let full = solve_sublinear(&p, &cfg(Termination::FixedSqrtN));
        let skipping = solve_sublinear(
            &p,
            &SolverConfig {
                skip_clean_rows: true,
                ..cfg(Termination::FixedSqrtN)
            },
        );
        assert!(skipping.w.table_eq(&full.w));
        let (_, sq_full, _) = full.trace.work_by_op();
        let (_, sq_skip, _) = skipping.trace.work_by_op();
        assert!(
            2 * sq_skip < sq_full,
            "skip saved too little: {sq_skip} vs {sq_full}"
        );
        // The final recorded iteration does no square work at all.
        let last = skipping.trace.per_iteration.last().unwrap();
        assert_eq!(last.square.candidates, 0);
        assert_eq!(last.square.writes, 0);
    }

    #[test]
    fn fixpoint_stops_early_on_easy_instances() {
        // Uniform dims make balanced decompositions optimal: convergence
        // in O(log n) iterations, well under 2*ceil(sqrt(n)).
        let p = chain(vec![2u64; 65]); // n = 64, schedule bound 16
        let sol = solve_sublinear(&p, &cfg(Termination::Fixpoint));
        assert_eq!(sol.trace.stop, StopReason::Fixpoint);
        assert!(
            sol.trace.iterations < sol.trace.schedule_bound,
            "expected early stop: {} < {}",
            sol.trace.iterations,
            sol.trace.schedule_bound
        );
        assert!(sol.w.table_eq(&solve_sequential(&p)));
    }

    #[test]
    fn trace_candidate_totals_are_consistent() {
        let p = chain(vec![3, 5, 7, 2, 8, 4]);
        let sol = solve_sublinear(&p, &cfg(Termination::FixedSqrtN));
        let (a, s, pb) = sol.trace.work_by_op();
        assert_eq!(a + s + pb, sol.trace.total_candidates);
        assert_eq!(sol.trace.per_iteration.len() as u64, sol.trace.iterations);
        // Square dominates the work, as the analysis says (§4).
        assert!(s > a && s > pb);
    }

    #[test]
    fn float_instance_converges_to_reference() {
        let mut rng = SmallRng::seed_from_u64(77);
        let dims: Vec<f64> = (0..=12).map(|_| rng.gen_range(0.5..8.0)).collect();
        let n = dims.len() - 1;
        let p = FnProblem::new(n, |_| 0.0f64, move |i, k, j| dims[i] * dims[k] * dims[j]);
        let sol = solve_sublinear(&p, &cfg(Termination::FixedSqrtN));
        let oracle = solve_sequential(&p);
        assert!(sol.w.table_eq(&oracle));
    }

    #[test]
    fn n_equals_one_is_trivial() {
        let p = FnProblem::new(1, |_| 5u64, |_, _, _| 0u64);
        let sol = solve_sublinear(&p, &cfg(Termination::FixedSqrtN));
        assert_eq!(sol.value(), 5);
    }
}
