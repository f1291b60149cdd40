//! The §5 reduced-processor variant: `O(n^3.5 / log n)` processors,
//! same `O(sqrt(n) log n)` time.
//!
//! Two §5 observations shrink the work per iteration:
//!
//! 1. **Windowed pebbling.** By Lemma 3.3, after `2l` iterations every
//!    optimal-tree node of size ≤ `l^2` already holds its final value, and
//!    nodes of size > `(l+1)^2` cannot be finalised yet; so the pebble
//!    steps of iterations `2l - 1` and `2l` only need to consider pairs
//!    with `(l-1)^2 < j - i <= l^2` — `O(n^1.5)` of them.
//! 2. **Banded partial weights.** The heavy-chain decomposition shows the
//!    pebbling only ever exploits partial trees whose root-to-gap size
//!    difference is at most `2*ceil(sqrt(n))`; partial weights outside the
//!    band `(j-i) - (q-p) <= B` are never needed, and each in-band cell
//!    has only `O(sqrt(n))` in-band compositions.
//!
//! Because the window argument relies on the *fixed* `2*ceil(sqrt(n))`
//! schedule, this solver does not support convergence-based early
//! termination (change flags under a window are not a fixpoint signal).
//! Convergence-aware *scheduling* within the fixed schedule is a
//! different matter and is exact (`skip_clean_rows`, on by default):
//!
//! * **square rows** — banded square row `(i,j)` reads only `pw'` rows
//!   nested in `(i,j)`; if neither this iteration's activate nor the
//!   previous square changed any of them, the row is copied forward
//!   (exactly the dense solver's rule);
//! * **pebble pairs** — pebble pair `(i,j)` reads its own `pw'` row and
//!   the `w'` of its nested pairs. Because the window re-minimises a
//!   pair only on some iterations, a *persistent* per-pair dirty bit
//!   accumulates input changes across iterations and is cleared only
//!   when the pair is actually re-minimised; a windowed-in pair whose
//!   bit is clear would reproduce its current value and is copied
//!   instead.

use crate::exec::ExecBackend;
use crate::fault::CancelToken;
use crate::ops::{
    a_activate_banded_tracked, a_pebble_banded_scheduled, a_square_banded_scheduled, OpStats,
    SquareStrategy,
};
use crate::problem::DpProblem;
use crate::solver::{Algorithm, Solution};
use crate::tables::{BandedPw, WTable};
use crate::trace::{time_op, IterationRecord, OpRecord, SolveTrace, StopReason};
use crate::weight::Weight;

/// Configuration of [`solve_reduced`].
#[derive(Debug, Clone, Copy)]
pub struct ReducedConfig {
    /// Execution backend for the data-parallel passes.
    pub exec: ExecBackend,
    /// Keep per-iteration records.
    pub record_trace: bool,
    /// Apply the §5 size window to the pebble step. Disabling it keeps the
    /// banded storage but re-minimises every pair each iteration — the E8
    /// ablation point separating the two §5 ideas.
    pub windowed_pebble: bool,
    /// Band width override; `None` uses the paper's `2 * ceil(sqrt(n))`.
    pub band: Option<usize>,
    /// Kernel of the banded `a-square` — the §5 hot path. All strategies
    /// produce bit-identical tables; see [`SquareStrategy`].
    pub square: SquareStrategy,
    /// Convergence-aware scheduling (square rows and pebble pairs whose
    /// inputs did not change are copied forward; see the module docs).
    /// Exact: every configuration computes identical tables.
    pub skip_clean_rows: bool,
}

impl Default for ReducedConfig {
    fn default() -> Self {
        ReducedConfig {
            exec: ExecBackend::Parallel,
            record_trace: false,
            windowed_pebble: true,
            band: None,
            square: SquareStrategy::Auto,
            skip_clean_rows: true,
        }
    }
}

/// The §5 band width `B = 2 * ceil(sqrt(n))`.
pub fn default_band(n: usize) -> usize {
    2 * pardp_pebble::ceil_sqrt(n as u64) as usize
}

/// Solve recurrence (*) with the §5 reduced-processor algorithm.
pub fn solve_reduced<W: Weight, P: DpProblem<W> + ?Sized>(
    problem: &P,
    config: &ReducedConfig,
) -> Solution<W> {
    solve_seeded(problem, config, None, CancelToken::NONE)
}

/// Cancellable §5 solve for the façade: `cancel` is checked once per
/// iteration, and an expired deadline stops the run with
/// [`StopReason::DeadlineExceeded`] and a partial table.
pub(crate) fn solve_reduced_cancel<W: Weight, P: DpProblem<W> + ?Sized>(
    problem: &P,
    config: &ReducedConfig,
    cancel: CancelToken,
) -> Solution<W> {
    solve_seeded(problem, config, None, cancel)
}

/// Warm-started §5 solve for the solution store: pairs `(i,j)` with
/// `j <= seed_m` start at the cached optimal prefix values and are
/// dirty-bit-excluded from every pebble pass. Same exactness argument
/// as [`crate::sublinear::solve_sublinear_seeded`] — the window and the
/// banded storage are untouched, only the pebble skip mask gains the
/// always-final seeded pairs.
pub(crate) fn solve_reduced_seeded<W: Weight, P: DpProblem<W> + ?Sized>(
    problem: &P,
    config: &ReducedConfig,
    seed_m: usize,
    seed: &WTable<W>,
    cancel: CancelToken,
) -> Solution<W> {
    debug_assert!(seed.n() == seed_m && seed_m < problem.n());
    solve_seeded(problem, config, Some((seed_m, seed)), cancel)
}

fn solve_seeded<W: Weight, P: DpProblem<W> + ?Sized>(
    problem: &P,
    config: &ReducedConfig,
    seed: Option<(usize, &WTable<W>)>,
    cancel: CancelToken,
) -> Solution<W> {
    let t0 = std::time::Instant::now();
    let n = problem.n();
    let exec = &config.exec;
    let band = config.band.unwrap_or_else(|| default_band(n));
    let schedule = 2 * pardp_pebble::ceil_sqrt(n as u64);

    let mut w = WTable::new(n);
    for i in 0..n {
        w.set(i, i + 1, problem.init(i));
    }
    if let Some((m, sw)) = seed {
        for i in 0..m {
            for j in i + 1..=m {
                w.set(i, j, sw.get(i, j));
            }
        }
    }
    let mut pw = BandedPw::new(n, band);
    let mut pw_next = BandedPw::new(n, band);
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

    // Convergence-aware scheduling state (see the module docs): per-pair
    // change bits from the previous square and pebble, the persistent
    // pebble dirty bits, and scratch masks for the skip decisions.
    let idx = pw.indexer().clone();
    let pairs: Vec<(usize, usize)> = idx.pairs().collect();
    let dim = idx.len();
    let mut square_changed_rows = vec![true; dim];
    let mut w_changed_pairs = vec![true; dim];
    let mut pebble_dirty = vec![true; dim];
    let mut square_skip_mask = vec![false; dim];
    let mut pebble_skip_mask = vec![false; dim];
    // Warm start: seeded prefix pairs already hold their final optimal
    // values, so the pebble never needs to re-minimise them (it could
    // only confirm them — pebble is a monotone re-minimisation whose
    // candidates never undercut the optimum). Their square rows still
    // run: nested pw rows feed the un-seeded suffix pairs.
    let final_pairs: Option<Vec<bool>> =
        seed.map(|(m, _)| idx.pairs().map(|(_, j)| j <= m).collect::<Vec<bool>>());

    for iter in 1..=schedule {
        if cancel.is_cancelled() {
            trace.stop = StopReason::DeadlineExceeded;
            break;
        }
        let timed = config.record_trace;
        let ((act, activate_changed_rows), act_ns) = time_op(timed, || {
            a_activate_banded_tracked(problem, &w, &mut pw, exec)
        });
        // Square row (i,j) reads the pw rows nested in (i,j): unchanged
        // since the previous square iff neither the previous square nor
        // this activate touched them (the dense solver's rule; the
        // pebble window below does not interfere — the square is not
        // windowed).
        let square_skip = if config.skip_clean_rows && iter > 1 {
            for a in 0..dim {
                square_skip_mask[a] = activate_changed_rows[a] || square_changed_rows[a];
            }
            idx.propagate_nested(&mut square_skip_mask);
            for dirty in square_skip_mask.iter_mut() {
                *dirty = !*dirty;
            }
            Some(square_skip_mask.as_slice())
        } else {
            None
        };
        let ((sq, sq_rows), sq_ns) = time_op(timed, || {
            a_square_banded_scheduled(&pw, &mut pw_next, config.square, square_skip, exec)
        });
        square_changed_rows = sq_rows;
        std::mem::swap(&mut pw, &mut pw_next);
        // Size window for iterations 2l-1 and 2l: (l-1)^2 < j-i <= l^2.
        let window = if config.windowed_pebble {
            let l = iter.div_ceil(2) as usize;
            Some(((l - 1) * (l - 1), l * l))
        } else {
            None
        };
        // Accumulate input changes into the persistent dirty bits: pair
        // (i,j)'s pebble inputs are its own pw row (changed iff activate
        // or square touched it this iteration) and the w' of its nested
        // pairs (changed iff the previous pebble improved them). A
        // windowed-out pair keeps accumulating dirt until the window
        // reaches it.
        let pebble_skip = if config.skip_clean_rows {
            if iter > 1 {
                for a in 0..dim {
                    pebble_skip_mask[a] =
                        activate_changed_rows[a] || square_changed_rows[a] || w_changed_pairs[a];
                }
                idx.propagate_nested(&mut pebble_skip_mask);
                for (dirty, fresh) in pebble_dirty.iter_mut().zip(&pebble_skip_mask) {
                    *dirty |= fresh;
                }
            }
            for (skip, dirty) in pebble_skip_mask.iter_mut().zip(&pebble_dirty) {
                *skip = !dirty;
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
            a_pebble_banded_scheduled(problem, &pw, &w, &mut w_next, window, pebble_skip, exec)
        });
        std::mem::swap(&mut w, &mut w_next);
        if config.skip_clean_rows {
            // Pairs the window admitted and the skip mask did not veto
            // were re-minimised against their current inputs: clean.
            for (a, &(pi, pj)) in pairs.iter().enumerate() {
                let in_window = window.is_none_or(|(lo, hi)| pj - pi > lo && pj - pi <= hi);
                if in_window && !pebble_skip_mask[a] {
                    pebble_dirty[a] = false;
                }
            }
            w_changed_pairs = pb_pairs;
        }

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
    }

    Solution {
        algorithm: Algorithm::Reduced,
        w,
        trace,
        stats,
        wall: t0.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{FnProblem, TabulatedProblem};
    use crate::seq::solve_sequential;
    use crate::sublinear::{solve_sublinear, SolverConfig};
    use crate::trace::Termination;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn chain(dims: Vec<u64>) -> impl DpProblem<u64> {
        let n = dims.len() - 1;
        FnProblem::new(n, |_| 0u64, move |i, k, j| dims[i] * dims[k] * dims[j])
    }

    /// Full-sweep sequential baseline: the work-accounting assertions
    /// below compare per-op candidate counts, so scheduling is off; the
    /// skip_* tests cover the scheduler.
    fn cfg() -> ReducedConfig {
        ReducedConfig {
            exec: ExecBackend::Sequential,
            record_trace: true,
            windowed_pebble: true,
            band: None,
            square: SquareStrategy::Auto,
            skip_clean_rows: false,
        }
    }

    #[test]
    fn reduced_solves_clrs_chain() {
        let p = chain(vec![30, 35, 15, 5, 10, 20, 25]);
        let sol = solve_reduced(&p, &cfg());
        assert_eq!(sol.value(), 15125);
        assert!(sol.w.table_eq(&solve_sequential(&p)));
    }

    #[test]
    fn reduced_matches_oracle_on_random_instances() {
        let mut rng = SmallRng::seed_from_u64(4242);
        for n in [1usize, 2, 3, 4, 6, 9, 13, 18, 25, 33] {
            for _ in 0..3 {
                let dims: Vec<u64> = (0..=n).map(|_| rng.gen_range(1..50)).collect();
                let p = chain(dims);
                let oracle = solve_sequential(&p);
                let sol = solve_reduced(&p, &cfg());
                assert!(sol.w.table_eq(&oracle), "n={n}");
            }
        }
    }

    #[test]
    fn reduced_matches_oracle_on_arbitrary_costs() {
        // Matrix chains have structured f; arbitrary tabulated costs probe
        // the banded correctness argument harder.
        let mut rng = SmallRng::seed_from_u64(777);
        for n in [5usize, 10, 16, 24] {
            let init: Vec<u64> = (0..n).map(|_| rng.gen_range(0..30)).collect();
            let m = n + 1;
            let f_vals: Vec<u64> = (0..m * m * m).map(|_| rng.gen_range(0..30)).collect();
            let p = TabulatedProblem::new(init, |i, k, j| f_vals[(i * m + k) * m + j]);
            let oracle = solve_sequential(&p);
            let sol = solve_reduced(&p, &cfg());
            assert!(sol.w.table_eq(&oracle), "n={n}");
        }
    }

    #[test]
    fn window_ablation_agrees() {
        let p = chain(vec![9, 4, 7, 2, 8, 3, 6, 5, 10, 1, 12, 11]);
        let windowed = solve_reduced(&p, &cfg());
        let unwindowed = solve_reduced(
            &p,
            &ReducedConfig {
                windowed_pebble: false,
                ..cfg()
            },
        );
        assert!(windowed.w.table_eq(&unwindowed.w));
        // The window strictly reduces pebble work.
        let (_, _, pb_win) = windowed.trace.work_by_op();
        let (_, _, pb_all) = unwindowed.trace.work_by_op();
        assert!(pb_win < pb_all, "windowed {pb_win} vs full {pb_all}");
    }

    #[test]
    fn reduced_does_much_less_square_work_than_dense() {
        let mut rng = SmallRng::seed_from_u64(9);
        let dims: Vec<u64> = (0..=36).map(|_| rng.gen_range(1..40)).collect();
        let p = chain(dims);
        let dense = solve_sublinear(
            &p,
            &SolverConfig {
                exec: ExecBackend::Sequential,
                termination: Termination::FixedSqrtN,
                record_trace: true,
                // Full sweeps: this test compares per-iteration op work.
                skip_clean_rows: false,
                ..Default::default()
            },
        );
        let red = solve_reduced(&p, &cfg());
        assert!(dense.w.table_eq(&red.w));
        let (_, sq_dense, _) = dense.trace.work_by_op();
        let (_, sq_red, _) = red.trace.work_by_op();
        assert!(
            sq_red * 2 < sq_dense,
            "reduced square work {sq_red} not well below dense {sq_dense}"
        );
    }

    #[test]
    fn parallel_equals_sequential_reduced() {
        let mut rng = SmallRng::seed_from_u64(11);
        let dims: Vec<u64> = (0..=20).map(|_| rng.gen_range(1..30)).collect();
        let p = chain(dims);
        let seq = solve_reduced(&p, &cfg());
        let par = solve_reduced(
            &p,
            &ReducedConfig {
                exec: ExecBackend::Parallel,
                ..cfg()
            },
        );
        assert!(seq.w.table_eq(&par.w));
    }

    #[test]
    fn skip_clean_rows_is_exact_on_random_instances() {
        // Clean-row/pair skipping must not change a single table cell,
        // for every kernel, backend and window setting.
        let mut rng = SmallRng::seed_from_u64(20260728);
        for n in [2usize, 5, 9, 16, 25] {
            let dims: Vec<u64> = (0..=n).map(|_| rng.gen_range(1..40)).collect();
            let p = chain(dims);
            let oracle = solve_sequential(&p);
            for windowed in [true, false] {
                let base = solve_reduced(
                    &p,
                    &ReducedConfig {
                        windowed_pebble: windowed,
                        ..cfg()
                    },
                );
                assert!(base.w.table_eq(&oracle), "n={n} windowed={windowed}");
                for (square, exec) in [
                    (SquareStrategy::Auto, ExecBackend::Sequential),
                    (SquareStrategy::Naive, ExecBackend::Sequential),
                    (SquareStrategy::Auto, ExecBackend::Threads(4)),
                ] {
                    let skipping = solve_reduced(
                        &p,
                        &ReducedConfig {
                            exec,
                            windowed_pebble: windowed,
                            square,
                            skip_clean_rows: true,
                            ..cfg()
                        },
                    );
                    assert!(
                        skipping.w.table_eq(&base.w),
                        "n={n} windowed={windowed} {square} {exec}"
                    );
                    // Skipping can only remove candidate work.
                    assert!(
                        skipping.trace.total_candidates <= base.trace.total_candidates,
                        "n={n} windowed={windowed} {square} {exec}"
                    );
                }
            }
        }
    }

    #[test]
    fn skip_clean_rows_saves_reduced_work() {
        // Uniform dims converge fast; under the fixed 2*ceil(sqrt(n))
        // schedule the post-convergence iterations must skip nearly
        // everything, so total candidates drop well below the full-sweep
        // figure.
        let p = chain(vec![3u64; 50]); // n = 49, schedule bound 14
        let full = solve_reduced(&p, &cfg());
        let skipping = solve_reduced(
            &p,
            &ReducedConfig {
                skip_clean_rows: true,
                ..cfg()
            },
        );
        assert!(skipping.w.table_eq(&full.w));
        assert!(
            2 * skipping.trace.total_candidates < full.trace.total_candidates,
            "skip saved too little: {} vs {}",
            skipping.trace.total_candidates,
            full.trace.total_candidates
        );
    }

    #[test]
    fn square_strategies_agree_in_the_solver() {
        let mut rng = SmallRng::seed_from_u64(404);
        let dims: Vec<u64> = (0..=28).map(|_| rng.gen_range(1..60)).collect();
        let p = chain(dims);
        let naive = solve_reduced(
            &p,
            &ReducedConfig {
                square: SquareStrategy::Naive,
                ..cfg()
            },
        );
        for square in [SquareStrategy::Auto, SquareStrategy::Tiled(16)] {
            let other = solve_reduced(&p, &ReducedConfig { square, ..cfg() });
            assert!(other.w.table_eq(&naive.w), "{square}");
            assert_eq!(
                other.trace.total_candidates, naive.trace.total_candidates,
                "{square}"
            );
        }
    }

    #[test]
    fn band_wider_than_needed_is_harmless() {
        let p = chain(vec![3, 7, 2, 9, 4, 8, 5]);
        let default = solve_reduced(&p, &cfg());
        let wide = solve_reduced(
            &p,
            &ReducedConfig {
                band: Some(100),
                ..cfg()
            },
        );
        assert!(default.w.table_eq(&wide.w));
    }
}
