//! Criterion bench for the tiled dense `a-square` (the `O(n^5)` hot
//! path): naive row-major vs the streaming kernel at several tile
//! edges, plus the dirty-row copy path. Companion to the `exp_tiling`
//! experiment binary, which measures the same sweep at larger `n` with a
//! JSON report.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pardp_apps::generators;
use pardp_core::ops::{
    a_activate_dense, a_pebble_dense, a_square_dense, a_square_dense_scheduled, SquareStrategy,
};
use pardp_core::prelude::ExecBackend;
use pardp_core::problem::DpProblem;
use pardp_core::tables::{DensePw, WTable};
use std::hint::black_box;

/// Build mid-run tables (after a few iterations) so the sweeps operate on
/// realistic, partially-filled data rather than all-infinity tables.
fn warm_tables(n: usize) -> DensePw<u64> {
    let p = generators::random_chain(n, 100, 7);
    let mut w = WTable::new(n);
    for i in 0..n {
        w.set(i, i + 1, p.init(i));
    }
    let mut pw = DensePw::new(n);
    let mut pw_next = DensePw::new(n);
    let mut w_next = w.clone();
    for _ in 0..3 {
        a_activate_dense(&p, &w, &mut pw, &ExecBackend::Sequential);
        a_square_dense(&pw, &mut pw_next, &ExecBackend::Sequential);
        std::mem::swap(&mut pw, &mut pw_next);
        a_pebble_dense(&pw, &w, &mut w_next, &ExecBackend::Sequential);
        std::mem::swap(&mut w, &mut w_next);
    }
    pw
}

fn bench_tiled_square(c: &mut Criterion) {
    let mut group = c.benchmark_group("tiled_square");
    group.sample_size(10);
    for n in [32usize, 48] {
        let pw = warm_tables(n);
        let mut next = DensePw::new(n);
        for (name, strategy) in [
            ("naive", SquareStrategy::Naive),
            ("tiled_16", SquareStrategy::Tiled(16)),
            ("tiled_32", SquareStrategy::Tiled(32)),
            ("tiled_64", SquareStrategy::Tiled(64)),
            ("auto", SquareStrategy::Auto),
        ] {
            group.bench_with_input(BenchmarkId::new(name, n), &pw, |b, pw| {
                b.iter(|| {
                    black_box(a_square_dense_scheduled(
                        pw,
                        &mut next,
                        strategy,
                        None,
                        &ExecBackend::Sequential,
                    ))
                })
            });
        }
        // Parallel auto-tiled, and the skip-everything copy path (the
        // dirty-row scheduler's post-convergence cost).
        group.bench_with_input(BenchmarkId::new("auto_pool", n), &pw, |b, pw| {
            b.iter(|| {
                black_box(a_square_dense_scheduled(
                    pw,
                    &mut next,
                    SquareStrategy::Auto,
                    None,
                    &ExecBackend::Parallel,
                ))
            })
        });
        let skip_all = vec![true; pw.dim()];
        group.bench_with_input(BenchmarkId::new("skip_all_rows", n), &pw, |b, pw| {
            b.iter(|| {
                black_box(a_square_dense_scheduled(
                    pw,
                    &mut next,
                    SquareStrategy::Auto,
                    Some(&skip_all),
                    &ExecBackend::Sequential,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tiled_square);
criterion_main!(benches);
