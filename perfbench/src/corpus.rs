//! Seeded inputs for every workload, and the sequential oracle each
//! answer is checked against.
//!
//! The seed picks the payloads and the order of jobs and requests. The
//! job count, sizes, families and algorithms are fixed per workload, so
//! every seed yields a corpus of the same [`shape`] and a claim can be
//! re-checked on a seed nobody used while writing it.

use std::collections::BTreeMap;

use pardp_core::prelude::*;
use pardp_core::spec::table_hash;

/// SplitMix64: tiny, seedable, and identical on every host.
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of `seed`, so adding a stream
    /// never shifts the values of another.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in stream.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

pub const FAMILIES: [&str; 4] = ["chain", "obst", "polygon", "merge"];

/// A random instance of `family` with recurrence size `n`, every payload
/// value in `1..=100`.
pub fn instance(family: &str, n: usize, rng: &mut Rng) -> ProblemSpec {
    let mut vals = |k: usize| (0..k).map(|_| rng.range(1, 100) as u64).collect::<Vec<_>>();
    match family {
        "chain" => ProblemSpec::chain(vals(n + 1)),
        "obst" => {
            let p = vals(n - 1);
            ProblemSpec::obst(p, vals(n))
        }
        "polygon" => ProblemSpec::polygon(vals(n + 1)),
        "merge" => ProblemSpec::merge(vals(n)),
        other => unreachable!("unknown family {other}"),
    }
    .expect("generated payloads satisfy every family's shape rule")
}

/// The answer every solver must give: `c(0, n)` and the
/// [`table_hash`] of the whole `w` table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expect {
    pub value: u64,
    pub hash: String,
}

/// The plain `O(n^3)` recurrence, written here rather than taken from
/// the library so a kernel defect cannot also corrupt the reference.
/// It keeps a transposed copy of the table so both operands of the
/// inner loop are read contiguously.
pub fn oracle(spec: &ProblemSpec) -> Expect {
    let p = spec.build();
    let n = p.n();
    let dim = n + 1;
    let mut by_row = vec![0u64; dim * dim]; // (i, j) at i * dim + j
    let mut by_col = vec![0u64; dim * dim]; // (i, j) at j * dim + i
    for i in 0..n {
        let v = DpProblem::<u64>::init(&p, i);
        by_row[i * dim + i + 1] = v;
        by_col[(i + 1) * dim + i] = v;
    }
    for d in 2..=n {
        for i in 0..=n - d {
            let j = i + d;
            let row = &by_row[i * dim..i * dim + j];
            let col = &by_col[j * dim..j * dim + j];
            let mut best = u64::MAX;
            for k in i + 1..j {
                let cand = row[k] + col[k] + DpProblem::<u64>::f(&p, i, k, j);
                best = best.min(cand);
            }
            by_row[i * dim + j] = best;
            by_col[j * dim + i] = best;
        }
    }
    let mut w = WTable::<u64>::new(n);
    for i in 0..n {
        for j in i + 1..=n {
            w.set(i, j, by_row[i * dim + j]);
        }
    }
    Expect {
        value: w.root(),
        hash: table_hash(&w),
    }
}

/// Oracle answers for `specs`, computed on two threads (the harness's
/// own work, done before any clock starts).
pub fn oracle_all(specs: &[&ProblemSpec]) -> Vec<Expect> {
    let mut out: Vec<Option<Expect>> = vec![None; specs.len()];
    let (even, odd): (Vec<_>, Vec<_>) = out.iter_mut().enumerate().partition(|(i, _)| i % 2 == 0);
    std::thread::scope(|s| {
        for half in [even, odd] {
            s.spawn(move || {
                for (i, slot) in half {
                    *slot = Some(oracle(specs[i]));
                }
            });
        }
    });
    out.into_iter()
        .map(|e| e.expect("every slot is filled"))
        .collect()
}

/// One job of a corpus: the instance, the algorithm that solves it, and
/// its oracle answer.
#[derive(Debug, Clone)]
pub struct Job {
    pub spec: ProblemSpec,
    pub algo: Algorithm,
    pub expect: Expect,
}

impl Job {
    /// The JSONL request line the daemon reads for this job.
    pub fn line(&self) -> String {
        let mut spec = JobSpec::from(&self.spec);
        spec.algo = Some(self.algo.name().to_string());
        serde_json::to_string(&spec).expect("a job spec serializes")
    }
}

/// Attach the oracle answer to every job; consecutive jobs on one
/// instance share one oracle solve.
pub fn with_oracle(jobs: Vec<(ProblemSpec, Algorithm)>) -> Vec<Job> {
    let mut distinct: Vec<&ProblemSpec> = Vec::new();
    let mut slot = Vec::with_capacity(jobs.len());
    for (spec, _) in &jobs {
        if distinct.last() != Some(&spec) {
            distinct.push(spec);
        }
        slot.push(distinct.len() - 1);
    }
    let expects = oracle_all(&distinct);
    jobs.into_iter()
        .zip(slot)
        .map(|((spec, algo), k)| Job {
            spec,
            algo,
            expect: expects[k].clone(),
        })
        .collect()
}

/// A corpus before its oracle answers are attached.
pub type Plan = Vec<(ProblemSpec, Algorithm)>;

/// Fisher–Yates with the seeded generator.
pub fn shuffle<T>(xs: &mut [T], rng: &mut Rng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.range(0, i));
    }
}

/// `lo..=hi` in `k` evenly spaced steps.
fn spread(lo: usize, hi: usize, k: usize) -> impl Iterator<Item = usize> {
    (0..k).map(move |i| lo + (hi - lo) * i / (k - 1))
}

/// `batch_paper`: the paper's two algorithms over all four families —
/// sixteen `Sublinear` jobs on n in 24..=63 and sixteen `Reduced` jobs
/// on n in 32..=79 (small regime), plus three `Reduced` jobs on n in
/// 136..=143, which cross the batch's large-job threshold.
pub fn batch_paper(seed: u64) -> Plan {
    let mut rng = Rng::new(seed, "batch_paper");
    let groups = [
        (Algorithm::Sublinear, spread(24, 63, 16).collect::<Vec<_>>()),
        (Algorithm::Reduced, spread(32, 79, 16).collect()),
        (Algorithm::Reduced, spread(136, 143, 3).collect()),
    ];
    let mut jobs = Vec::new();
    for (algo, sizes) in groups {
        for (i, &n) in sizes.iter().enumerate() {
            jobs.push((instance(FAMILIES[i % FAMILIES.len()], n, &mut rng), algo));
        }
    }
    shuffle(&mut jobs, &mut rng);
    jobs
}

/// The `i`-th job of the cheap small-regime mix the daemon workloads
/// send: every family, n cycling through `lo..=hi`, `Sequential` or
/// `Wavefront` — and `Knuth` on obst when `knuth` is set (Knuth is
/// never cached, so the store workload leaves it out). The index fixes
/// the family, size and algorithm; the seed only the payload.
fn small_job(
    i: usize,
    lo: usize,
    hi: usize,
    knuth: bool,
    rng: &mut Rng,
) -> (ProblemSpec, Algorithm) {
    let family = FAMILIES[i % FAMILIES.len()];
    let round = i / FAMILIES.len();
    let sizes = hi - lo + 1;
    let algos: &[Algorithm] = if knuth && family == "obst" {
        &[
            Algorithm::Sequential,
            Algorithm::Wavefront,
            Algorithm::Knuth,
        ]
    } else {
        &[Algorithm::Sequential, Algorithm::Wavefront]
    };
    let algo = algos[(round / sizes + round) % algos.len()];
    (instance(family, lo + round % sizes, rng), algo)
}

/// `serve_small`: a pool of distinct small jobs in seeded order, cycled
/// by the open-loop generator (the daemon runs without a cache, so a
/// repeat costs a full solve).
pub const SMALL_POOL: usize = 1176; // 4 families x 49 sizes x 6

pub fn serve_small(seed: u64) -> Plan {
    let mut rng = Rng::new(seed, "serve_small");
    let mut jobs: Plan = (0..SMALL_POOL)
        .map(|i| small_job(i, 16, 64, true, &mut rng))
        .collect();
    shuffle(&mut jobs, &mut rng);
    jobs
}

/// What a `serve_store` request is, which fixes the cache outcome the
/// daemon must report for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// A key of the pre-filled hot set: a hit.
    Hot,
    /// A key never sent before: a miss, a solve, and a put.
    Fresh,
    /// A hot chain with a few dims appended: a warm start.
    Extend,
}

pub const HOT_SET: usize = 64;

/// Of every 20 requests, in seeded order, 10 read the hot set, 9 are
/// fresh keys and 1 extends a hot chain. Every non-hot request is a
/// distinct instance, so the hit and warm-start counts are fixed by the
/// corpus. Returns the jobs — the hot set (`jobs[..HOT_SET]`, pre-filled
/// during set-up) first — and the requests as indices into them.
pub fn serve_store(seed: u64, requests: usize) -> (Plan, Vec<(usize, Kind)>) {
    let mut rng = Rng::new(seed, "serve_store");
    let mut jobs: Vec<(ProblemSpec, Algorithm)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut push = |job: (ProblemSpec, Algorithm), jobs: &mut Vec<_>| -> bool {
        let spec = JobSpec::from(&job.0);
        let fresh = seen.insert((spec.family, spec.values, spec.q, job.1.name()));
        if fresh {
            jobs.push(job);
        }
        fresh
    };
    let mut i = 0;
    while jobs.len() < HOT_SET {
        push(small_job(i, 16, 40, false, &mut rng), &mut jobs);
        i += 1;
    }
    let mut deck = [
        [Kind::Hot; 10].as_slice(),
        &[Kind::Fresh; 9],
        &[Kind::Extend],
    ]
    .concat();
    let (mut fresh, mut extend) = (0, 0);
    let mut reqs = Vec::with_capacity(requests);
    while reqs.len() < requests {
        shuffle(&mut deck, &mut rng);
        for &kind in &deck {
            if kind == Kind::Hot {
                reqs.push((rng.range(0, HOT_SET - 1), kind));
                continue;
            }
            // Retry one slot with a new payload until the instance is new.
            let index = if kind == Kind::Fresh {
                &mut fresh
            } else {
                &mut extend
            };
            loop {
                let job = if kind == Kind::Fresh {
                    small_job(*index, 16, 40, false, &mut rng)
                } else {
                    // Hot jobs 0, 4, 8, ... are chains.
                    let base = 4 * (*index % (HOT_SET / 4));
                    let (ProblemSpec::Chain { dims }, algo) = &jobs[base] else {
                        unreachable!("every fourth hot job is a chain")
                    };
                    let mut dims = dims.clone();
                    dims.extend((0..1 + *index % 8).map(|_| rng.range(1, 100) as u64));
                    (ProblemSpec::chain(dims).expect("positive dims"), *algo)
                };
                if push(job, &mut jobs) {
                    break;
                }
            }
            *index += 1;
            reqs.push((jobs.len() - 1, kind));
        }
    }
    reqs.truncate(requests);
    (jobs, reqs)
}

/// The seed-independent shape of a corpus: how many jobs of each
/// (family, algorithm, n) it holds.
pub fn shape<'a>(
    jobs: impl IntoIterator<Item = &'a (ProblemSpec, Algorithm)>,
) -> BTreeMap<(&'static str, &'static str, usize), usize> {
    let mut buckets = BTreeMap::new();
    for (spec, algo) in jobs {
        let key = (spec.family(), algo.name(), spec.n());
        *buckets.entry(key).or_insert(0) += 1;
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plans(seed: u64) -> Vec<Plan> {
        vec![
            batch_paper(seed),
            serve_small(seed),
            serve_store(seed, 400).0,
        ]
    }

    #[test]
    fn a_seed_fixes_the_corpus_and_another_seed_keeps_its_shape() {
        for ((a, again), b) in plans(1).iter().zip(plans(1)).zip(plans(2)) {
            assert_eq!(a, &again);
            assert_ne!(a, &b);
            assert_eq!(shape(a), shape(&b));
        }
        let kinds = |seed| {
            let mut k = serve_store(seed, 400)
                .1
                .iter()
                .map(|r| r.1)
                .collect::<Vec<_>>();
            k.sort();
            k
        };
        assert_eq!(kinds(1), kinds(2));
    }

    #[test]
    fn the_oracle_matches_the_library_on_every_family() {
        let mut rng = Rng::new(7, "test");
        for family in FAMILIES {
            let spec = instance(family, 12, &mut rng);
            let w = pardp_core::seq::solve_sequential(&spec.build());
            assert_eq!(
                oracle(&spec),
                Expect {
                    value: w.root(),
                    hash: table_hash(&w)
                }
            );
        }
    }
}
