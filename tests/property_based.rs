//! Property-based tests over the full pipeline: random feasible problem
//! instances and random data must always produce verifier-clean outputs,
//! and the EM algorithms must agree with trivial in-memory references.
//!
//! The instance generator is a seeded [`SplitMix64`] loop rather than a
//! shrinking framework (the workspace builds offline, with no external
//! dependencies); every case prints its instance on failure, and the same
//! master seed always replays the same cases.

use em_splitters::prelude::*;
use emcore::{Indexed, KeyValue, SplitMix64};

const CASES: usize = 48;
const MASTER_SEED: u64 = 0x5eed_ca5e;

/// A feasible (n, k, a, b) tuple plus a data seed.
fn gen_instance(rng: &mut SplitMix64) -> (u64, u64, u64, u64, u64) {
    let n = 200 + rng.below(2800);
    let k = 2 + rng.below(22);
    let seed = rng.next_u64();
    let a = rng.below(n / k + 1);
    let lo = n.div_ceil(k);
    let b = lo + rng.below(n - lo + 1);
    (n, k, a, b, seed)
}

fn ctx() -> EmContext {
    EmContext::new_in_memory(EmConfig::new(512, 16).unwrap())
}

#[test]
fn splitters_always_verify() {
    let mut rng = SplitMix64::new(MASTER_SEED);
    for case in 0..CASES {
        let (n, k, a, b, seed) = gen_instance(&mut rng);
        let c = ctx();
        // Distinct keys via Indexed so any a ≥ 1 stays feasible.
        let keys = workloads::generate(Workload::UniformPerm, n, seed);
        let data: Vec<Indexed<u64>> = keys
            .iter()
            .enumerate()
            .map(|(i, &x)| Indexed::new(x, i as u64))
            .collect();
        let file = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
        let spec = ProblemSpec::new(n, k, a, b).unwrap();
        let sp = approx_splitters(&file, &spec).unwrap();
        assert_eq!(sp.len(), (k - 1) as usize, "case {case}: {spec}");
        let rep = verify_splitters(&file, &sp, &spec).unwrap();
        assert!(rep.ok, "case {case}: {} sizes {:?}", spec, rep.sizes);
    }
}

#[test]
fn partitioning_always_verifies() {
    let mut rng = SplitMix64::new(MASTER_SEED ^ 1);
    for case in 0..CASES {
        let (n, k, a, b, seed) = gen_instance(&mut rng);
        let c = ctx();
        let keys = workloads::generate(Workload::UniformPerm, n, seed);
        let file = c.stats().paused(|| EmFile::from_slice(&c, &keys)).unwrap();
        let spec = ProblemSpec::new(n, k, a, b).unwrap();
        let parts = approx_partitioning(&file, &spec).unwrap();
        let rep = verify_partitioning(&parts, &spec).unwrap();
        assert!(rep.ok, "case {case}: {} report {:?}", spec, rep);
        // Multiset preservation.
        let mut all = Vec::new();
        for p in &parts {
            all.extend(p.to_vec().unwrap());
        }
        all.sort_unstable();
        let mut want = keys.clone();
        want.sort_unstable();
        assert_eq!(all, want, "case {case}: {spec}");
    }
}

#[test]
fn multi_select_matches_reference() {
    let mut rng = SplitMix64::new(MASTER_SEED ^ 2);
    for case in 0..CASES {
        let n = 100 + rng.below(2400);
        let seed = rng.next_u64();
        let wl = if rng.below(2) == 0 {
            Workload::FewDistinct {
                values: 1 + rng.below(19),
            }
        } else {
            Workload::UniformPerm
        };
        let num_ranks = 1 + rng.below(11) as usize;
        let c = ctx();
        let keys = workloads::generate(wl, n, seed);
        let file = c.stats().paused(|| EmFile::from_slice(&c, &keys)).unwrap();
        let ranks: Vec<u64> = (0..num_ranks).map(|_| 1 + rng.below(n)).collect();
        let got = multi_select(&file, &ranks).unwrap();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let want: Vec<u64> = ranks.iter().map(|&r| sorted[(r - 1) as usize]).collect();
        assert_eq!(got, want, "case {case}: n={n} ranks={ranks:?}");
    }
}

#[test]
fn external_sort_matches_reference() {
    let mut rng = SplitMix64::new(MASTER_SEED ^ 3);
    for case in 0..CASES {
        let n = 1 + rng.below(3999);
        let seed = rng.next_u64();
        let wl = if rng.below(2) == 0 {
            Workload::FewDistinct {
                values: 1 + rng.below(49),
            }
        } else {
            Workload::UniformPerm
        };
        let c = ctx();
        let keys = workloads::generate(wl, n, seed);
        let file = c.stats().paused(|| EmFile::from_slice(&c, &keys)).unwrap();
        let sorted = external_sort(&file).unwrap().to_vec().unwrap();
        let mut want = keys.clone();
        want.sort_unstable();
        assert_eq!(sorted, want, "case {case}: n={n} wl={wl:?}");
    }
}

#[test]
fn split_at_rank_exact() {
    let mut rng = SplitMix64::new(MASTER_SEED ^ 4);
    for case in 0..CASES {
        let n = 50 + rng.below(2450);
        let seed = rng.next_u64();
        let wl = if rng.below(2) == 0 {
            Workload::FewDistinct {
                values: 1 + rng.below(9),
            }
        } else {
            Workload::UniformPerm
        };
        let c = ctx();
        let keys = workloads::generate(wl, n, seed);
        let file = c.stats().paused(|| EmFile::from_slice(&c, &keys)).unwrap();
        let count = 1 + seed % n;
        let (low, high, boundary) = emselect::split_at_rank(&file, count).unwrap();
        assert_eq!(low.len(), count, "case {case}");
        assert_eq!(high.len(), n - count, "case {case}");
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(boundary, sorted[(count - 1) as usize], "case {case}");
        assert!(low.to_vec().unwrap().iter().all(|&x| x <= boundary));
        assert!(high.to_vec().unwrap().iter().all(|&x| x >= boundary));
    }
}

#[test]
fn quantiles_are_valid_splitters() {
    let mut rng = SplitMix64::new(MASTER_SEED ^ 5);
    for case in 0..CASES {
        let n = 100 + rng.below(1900);
        let q = 2 + rng.below(14);
        let seed = rng.next_u64();
        let c = ctx();
        let keys = workloads::generate(Workload::UniformPerm, n, seed);
        let file = c.stats().paused(|| EmFile::from_slice(&c, &keys)).unwrap();
        let qs = quantiles(&file, q).unwrap();
        assert_eq!(qs.len(), (q - 1) as usize, "case {case}");
        // Induced partitions must be near-even: in {floor(n/q), ..., ceil(n/q)+1}.
        let spec = ProblemSpec::new(n, q, n / q, n.div_ceil(q)).unwrap();
        let rep = verify_splitters(&file, &qs, &spec).unwrap();
        assert!(rep.ok, "case {case}: sizes {:?}", rep.sizes);
    }
}

#[test]
fn memory_budget_never_exceeded() {
    let mut rng = SplitMix64::new(MASTER_SEED ^ 6);
    for case in 0..CASES {
        let n = 500 + rng.below(2500);
        let k = 2 + rng.below(10);
        let seed = rng.next_u64();
        // Strict contexts panic on violation, so survival is the assertion.
        let c = EmContext::new_in_memory_strict(EmConfig::new(512, 16).unwrap());
        let keys = workloads::generate(Workload::UniformPerm, n, seed);
        let file = c.stats().paused(|| EmFile::from_slice(&c, &keys)).unwrap();
        let spec = ProblemSpec::new(n, k, 1, n).unwrap();
        let sp = approx_splitters(&file, &spec).unwrap();
        assert_eq!(sp.len(), (k - 1) as usize, "case {case}");
        let parts = approx_partitioning(&file, &spec).unwrap();
        assert_eq!(parts.len(), k as usize, "case {case}");
        assert!(c.mem().peak() <= c.mem().capacity(), "case {case}");
    }
}

#[test]
fn entry_points_verify_on_random_geometries() {
    // Random B and M/B ≥ 16 on strict contexts, over `u64` and `KeyValue`
    // records with distinct or duplicate-heavy keys: on every draw the
    // partitioning and the splitters verify against the spec, the
    // partitions hold the input's multiset, and peak ≤ M. Splitters are
    // input elements, so duplicate-heavy draws find them over `Indexed`
    // records, whose keys are distinct.
    let mut rng = SplitMix64::new(MASTER_SEED ^ 7);
    for case in 0..CASES {
        let block = 4usize << rng.below(4);
        let m = block * (16 + rng.below(49) as usize);
        let (n, k, a, b, seed) = gen_instance(&mut rng);
        let spec = ProblemSpec::new(n, k, a, b).unwrap();
        let dups = rng.below(2) == 0;
        let wl = if dups {
            Workload::FewDistinct {
                values: 1 + rng.below(16),
            }
        } else {
            Workload::UniformPerm
        };
        let keys = workloads::generate(wl, n, seed);
        let cfg = EmConfig::new(m, block).unwrap();
        let case = format!("case {case}: M = {m}, B = {block}, {spec}, {wl:?}");
        if rng.below(2) == 0 {
            verify_draw(cfg, &keys, &spec, dups, |&x| (x, 0), &case);
        } else {
            let records: Vec<KeyValue> = keys
                .iter()
                .enumerate()
                .map(|(i, &key)| KeyValue {
                    key,
                    value: i as u64,
                })
                .collect();
            let pair = |r: &KeyValue| (r.key, r.value);
            verify_draw(cfg, &records, &spec, dups, pair, &case);
        }
    }
}

/// Partition and split `data` on a strict context with `cfg`, and check
/// both against `spec`, the partitions' multiset (compared as `pair`s)
/// and peak ≤ M. With `dups` the splitters run over `Indexed` records.
fn verify_draw<T: Record>(
    cfg: EmConfig,
    data: &[T],
    spec: &ProblemSpec,
    dups: bool,
    pair: impl Fn(&T) -> (u64, u64),
    case: &str,
) {
    let c = EmContext::new_in_memory_strict(cfg);
    let file = c.stats().paused(|| EmFile::from_slice(&c, data)).unwrap();
    let parts = approx_partitioning(&file, spec).unwrap();
    let rep = verify_partitioning(&parts, spec).unwrap();
    assert!(rep.ok, "{case}: {rep:?}");
    let mut got: Vec<(u64, u64)> = Vec::new();
    for p in &parts {
        got.extend(p.to_vec().unwrap().iter().map(&pair));
    }
    got.sort_unstable();
    let mut want: Vec<(u64, u64)> = data.iter().map(&pair).collect();
    want.sort_unstable();
    assert_eq!(got, want, "{case}: multiset");
    drop(parts);

    if dups {
        let indexed: Vec<Indexed<T>> = data
            .iter()
            .enumerate()
            .map(|(i, &r)| Indexed::new(r, i as u64))
            .collect();
        let file = c.stats().paused(|| EmFile::from_slice(&c, &indexed));
        verify_splitter_sizes(&file.unwrap(), spec, case);
    } else {
        verify_splitter_sizes(&file, spec, case);
    }
    assert!(
        c.mem().peak() <= cfg.mem_capacity(),
        "{case}: peak {}",
        c.mem().peak()
    );
}

/// `approx_splitters` of `file` for `spec`, checked against the spec.
fn verify_splitter_sizes<T: Record>(file: &EmFile<T>, spec: &ProblemSpec, case: &str) {
    let sp = approx_splitters(file, spec).unwrap();
    assert_eq!(sp.len(), (spec.k - 1) as usize, "{case}");
    let rep = verify_splitters(file, &sp, spec).unwrap();
    assert!(rep.ok, "{case}: splitter sizes {:?}", rep.sizes);
}
