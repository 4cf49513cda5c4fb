//! Property loop: pushing records into a [`RunWriter`] and draining the
//! streamed last merge pass yields exactly what [`external_sort`] writes —
//! at every size around the load-buffer boundary, for one- and two-word
//! records with heavy duplicates, at budgets that force reduce passes,
//! with the caller's own buffers held while it drains, and with a
//! governor squeeze between `finish` and draining.
//!
//! A seeded [`SplitMix64`] loop rather than a shrinking framework (the
//! workspace builds offline with no external dependencies); every failure
//! names its case, and the master seed always replays the same cases.

use std::fmt::Debug;

use emcore::{EmConfig, EmContext, EmFile, KeyValue, Record, SplitMix64};
use emsort::{external_sort, max_merge_fan_in, RunWriter};

const CASES: usize = 40;
const MASTER_SEED: u64 = 0x5eed_50a7;

/// Records the loop can draw: a key from `0..keys` plus a free payload.
trait Draw: Record + PartialEq + Debug {
    fn draw(rng: &mut SplitMix64, keys: u64) -> Self;
}

impl Draw for u64 {
    fn draw(rng: &mut SplitMix64, keys: u64) -> Self {
        rng.below(keys)
    }
}

impl Draw for KeyValue {
    fn draw(rng: &mut SplitMix64, keys: u64) -> Self {
        KeyValue {
            key: rng.below(keys),
            value: rng.next_u64(),
        }
    }
}

/// One drawn instance: machine, input size and shape, and what the
/// drain does to the budget.
#[derive(Debug, Clone, Copy)]
struct Case {
    m: usize,
    b: usize,
    strict: bool,
    n: u64,
    keys: u64,
    /// Words the caller holds while it drains.
    reserve: usize,
    /// Budget in force between `finish` and draining, if squeezed.
    squeeze: Option<usize>,
    seed: u64,
}

fn gen_case<T: Record>(rng: &mut SplitMix64) -> Case {
    let m = [256, 512, 1024][rng.below(3) as usize];
    let b = [16, 32][rng.below(2) as usize];
    // One load buffer of `T`: the budget less the reader and writer
    // blocks (`b` words each), as run formation sizes it.
    let load = (m - 2 * b) / T::WORDS;
    let cfg = EmConfig::new(m, b).unwrap();
    let one_merge = max_merge_fan_in::<T>(cfg).min(cfg.fan_in()) as u64;
    let n = match rng.below(6) {
        0 => 0,
        1 => 1,
        2 => load as u64,
        3 => load as u64 + 1,
        // As many runs as one merge admits with nothing else held: the
        // boundary where the caller's reserve must force a reduce pass.
        4 => one_merge * load as u64,
        // Many runs; past the fan-in at the smaller budgets, so the
        // stream needs reduce passes first.
        _ => (2 + rng.below(30)) * load as u64 + rng.below(load as u64),
    };
    let keys = if rng.below(2) == 0 {
        1 + rng.below(8)
    } else {
        u64::MAX
    };
    let reserve = [0, b, 2 * b][rng.below(3) as usize];
    // Halving the smallest machine would leave no room for a two-way
    // merge next to the reserve: a typed error, not a property.
    let squeeze = (m >= 512 && rng.below(3) == 0).then_some(m / 2);
    Case {
        m,
        b,
        strict: rng.below(2) == 0,
        n,
        keys,
        reserve,
        squeeze,
        seed: rng.next_u64(),
    }
}

fn context(case: &Case) -> EmContext {
    let cfg = EmConfig::new(case.m, case.b).unwrap();
    if case.strict {
        EmContext::new_in_memory_strict(cfg)
    } else {
        EmContext::new_in_memory(cfg)
    }
}

/// I/O the `sort/merge` phase has charged so far on `ctx`.
fn merge_phase_ios(ctx: &EmContext) -> u64 {
    ctx.stats()
        .phase_totals()
        .iter()
        .find(|(name, _)| name == "sort/merge")
        .map_or(0, |(_, c)| c.total_ios())
}

/// Run one case; returns whether the stream needed reduce passes and
/// whether its runs fit one final merge of two or more runs.
fn check<T: Draw>(case_no: usize, case: Case) -> (bool, bool) {
    let ctx = context(&case);
    let mut rng = SplitMix64::new(case.seed);
    let data: Vec<T> = (0..case.n).map(|_| T::draw(&mut rng, case.keys)).collect();
    let input = ctx
        .stats()
        .paused(|| EmFile::from_slice(&ctx, &data))
        .unwrap();

    // Reference: the sorted file, plus one scan of it.
    let before = ctx.stats().snapshot();
    let sorted = external_sort(&input).unwrap();
    let mut r = sorted.reader().unwrap();
    while r.next().unwrap().is_some() {}
    drop(r);
    let sort_and_scan = ctx.stats().snapshot().since(&before).total_ios();
    let want = ctx.oracle(|| sorted.to_vec()).unwrap();
    let out_blocks = sorted.num_blocks();
    drop(sorted);

    // Streamed: push, finish, (squeeze), drain with the reserve held.
    let before = ctx.stats().snapshot();
    let mut writer = RunWriter::new(&ctx);
    let mut r = input.reader().unwrap();
    while let Some(x) = r.next().unwrap() {
        writer.push(x).unwrap();
    }
    drop(r);
    let mut runs = writer.finish().unwrap();
    let formed = runs.len();
    if let Some(words) = case.squeeze {
        ctx.set_mem_budget(words);
    }
    let held = ctx
        .mem()
        .try_charge(case.reserve, "caller buffers")
        .unwrap();
    let merged_before = merge_phase_ios(&ctx);
    let mut stream = runs
        .stream(case.reserve)
        .unwrap_or_else(|e| panic!("case {case_no} {case:?}: {e}"));
    let reduced = merge_phase_ios(&ctx) > merged_before;
    let mut got = Vec::with_capacity(data.len());
    while let Some(x) = stream.next().unwrap() {
        got.push(x);
    }
    drop(stream);
    drop(held);
    let streamed = ctx.stats().snapshot().since(&before).total_ios();
    ctx.set_mem_budget(case.m);

    assert_eq!(got, want, "case {case_no} {case:?}: stream differs");
    let mut keys: Vec<T::Key> = data.iter().map(Record::key).collect();
    keys.sort_unstable();
    assert!(
        got.iter().map(Record::key).eq(keys),
        "case {case_no} {case:?}: not the sorted input"
    );
    if !reduced {
        // The runs fit one final merge: the stream skips writing the
        // sorted file and reading it back. A single run is no merge at
        // all — `external_sort` returns it as is.
        let saved = if formed >= 2 { 2 * out_blocks } else { 0 };
        assert_eq!(
            streamed + saved,
            sort_and_scan,
            "case {case_no} {case:?}: {formed} runs"
        );
    }
    (reduced, !reduced && formed >= 2)
}

/// Run every case of one record type and check that the draws reached
/// both branches of the stream.
fn check_all<T: Draw>(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let (mut reduced, mut direct) = (0, 0);
    for case_no in 0..CASES {
        let (r, d) = check::<T>(case_no, gen_case::<T>(&mut rng));
        reduced += usize::from(r);
        direct += usize::from(d);
    }
    assert!(reduced > 0, "no case needed reduce passes");
    assert!(direct > 0, "no case merged straight into the stream");
}

#[test]
fn stream_equals_sort_u64() {
    check_all::<u64>(MASTER_SEED);
}

#[test]
fn stream_equals_sort_key_value() {
    check_all::<KeyValue>(MASTER_SEED ^ 1);
}
