//! The experiment suite: one function per row of DESIGN.md's
//! per-experiment index. Every function returns a printable [`Table`]
//! with measured I/O next to the paper's predicted bound.

use apsplit::{
    approx_partitioning_with, approx_splitters, approx_splitters_with, bounds,
    precise_partitioning, precise_via_approx, precise_via_approx_with_step,
    sort_based_partitioning, sort_based_splitters, verify_partitioning, verify_splitters,
    ProblemSpec,
};
use emcore::{EmContext, EmFile, FaultPlan, RetryPolicy};
use emselect::{
    max_deterministic_fanout, multi_partition_with, multi_select, sample_splitters, MpOptions,
    MsOptions, SplitterStrategy,
};
use workloads::{materialize, Workload};

use crate::harness::{bench_config, bench_ctx, emit, fnum, measure, Scale, Table};

const SEED: u64 = 20140623; // SPAA'14 started June 23, 2014

fn fresh_input(n: u64) -> (EmContext, EmFile<u64>) {
    let ctx = bench_ctx();
    let f = materialize(&ctx, Workload::UniformPerm, n, SEED).expect("materialize");
    (ctx, f)
}

fn scan(n: u64) -> f64 {
    bench_config().scan_bound(n)
}

/// The paper cells' multi-partition options: the deterministic Hu et al.
/// substitute, not the library default's stratified blocks, so the
/// Table-1 ratios keep measuring the algorithm the bounds describe.
fn paper_mp() -> MpOptions {
    MpOptions {
        strategy: SplitterStrategy::Deterministic,
        fanout_override: None,
    }
}

/// EX-T1-SR: right-grounded approximate K-splitters, sweeping `a`.
/// Claim: `Θ((1 + aK/B)·lg_{M/B}(K/B))` — sublinear for small `a`.
pub fn ex_splitters_right(scale: Scale) -> Table {
    let n = scale.n();
    let k = 64u64;
    let mut t = Table::new(
        "EX-T1-SR",
        &format!("splitters, right-grounded (b = N): I/O vs a  [N={n}, K={k}]"),
        &[
            "a",
            "measured I/O",
            "predicted Θ",
            "meas/pred",
            "scans (N/B units)",
            "sublinear?",
        ],
    );
    let mut sweep: Vec<u64> = vec![2, 16, 128, 1024, n / k];
    sweep.dedup();
    for a in sweep {
        let (ctx, f) = fresh_input(n);
        let spec = ProblemSpec::new(n, k, a, n).expect("feasible");
        let (r, io, _) = measure(&ctx, || approx_splitters(&f, &spec));
        let sp = r.expect("splitters");
        let rep = ctx
            .stats()
            .paused(|| verify_splitters(&f, &sp, &spec))
            .expect("verify");
        assert!(rep.ok, "invalid output at a={a}: {:?}", rep.sizes);
        let pred = bounds::splitters_right(bench_config(), n, k, a);
        let meas = io.total_ios() as f64;
        t.row(vec![
            a.to_string(),
            fnum(meas),
            fnum(pred),
            fnum(meas / pred),
            fnum(meas / scan(n)),
            if meas < scan(n) {
                "YES".into()
            } else {
                "no".into()
            },
        ]);
    }
    t.note("paper: cost grows with aK, independent of N; sublinear whenever aK ≪ N (Thm 1/5)");
    t
}

/// EX-T1-SL: left-grounded approximate K-splitters, sweeping `b`.
/// Claim: `Θ((N/B)·lg_{M/B}(N/(bB)))`.
pub fn ex_splitters_left(scale: Scale) -> Table {
    let n = scale.n();
    let k = 64u64;
    let mut t = Table::new(
        "EX-T1-SL",
        &format!("splitters, left-grounded (a = 0): I/O vs b  [N={n}, K={k}]"),
        &["b", "measured I/O", "predicted Θ", "meas/pred", "scans"],
    );
    let mut b_sweep = vec![n / k, 4 * n / k, 16 * n / k, n / 4, n / 2];
    b_sweep.dedup();
    for b in b_sweep {
        let (ctx, f) = fresh_input(n);
        let spec = ProblemSpec::new(n, k, 0, b).expect("feasible");
        let (r, io, _) = measure(&ctx, || approx_splitters(&f, &spec));
        let sp = r.expect("splitters");
        let rep = ctx
            .stats()
            .paused(|| verify_splitters(&f, &sp, &spec))
            .expect("verify");
        assert!(rep.ok, "invalid output at b={b}");
        let pred = bounds::splitters_left(bench_config(), n, k, b);
        let meas = io.total_ios() as f64;
        t.row(vec![
            b.to_string(),
            fnum(meas),
            fnum(pred),
            fnum(meas / pred),
            fnum(meas / scan(n)),
        ]);
    }
    t.note("paper: cost decreases as b grows (coarser constraint), Θ(N/B) once b = Ω(N/(M/B)) (Thm 2/5)");
    t
}

/// EX-T1-S2: two-sided approximate K-splitters over an (a, b) grid.
pub fn ex_splitters_two_sided(scale: Scale) -> Table {
    let n = scale.n();
    let k = 64u64;
    let mut t = Table::new(
        "EX-T1-S2",
        &format!("splitters, two-sided: I/O over (a, b)  [N={n}, K={k}]"),
        &["a", "b", "case", "measured I/O", "predicted Θ", "meas/pred"],
    );
    let grid = [
        (2u64, n / 2),
        (2, 4 * n / k),
        (n / (4 * k), n / 2),
        (n / (2 * k), n / k + 1), // quantile-easy
        (16, 16 * n / k),
    ];
    for (a, b) in grid {
        let (ctx, f) = fresh_input(n);
        let spec = ProblemSpec::new(n, k, a, b).expect("feasible");
        let case = if spec.quantile_suffices() {
            "quantile"
        } else {
            "split"
        };
        let (r, io, _) = measure(&ctx, || approx_splitters(&f, &spec));
        let sp = r.expect("splitters");
        let rep = ctx
            .stats()
            .paused(|| verify_splitters(&f, &sp, &spec))
            .expect("verify");
        assert!(
            rep.ok,
            "invalid output at a={a}, b={b}: sizes {:?}",
            rep.sizes
        );
        let pred = bounds::splitters_two_sided(bench_config(), n, k, a, b);
        let meas = io.total_ios() as f64;
        t.row(vec![
            a.to_string(),
            b.to_string(),
            case.into(),
            fnum(meas),
            fnum(pred),
            fnum(meas / pred),
        ]);
    }
    t.note("paper: Θ((1+aK/B)·lg(K/B) + (N/B)·lg(N/(bB))) (Thms 1/2/5)");
    t
}

/// EX-T1-PR: right-grounded approximate K-partitioning, sweeping `a`.
pub fn ex_partition_right(scale: Scale) -> Table {
    let n = scale.n();
    let k = 64u64;
    let mut t = Table::new(
        "EX-T1-PR",
        &format!("partitioning, right-grounded (b = N): I/O vs a  [N={n}, K={k}]"),
        &["a", "measured I/O", "predicted O", "meas/pred", "scans"],
    );
    let mut sweep: Vec<u64> = vec![0, 16, 128, 1024, n / k];
    sweep.dedup();
    for a in sweep {
        let (ctx, f) = fresh_input(n);
        let spec = ProblemSpec::new(n, k, a, n).expect("feasible");
        let (r, io, _) = measure(&ctx, || approx_partitioning_with(&f, &spec, paper_mp()));
        let parts = r.expect("partitioning");
        let rep = ctx
            .stats()
            .paused(|| verify_partitioning(&parts, &spec))
            .expect("verify");
        assert!(rep.ok, "invalid output at a={a}: {:?}", rep.sizes);
        let pred = bounds::partitioning_right(bench_config(), n, k, a);
        let meas = io.total_ios() as f64;
        t.row(vec![
            a.to_string(),
            fnum(meas),
            fnum(pred),
            fnum(meas / pred),
            fnum(meas / scan(n)),
        ]);
    }
    t.note("paper: O(N/B + (aK/B)·lg min{K, aK/B}); the N/B term dominates for small aK (Thm 6)");
    t
}

/// EX-T1-PL: left-grounded approximate K-partitioning, sweeping `b`.
pub fn ex_partition_left(scale: Scale) -> Table {
    let n = scale.n();
    let k = 64u64;
    let mut t = Table::new(
        "EX-T1-PL",
        &format!("partitioning, left-grounded (a = 0): I/O vs b  [N={n}, K={k}]"),
        &["b", "measured I/O", "predicted Θ", "meas/pred", "scans"],
    );
    let mut b_sweep = vec![n / k, 4 * n / k, 16 * n / k, n / 4, n / 2];
    b_sweep.dedup();
    for b in b_sweep {
        let (ctx, f) = fresh_input(n);
        let spec = ProblemSpec::new(n, k, 0, b).expect("feasible");
        let (r, io, _) = measure(&ctx, || approx_partitioning_with(&f, &spec, paper_mp()));
        let parts = r.expect("partitioning");
        let rep = ctx
            .stats()
            .paused(|| verify_partitioning(&parts, &spec))
            .expect("verify");
        assert!(rep.ok, "invalid output at b={b}: {:?}", rep.sizes);
        let pred = bounds::partitioning_left(bench_config(), n, k, b);
        let meas = io.total_ios() as f64;
        t.row(vec![
            b.to_string(),
            fnum(meas),
            fnum(pred),
            fnum(meas / pred),
            fnum(meas / scan(n)),
        ]);
    }
    t.note("paper: Θ((N/B)·lg min{N/b, N/B}) — like sorting into ⌈N/b⌉ buckets (Thms 3/6)");
    t
}

/// EX-T1-P2: two-sided approximate K-partitioning over an (a, b) grid.
pub fn ex_partition_two_sided(scale: Scale) -> Table {
    let n = scale.n();
    let k = 64u64;
    let mut t = Table::new(
        "EX-T1-P2",
        &format!("partitioning, two-sided: I/O over (a, b)  [N={n}, K={k}]"),
        &["a", "b", "case", "measured I/O", "predicted O", "meas/pred"],
    );
    let grid = [
        (2u64, n / 2),
        (2, 4 * n / k),
        (n / (4 * k), n / 2),
        (n / (2 * k), n / k + 1),
        (16, 16 * n / k),
    ];
    for (a, b) in grid {
        let (ctx, f) = fresh_input(n);
        let spec = ProblemSpec::new(n, k, a, b).expect("feasible");
        let case = if spec.quantile_suffices() {
            "quantile"
        } else {
            "split"
        };
        let (r, io, _) = measure(&ctx, || approx_partitioning_with(&f, &spec, paper_mp()));
        let parts = r.expect("partitioning");
        let rep = ctx
            .stats()
            .paused(|| verify_partitioning(&parts, &spec))
            .expect("verify");
        assert!(rep.ok, "invalid output at a={a}, b={b}: {:?}", rep.sizes);
        let pred = bounds::partitioning_two_sided(bench_config(), n, k, a, b);
        let meas = io.total_ios() as f64;
        t.row(vec![
            a.to_string(),
            b.to_string(),
            case.into(),
            fnum(meas),
            fnum(pred),
            fnum(meas / pred),
        ]);
    }
    t.note("paper: O((aK/B)·lg min{K, aK/B} + (N/B)·lg min{N/b, N/B}) (Thm 6)");
    t
}

/// EX-SEP: the §1.3 separation — multi-selection vs multi-partition as a
/// function of K.
pub fn ex_separation(scale: Scale) -> Table {
    let n = scale.n();
    let mut t = Table::new(
        "EX-SEP",
        &format!("multi-selection vs multi-partition: I/O vs K  [N={n}]"),
        &[
            "K",
            "multi-select I/O",
            "multi-partition I/O",
            "ratio (mp/ms)",
            "ms bound",
            "mp bound",
        ],
    );
    // The fixed K up to N/8, then K = N/5 and K = N: many ranks, where
    // multi-selection must still cost about a sort.
    let fixed = [4u64, 64, 512, 4096, 16384]
        .into_iter()
        .filter(|&k| k <= n / 8);
    for k in fixed.chain([n / 5, n]) {
        // Near-even ranks/sizes (k need not divide n).
        let ranks: Vec<u64> = (1..=k).map(|i| (i * n) / k).collect();
        let (ctx, f) = fresh_input(n);
        let (r, io_ms, _) = measure(&ctx, || multi_select(&f, &ranks));
        r.expect("multi-select");
        let mut sizes = Vec::with_capacity(k as usize);
        let mut prev = 0u64;
        for &r in &ranks {
            sizes.push(r - prev);
            prev = r;
        }
        let (ctx2, f2) = fresh_input(n);
        let (r2, io_mp, _) = measure(&ctx2, || multi_partition_with(&f2, &sizes, paper_mp()));
        r2.expect("multi-partition");
        let ms = io_ms.total_ios() as f64;
        let mp = io_mp.total_ios() as f64;
        t.row(vec![
            k.to_string(),
            fnum(ms),
            fnum(mp),
            fnum(mp / ms),
            fnum(bounds::multi_select_bound(bench_config(), n, k)),
            fnum(bounds::multi_partition_bound(bench_config(), n, k)),
        ]);
    }
    t.note("paper §1.3: for K ≤ M/B both bounds clamp to Θ(N/B) (ratio ≈ 1 is the predicted shape); the bounds separate for K ∈ (M/B, B·M/B] — visible in the bound columns — while measured costs stay within constant-factor noise of each other at simulator scale (see EXPERIMENTS.md). The *dramatic* small-K separation the paper headlines is splitters-vs-partitioning: see EX-T1-SR (sublinear) vs EX-T1-PR (Ω(N/B)).");
    t
}

/// EX-SORT: every approximate algorithm against its sort-based baseline.
pub fn ex_vs_sort(scale: Scale) -> Table {
    let n = scale.n();
    let k = 64u64;
    let mut t = Table::new(
        "EX-SORT",
        &format!("approximate algorithms vs the §1.2 sorting baseline  [N={n}, K={k}]"),
        &["problem", "spec", "approx I/O", "sort-based I/O", "speedup"],
    );
    let right = ProblemSpec::new(n, k, 4, n).unwrap();
    let left = ProblemSpec::new(n, k, 0, 8 * n / k).unwrap();
    let two_sided = ProblemSpec::new(n, k, 4, n / 2).unwrap();
    // `None` finds splitters; `Some` partitions with the paper cells'
    // deterministic sampler or with the library default's stratified one.
    let stratified = Some(MpOptions::default());
    let specs = [
        ("splitters/right", right, None),
        ("splitters/left", left, None),
        ("splitters/2-sided", two_sided, None),
        ("partition/right", right, Some(paper_mp())),
        ("partition/left", left, Some(paper_mp())),
        ("partition/2-sided", two_sided, Some(paper_mp())),
        ("partition/right (stratified)", right, stratified),
        ("partition/left (stratified)", left, stratified),
        ("partition/2-sided (stratified)", two_sided, stratified),
    ];
    for (name, spec, opts) in specs {
        let (ctx, f) = fresh_input(n);
        let (ctx2, f2) = fresh_input(n);
        let (approx, base) = match opts {
            None => {
                let (r, io, _) = measure(&ctx, || approx_splitters(&f, &spec));
                r.expect("approx");
                let (r, base, _) = measure(&ctx2, || sort_based_splitters(&f2, &spec));
                r.expect("baseline");
                (io, base)
            }
            Some(opts) => {
                let (r, io, _) = measure(&ctx, || approx_partitioning_with(&f, &spec, opts));
                r.expect("approx");
                let (r, base, _) = measure(&ctx2, || sort_based_partitioning(&f2, &spec));
                r.expect("baseline");
                (io, base)
            }
        };
        let am = approx.total_ios() as f64;
        let bm = base.total_ios() as f64;
        t.row(vec![
            name.into(),
            format!("a={} b={}", spec.a, spec.b),
            fnum(am),
            fnum(bm),
            format!("{:.1}x", bm / am),
        ]);
    }
    t.note("paper §1.2: sorting solves everything in Θ((N/B)·lg(N/B)); the approximate algorithms must win, most dramatically for right-grounded splitters");
    t
}

/// EX-BASE: linearity of the Theorem-4 base case (the Hu-et-al. substrate
/// + intermixed selection): I/O per scan stays constant as N grows.
pub fn ex_base_case(scale: Scale) -> Table {
    let mut t = Table::new(
        "EX-BASE",
        "base-case multi-selection is linear: I/O / (N/B) vs N  [K=8]",
        &["N", "measured I/O", "scans", "m (base capacity)"],
    );
    let ns: Vec<u64> = match scale {
        Scale::Quick => vec![50_000, 100_000, 200_000, 400_000],
        Scale::Full => vec![100_000, 400_000, 1_600_000, 4_000_000],
    };
    for n in ns {
        let (ctx, f) = fresh_input(n);
        let trace = crate::harness::attach_trace(&ctx, &format!("ex-base-n{n}"));
        let ranks: Vec<u64> = (1..=8u64).map(|i| i * (n / 8)).collect();
        let (r, io, _) = measure(&ctx, || multi_select(&f, &ranks));
        r.expect("multi-select");
        if trace.is_some() {
            ctx.finish_trace();
        }
        let m = emselect::base_case_capacity::<u64>(&ctx, &MsOptions::default());
        t.row_with_phases(
            vec![
                n.to_string(),
                fnum(io.total_ios() as f64),
                fnum(io.total_ios() as f64 / scan(n)),
                m.to_string(),
            ],
            ctx.stats().phase_totals(),
        );
    }
    t.note("paper §4.2: for K ≤ m the whole multi-selection costs O(N/B) — the 'scans' column must stay flat as N grows");
    t
}

/// EX-LB: measured cost vs the lower-bound formulas on the hard inputs.
pub fn ex_lower_bounds(scale: Scale) -> Table {
    let n = scale.n();
    let k = 64u64;
    let cfg = bench_config();
    let mut t = Table::new(
        "EX-LB",
        &format!("measured I/O vs Table-1 lower bounds (Π_hard inputs)  [N={n}, K={k}]"),
        &[
            "problem",
            "params",
            "workload",
            "measured",
            "lower bound",
            "meas/LB",
        ],
    );
    let wls = [
        Workload::UniformPerm,
        Workload::HardBlockColumns {
            block: cfg.block_size(),
        },
    ];
    for wl in wls {
        // Right-grounded splitters, a = 64.
        let a = 64u64;
        let ctx = bench_ctx();
        let f = materialize(&ctx, wl, n, SEED).unwrap();
        let spec = ProblemSpec::new(n, k, a, n).unwrap();
        let (r, io, _) = measure(&ctx, || approx_splitters(&f, &spec));
        r.expect("splitters");
        let lb = bounds::lb_splitters_right(cfg, n, k, a);
        t.row(vec![
            "splitters/right".into(),
            format!("a={a}"),
            workloads::name(wl),
            fnum(io.total_ios() as f64),
            fnum(lb),
            fnum(io.total_ios() as f64 / lb),
        ]);
        // Left-grounded splitters, b = 4N/K.
        let b = 4 * n / k;
        let ctx = bench_ctx();
        let f = materialize(&ctx, wl, n, SEED).unwrap();
        let spec = ProblemSpec::new(n, k, 0, b).unwrap();
        let (r, io, _) = measure(&ctx, || approx_splitters(&f, &spec));
        r.expect("splitters");
        let lb = bounds::lb_splitters_left(cfg, n, k, b);
        t.row(vec![
            "splitters/left".into(),
            format!("b={b}"),
            workloads::name(wl),
            fnum(io.total_ios() as f64),
            fnum(lb),
            fnum(io.total_ios() as f64 / lb),
        ]);
        // Left-grounded partitioning, b = 4N/K.
        let ctx = bench_ctx();
        let f = materialize(&ctx, wl, n, SEED).unwrap();
        let spec = ProblemSpec::new(n, k, 0, b).unwrap();
        let (r, io, _) = measure(&ctx, || approx_partitioning_with(&f, &spec, paper_mp()));
        r.expect("partitioning");
        let lb = bounds::lb_partitioning(cfg, n, k, b);
        t.row(vec![
            "partition/left".into(),
            format!("b={b}"),
            workloads::name(wl),
            fnum(io.total_ios() as f64),
            fnum(lb),
            fnum(io.total_ios() as f64 / lb),
        ]);
    }
    t.note("consistency check: measured ≥ Ω(·) formula (ratios ≥ ~1), incl. on the Π_hard block-column family used in the proofs of Thms 1–2");
    t
}

/// EX-A1: sampling-strategy ablation (the DESIGN.md substitution).
pub fn ex_ablation_sampling(scale: Scale) -> Table {
    let n = scale.n();
    let mut t = Table::new(
        "EX-A1",
        &format!("splitter sampling ablation: deterministic vs randomized vs stratified  [N={n}]"),
        &[
            "strategy",
            "max fan-out f",
            "max bucket / (n/f)",
            "sampling I/O",
            "2-sided splitters I/O",
        ],
    );
    for (name, strat) in [
        ("deterministic", Some(SplitterStrategy::Deterministic)),
        (
            "randomized(7)",
            Some(SplitterStrategy::Randomized { seed: 7 }),
        ),
        ("stratified", Some(SplitterStrategy::Stratified)),
        ("det-refined (2 rounds)", None),
    ] {
        let (ctx, f) = fresh_input(n);
        let fmax = match strat {
            Some(_) => max_deterministic_fanout(&f),
            None => 8 * max_deterministic_fanout(&f),
        };
        let (r, io_s, _) = measure(&ctx, || match strat {
            Some(st) => sample_splitters(&f, fmax, st),
            None => emselect::refined_splitters(&ctx, std::slice::from_ref(&f), fmax),
        });
        let sp = r.expect("splitters");
        let counts = ctx
            .stats()
            .paused(|| emselect::count_buckets(&f, &sp))
            .expect("counts");
        let maxb = *counts.iter().max().unwrap() as f64;
        let f_eff = counts.len();
        let spec = ProblemSpec::new(n, 64, 4, n / 2).unwrap();
        let (ctx2, f2) = fresh_input(n);
        let (r2, io_t, _) = measure(&ctx2, || {
            approx_splitters_with(
                &f2,
                &spec,
                MsOptions {
                    strategy: strat.unwrap_or(SplitterStrategy::Deterministic),
                    base_capacity_override: None,
                    base_case: Default::default(),
                },
            )
        });
        r2.expect("two-sided");
        t.row(vec![
            name.into(),
            f_eff.to_string(),
            fnum(maxb / (n as f64 / f_eff as f64)),
            fnum(io_s.total_ios() as f64),
            fnum(io_t.total_ios() as f64),
        ]);
    }
    t.note("the one-round deterministic substitute guarantees buckets ≤ 2n/f up to f = Θ(M/log(N/M)); the two-round refinement reaches Θ(M) deterministically (restoring the paper's base-case capacity) and randomized reservoirs reach Θ(M) w.h.p. — all preserve the Table-1 shapes");
    t.note("stratified (the multi-partition default, MpOptions::default()) reads one seeded block from each of ⌊C/B⌋ strata: O(M/B) sampling I/Os and no bucket guarantee, which multi-partition makes up for by sampling any piece above 2n/f deterministically");
    t
}

/// EX-A3: base-case engine ablation — the paper-faithful §4.2 intermixed
/// construction vs the pruned-distribution engine, across K.
pub fn ex_ablation_engine(scale: Scale) -> Table {
    let n = scale.n();
    let mut t = Table::new(
        "EX-A3",
        &format!("base-case engine ablation: pruned vs intermixed (§4.2)  [N={n}]"),
        &["K", "pruned I/O", "intermixed I/O", "intermixed/pruned"],
    );
    for k in [4u64, 16, 64, 128] {
        let ranks: Vec<u64> = (1..=k).map(|i| (i * n) / k).collect();
        let run = |engine: emselect::MsBaseCase| -> u64 {
            let (ctx, f) = fresh_input(n);
            let opts = MsOptions {
                strategy: SplitterStrategy::Deterministic,
                base_capacity_override: None,
                base_case: engine,
            };
            let (r, io, _) = measure(&ctx, || emselect::multi_select_with(&f, &ranks, opts));
            r.expect("multi-select");
            io.total_ios()
        };
        let pruned = run(emselect::MsBaseCase::Pruned);
        let inter = run(emselect::MsBaseCase::Intermixed);
        t.row(vec![
            k.to_string(),
            fnum(pruned as f64),
            fnum(inter as f64),
            fnum(inter as f64 / pruned as f64),
        ]);
    }
    t.note("both engines are O(N/B) per base case; the intermixed construction (duplicated-bucket instance D + §4.1 selection over refined Θ(M) splitters) carries the larger constant but is the one that scales to m = Θ(M) groups beyond the distribution fan-out — the regime the paper is designed for");
    t
}

/// EX-A2: distribution fan-out ablation for multi-partition.
pub fn ex_ablation_fanout(scale: Scale) -> Table {
    let n = scale.n();
    let k = 256u64;
    let mut t = Table::new(
        "EX-A2",
        &format!("fan-out ablation: multi-partition I/O vs distribution fan-out  [N={n}, K={k}]"),
        &["fan-out", "measured I/O", "scans"],
    );
    let sizes: Vec<u64> = {
        let mut v = Vec::with_capacity(k as usize);
        let mut prev = 0u64;
        for i in 1..=k {
            let r = (i * n) / k;
            v.push(r - prev);
            prev = r;
        }
        v
    };
    for fo in [2usize, 4, 8, 16, 32, 64] {
        let (ctx, f) = fresh_input(n);
        let (r, io, _) = measure(&ctx, || {
            multi_partition_with(
                &f,
                &sizes,
                MpOptions {
                    strategy: SplitterStrategy::Deterministic,
                    fanout_override: Some(fo),
                },
            )
        });
        r.expect("multi-partition");
        t.row(vec![
            fo.to_string(),
            fnum(io.total_ios() as f64),
            fnum(io.total_ios() as f64 / scan(n)),
        ]);
    }
    t.note("why distribution uses fan-out Θ(M/B): each halving of the fan-out adds ~one more level of lg_{f} K passes");
    t
}

/// EX-RED: the §3 reduction — precise partitioning through the
/// approximate algorithm at +O(N/B).
pub fn ex_reduction(scale: Scale) -> Table {
    let n = scale.n();
    let mut t = Table::new(
        "EX-RED",
        &format!("§3 reduction: precise (N/b)-partitioning via approximate  [N={n}]"),
        &[
            "b",
            "K=N/b",
            "direct I/O",
            "via-approx (aligned)",
            "via-approx (misaligned)",
            "sweep overhead (scans)",
        ],
    );
    for div in [8u64, 32, 128] {
        let b = n / div;
        let (ctx, f) = fresh_input(n);
        let (r, io_d, _) = measure(&ctx, || precise_partitioning(&f, div));
        r.expect("direct");
        let (ctx2, f2) = fresh_input(n);
        let (r2, io_v, _) = measure(&ctx2, || precise_via_approx(&f2, b));
        r2.expect("via approx");
        // Misaligned step 1 (more, smaller partitions) exercises the
        // residue sweep; overhead must stay O(N/B).
        let (ctx3, f3) = fresh_input(n);
        let (r3, io_m, _) = measure(&ctx3, || precise_via_approx_with_step(&f3, b, (2 * b) / 3));
        r3.expect("via approx misaligned");
        let overhead = (io_m.total_ios() as f64 - io_v.total_ios() as f64).max(0.0);
        t.row(vec![
            b.to_string(),
            div.to_string(),
            fnum(io_d.total_ios() as f64),
            fnum(io_v.total_ios() as f64),
            fnum(io_m.total_ios() as f64),
            fnum(overhead / scan(n)),
        ]);
    }
    t.note("paper §3: the reduction costs F(N,K,b) + O(N/B); with an aligned step 1 (exact-b parts) the sweep is free, with a misaligned step 1 its overhead stays a bounded number of scans");
    t
}

/// EX-IM: the internal-memory contrast (§1.2–1.3) — multi-selection and
/// multi-partition demand the same Θ(N lg K) comparisons in RAM, while
/// their EM I/O bounds separate.
pub fn ex_internal_memory(scale: Scale) -> Table {
    let n = (scale.n() / 4).max(50_000);
    let mut t = Table::new(
        "EX-IM",
        &format!("internal memory: comparisons / (N·lg K), both problems  [N={n}]"),
        &[
            "K",
            "select cmps",
            "partition cmps",
            "select / N·lgK",
            "partition / N·lgK",
            "select/partition",
        ],
    );
    for k in [2u64, 8, 64, 512, 4096] {
        let ranks: Vec<u64> = (1..=k).map(|i| (i * n) / k).collect();
        let interior: Vec<u64> = ranks[..(k - 1) as usize].to_vec();
        let data = workloads::generate(Workload::UniformPerm, n, SEED);

        let mut d1 = data.clone();
        let c1 = emselect::CmpCounter::new();
        let _ = emselect::multi_select_counting(&mut d1, &ranks, &c1);

        let mut d2 = data.clone();
        let c2 = emselect::CmpCounter::new();
        emselect::multi_partition_counting(&mut d2, &interior, &c2);

        let denom = n as f64 * (k as f64).log2().max(1.0);
        t.row(vec![
            k.to_string(),
            fnum(c1.count() as f64),
            fnum(c2.count() as f64),
            fnum(c1.count() as f64 / denom),
            fnum(c2.count() as f64 / denom),
            fnum(c1.count() as f64 / c2.count() as f64),
        ]);
    }
    t.note("paper §1.3: \"in internal memory the two problems have exactly the same complexity: both demand Θ(N lg K) comparisons\" — the normalised columns stay flat and the cross-ratio stays ≈ 1, in contrast to the EM separation of EX-SEP");
    t
}

/// EX-SORT-N: where the win over sorting grows — speedup vs N for the
/// left-grounded partitioning cell (the sort depth grows with lg(N/B),
/// the approximate cost stays a fixed number of scans).
pub fn ex_vs_sort_scaling(scale: Scale) -> Table {
    let mut t = Table::new(
        "EX-SORT-N",
        "crossover scaling: partition/left speedup over sorting vs N  [K=64, b=8N/K]",
        &[
            "N",
            "approx I/O",
            "approx scans",
            "sort I/O",
            "sort scans",
            "speedup",
        ],
    );
    let ns: Vec<u64> = match scale {
        Scale::Quick => vec![50_000, 200_000, 800_000, 3_200_000],
        Scale::Full => vec![200_000, 800_000, 3_200_000, 12_800_000],
    };
    for n in ns {
        let k = 64u64;
        let spec = ProblemSpec::new(n, k, 0, 8 * n / k).expect("feasible");
        let (ctx, f) = fresh_input(n);
        let (r, io_a, _) = measure(&ctx, || approx_partitioning_with(&f, &spec, paper_mp()));
        r.expect("approx");
        let (ctx2, f2) = fresh_input(n);
        let (r2, io_s, _) = measure(&ctx2, || emsort::external_sort(&f2));
        r2.expect("sort");
        let a = io_a.total_ios() as f64;
        let s_io = io_s.total_ios() as f64;
        t.row(vec![
            n.to_string(),
            fnum(a),
            fnum(a / scan(n)),
            fnum(s_io),
            fnum(s_io / scan(n)),
            format!("{:.2}x", s_io / a),
        ]);
    }
    t.note("the approximate algorithm stays at a fixed number of scans while sorting adds a pass every time N/M crosses a power of the merge fan-in — 'who wins' grows with N exactly as the bound ratio lg(N/B)/lg(N/bB) predicts");
    t
}

/// EX-GEO: geometry robustness — the Table-1 ratios must hold across
/// machine shapes (M, B), not just the default simulator geometry.
pub fn ex_geometry(scale: Scale) -> Table {
    let n = scale.n();
    let k = 64u64;
    let mut t = Table::new(
        "EX-GEO",
        &format!("geometry sweep: two-sided cells across (M, B)  [N={n}, K={k}, a=16, b=N/2]"),
        &[
            "M",
            "B",
            "M/B",
            "splitters I/O",
            "s meas/pred",
            "partitioning I/O",
            "p meas/pred",
        ],
    );
    for (m, b) in [(1024usize, 32usize), (4096, 64), (16384, 128), (4096, 256)] {
        let cfg = emcore::EmConfig::new(m, b).expect("valid");
        let spec = ProblemSpec::new(n, k, 16, n / 2).expect("feasible");

        let ctx = emcore::EmContext::new_in_memory(cfg);
        let f = workloads::materialize(&ctx, Workload::UniformPerm, n, SEED).expect("gen");
        let (r, io_s, _) = measure(&ctx, || approx_splitters(&f, &spec));
        let sp = r.expect("splitters");
        let rep = ctx
            .stats()
            .paused(|| verify_splitters(&f, &sp, &spec))
            .expect("verify");
        assert!(rep.ok, "splitters invalid at M={m} B={b}");
        let pred_s = bounds::splitters_two_sided(cfg, n, k, 16, n / 2);

        let ctx2 = emcore::EmContext::new_in_memory(cfg);
        let f2 = workloads::materialize(&ctx2, Workload::UniformPerm, n, SEED).expect("gen");
        let (r2, io_p, _) = measure(&ctx2, || approx_partitioning_with(&f2, &spec, paper_mp()));
        let parts = r2.expect("partitioning");
        let rep = ctx2
            .stats()
            .paused(|| verify_partitioning(&parts, &spec))
            .expect("verify");
        assert!(rep.ok, "partitioning invalid at M={m} B={b}");
        let pred_p = bounds::partitioning_two_sided(cfg, n, k, 16, n / 2);

        t.row(vec![
            m.to_string(),
            b.to_string(),
            (m / b).to_string(),
            fnum(io_s.total_ios() as f64),
            fnum(io_s.total_ios() as f64 / pred_s),
            fnum(io_p.total_ios() as f64),
            fnum(io_p.total_ios() as f64 / pred_p),
        ]);
    }
    t.note("meas/pred stays in a small band across machine shapes; the visible 2x steps are level quantisation — the implementation pays an integer number of distribution levels while the clamped lg_{M/B} formula moves continuously, so the ratio steps exactly where a level boundary is crossed");
    t
}

/// EX-T1: the compact Table-1 summary — all six cells at representative
/// parameters, measured vs predicted vs the sort baseline.
pub fn table1(scale: Scale) -> Table {
    let n = scale.n();
    let k = 64u64;
    let cfg = bench_config();
    let mut t = Table::new(
        "EX-T1",
        &format!("Table 1 summary: all six cells  [N={n}, K={k}, M=4096, B=64]"),
        &[
            "cell",
            "params",
            "measured",
            "predicted",
            "meas/pred",
            "sort (measured)",
        ],
    );
    // Measure the sorting baseline once on the same input.
    let sort_meas = {
        let (ctx, f) = fresh_input(n);
        let (r, io, _) = measure(&ctx, || emsort::external_sort(&f));
        r.expect("sort");
        io.total_ios() as f64
    };
    let _ = bounds::sort_bound(cfg, n); // formula available in bounds::*
    type Runner = Box<dyn Fn(&EmContext, &EmFile<u64>, &ProblemSpec) -> u64>;
    let run_split: Runner = Box::new(|ctx, f, spec| {
        let (r, io, _) = measure(ctx, || approx_splitters(f, spec));
        r.expect("ok");
        io.total_ios()
    });
    let run_part: Runner = Box::new(|ctx, f, spec| {
        let (r, io, _) = measure(ctx, || approx_partitioning_with(f, spec, paper_mp()));
        r.expect("ok");
        io.total_ios()
    });
    let cells: Vec<(&str, ProblemSpec, &Runner, f64)> = vec![
        (
            "K-splitters / right",
            ProblemSpec::new(n, k, 16, n).unwrap(),
            &run_split,
            bounds::splitters_right(cfg, n, k, 16),
        ),
        (
            "K-splitters / left",
            ProblemSpec::new(n, k, 0, 8 * n / k).unwrap(),
            &run_split,
            bounds::splitters_left(cfg, n, k, 8 * n / k),
        ),
        (
            "K-splitters / 2-sided",
            ProblemSpec::new(n, k, 16, n / 2).unwrap(),
            &run_split,
            bounds::splitters_two_sided(cfg, n, k, 16, n / 2),
        ),
        (
            "K-partitioning / right",
            ProblemSpec::new(n, k, 16, n).unwrap(),
            &run_part,
            bounds::partitioning_right(cfg, n, k, 16),
        ),
        (
            "K-partitioning / left",
            ProblemSpec::new(n, k, 0, 8 * n / k).unwrap(),
            &run_part,
            bounds::partitioning_left(cfg, n, k, 8 * n / k),
        ),
        (
            "K-partitioning / 2-sided",
            ProblemSpec::new(n, k, 16, n / 2).unwrap(),
            &run_part,
            bounds::partitioning_two_sided(cfg, n, k, 16, n / 2),
        ),
    ];
    for (name, spec, runner, pred) in cells {
        let (ctx, f) = fresh_input(n);
        let meas = runner(&ctx, &f, &spec) as f64;
        t.row(vec![
            name.into(),
            format!("a={} b={}", spec.a, spec.b),
            fnum(meas),
            fnum(pred),
            fnum(meas / pred),
            fnum(sort_meas),
        ]);
    }
    t.note("reproduction criterion: meas/pred stays O(1) within each row family, and every cell beats the measured sort baseline (cf. paper Table 1)");
    t
}

/// EX-FAULT: I/O overhead of the fault-injection + retry + checksum stack
/// on the recoverable external sort, sweeping the transient fault rate on
/// both backings. Fault-free I/O counts are unchanged by construction
/// (each retried attempt charges only the `retries` counter plus backoff
/// ticks), so the `I/Os` column should be flat and `retries` should grow
/// linearly with the rate.
pub fn ex_fault_overhead(scale: Scale) -> Table {
    let n = scale.n() / 4;
    let mut t = Table::new(
        "EX-FAULT",
        &format!("recoverable sort under injected transient faults  [N={n}]"),
        &[
            "backend",
            "rate",
            "I/Os",
            "retries",
            "backoff ticks",
            "I/O overhead",
        ],
    );
    let rates = [0.0, 0.005, 0.01, 0.02, 0.05, 0.1];
    for backend in ["memory", "disk"] {
        let mut clean_ios = 0.0f64;
        for &rate in &rates {
            let ctx = match backend {
                "memory" => bench_ctx(),
                _ => EmContext::new_on_disk_temp(bench_config()).expect("tempdir"),
            };
            let plan = FaultPlan::new(SEED ^ ((rate * 1e6) as u64)).transient_rate(rate);
            ctx.install_fault_plan(plan.clone());
            ctx.set_retry_policy(RetryPolicy::retries(30));
            // Materialize as an oracle so the measured faults and retries
            // all belong to the sort itself.
            let f = ctx
                .oracle(|| materialize(&ctx, Workload::UniformPerm, n, SEED))
                .expect("materialize");
            let (r, io, _) = measure(&ctx, || emsort::external_sort_recoverable(&f));
            r.expect("recoverable sort");
            let ios = io.total_ios() as f64;
            if rate == 0.0 {
                clean_ios = ios;
            }
            t.row(vec![
                backend.into(),
                format!("{rate}"),
                fnum(ios),
                io.retries.to_string(),
                ctx.backoff_ticks().to_string(),
                format!("{:+.2}%", 100.0 * (ios - clean_ios) / clean_ios),
            ]);
        }
    }
    t.note("transient device faults are cured by bounded retries; retried attempts charge only `retries` + backoff ticks, so billed I/Os stay flat as the fault rate grows");
    t.note("the disk backend additionally verifies a per-block checksum on every read (stride carries 8 checksum bytes; billed bytes count payload only)");
    t
}

/// EX-PARALLEL: parallel external sort — wall-clock speedup vs worker
/// count `W` on both backends, with the buffer-pool cache armed. The
/// parallel sort keeps run boundaries, merge grouping, and fan-in
/// identical to the sequential plan, so logical I/Os and the sorted
/// output digest must match at every `W`; only wall-clock moves. Both
/// invariants are asserted row by row against the `W = 1` baseline.
pub fn ex_parallel(scale: Scale) -> Table {
    let n = scale.n();
    let cache_blocks = 128usize;
    // The disk backend lands in the OS page cache, where a "transfer" is a
    // memcpy and overlapping I/O with compute can win nothing — especially
    // on a single-core host. Simulate a fast-SSD-like per-block latency so
    // wall-clock reflects the I/O model the sort is designed for (the
    // memory backend stays unthrottled as the compute-bound contrast).
    let disk_latency_us = 25u64;
    let mut t = Table::new(
        "EX-PARALLEL",
        &format!(
            "parallel external sort: speedup vs workers  \
             [N={n}, cache={cache_blocks} blocks, disk latency {disk_latency_us}µs/block]"
        ),
        &[
            "backend",
            "W",
            "wall ms",
            "speedup",
            "logical I/O",
            "physical I/O",
            "cache hit %",
        ],
    );
    for backend in ["memory", "disk"] {
        let mut base = None; // (wall seconds, logical I/Os, digest) at W = 1
        for w in [1usize, 2, 4] {
            let cfg = bench_config()
                .with_workers(w)
                .with_cache_blocks(cache_blocks);
            let ctx = match backend {
                "memory" => EmContext::new_in_memory(cfg),
                _ => EmContext::new_on_disk_temp(cfg.with_device_latency_us(disk_latency_us))
                    .expect("tempdir"),
            };
            let f = materialize(&ctx, Workload::UniformPerm, n, SEED).expect("materialize");
            let (r, io, dt) = measure(&ctx, || emsort::external_sort(&f));
            let sorted = r.expect("sort");
            let digest = ctx
                .stats()
                .paused(|| sorted.to_vec())
                .expect("oracle read")
                .iter()
                .fold(0xcbf2_9ce4_8422_2325u64, |h, &x| {
                    (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
                });
            let secs = dt.as_secs_f64();
            let (base_secs, base_io, base_digest) =
                *base.get_or_insert((secs, io.total_ios(), digest));
            assert_eq!(
                io.total_ios(),
                base_io,
                "{backend}: logical I/Os at W={w} diverge from W=1"
            );
            assert_eq!(
                digest, base_digest,
                "{backend}: sorted output at W={w} diverges from W=1"
            );
            t.row(vec![
                backend.into(),
                w.to_string(),
                fnum(secs * 1e3),
                format!("{:.2}x", base_secs / secs),
                io.total_ios().to_string(),
                io.physical_ios().to_string(),
                format!("{:.1}", 100.0 * io.cache_hit_rate()),
            ]);
        }
    }
    t.note("logical I/Os and output digests are identical at every W (asserted): parallelism changes who does each unit of the sequential plan, never the plan itself");
    t.note("disk speedup comes from overlap — W run-formation workers read/sort/write concurrently, and merges overlap prefetch reads, the loser tree, and write-behind — so block-transfer latency is reclaimed even on a single-core host; the unthrottled memory backend is compute-bound and shows no such gain there");
    t.note("a streaming sort re-references almost nothing, so the buffer pool's hit rate stays near zero — the EM model's point that caching cannot rescue one-pass algorithms; hits appear on re-referencing workloads (see emcore::BlockCache tests)");
    t
}

/// Run every experiment and emit all tables.
pub fn all_experiments(scale: Scale) -> Vec<Table> {
    let tables = vec![
        table1(scale),
        ex_splitters_right(scale),
        ex_splitters_left(scale),
        ex_splitters_two_sided(scale),
        ex_partition_right(scale),
        ex_partition_left(scale),
        ex_partition_two_sided(scale),
        ex_separation(scale),
        ex_vs_sort(scale),
        ex_base_case(scale),
        ex_lower_bounds(scale),
        ex_ablation_sampling(scale),
        ex_ablation_fanout(scale),
        ex_ablation_engine(scale),
        ex_internal_memory(scale),
        ex_vs_sort_scaling(scale),
        ex_geometry(scale),
        ex_reduction(scale),
        ex_fault_overhead(scale),
        ex_parallel(scale),
        crate::serve_bench::ex_serve(scale),
        crate::crash_sweep::ex_recovery(scale),
    ];
    for t in &tables {
        emit(t);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    // Smoke-test the cheap experiments end to end at a tiny scale by
    // monkey-scaling through Scale::Quick. These guard the harness
    // plumbing; full runs happen via the binaries.

    #[test]
    fn table1_runs_and_beats_sort() {
        let t = table1(Scale::Quick);
        assert_eq!(t.rows.len(), 6);
        for row in &t.rows {
            let meas: f64 = row[2].replace(",", "").parse().unwrap();
            let sort: f64 = row[5].replace(",", "").parse().unwrap();
            assert!(
                meas < sort,
                "cell {} measured {meas} does not beat measured sort {sort}",
                row[0]
            );
        }
    }

    #[test]
    fn separation_table_shape() {
        let t = ex_separation(Scale::Quick);
        assert!(t.rows.len() >= 3);
        // Up to K = N/8, multi-select must track multi-partition within
        // constant-factor noise (both are Θ(N/B·lg) problems; the bound
        // gap is ≤ 2x at simulator scale).
        let n = Scale::Quick.n();
        let num = |s: &str| s.parse::<f64>().unwrap();
        for row in &t.rows {
            let (k, ratio) = (num(&row[0]), num(&row[3]));
            if k > (n / 8) as f64 {
                continue;
            }
            assert!(
                (0.7..=4.0).contains(&ratio),
                "K={} ratio {} outside constant-factor band",
                row[0],
                ratio
            );
        }
        // At K = N/5 and K = N, multi-selection stays within a constant of
        // its bound and never costs more than multi-partition.
        let many: Vec<_> = t
            .rows
            .iter()
            .filter(|r| num(&r[0]) > (n / 8) as f64)
            .collect();
        assert_eq!(many.len(), 2);
        for row in many {
            let (ms, mp, bound) = (num(&row[1]), num(&row[2]), num(&row[4]));
            assert!(ms <= 8.0 * bound, "K={}: {ms} I/Os, bound {bound}", row[0]);
            assert!(ms <= mp, "K={}: {ms} I/Os, multi-partition {mp}", row[0]);
        }
    }
}
