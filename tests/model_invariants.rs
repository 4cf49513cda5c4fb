//! EM-model fidelity invariants: exact I/O accounting, word-accurate block
//! packing, backend equivalence, memory budgets, and indivisibility of
//! multi-word records through the full pipeline.

use em_splitters::prelude::*;
use emcore::KeyValue;
use workloads::Workload;

#[test]
fn scan_costs_exactly_ceil_n_over_b() {
    for (m, b, n) in [(256usize, 16usize, 1000u64), (4096, 64, 12345)] {
        let ctx = EmContext::new_in_memory(EmConfig::new(m, b).unwrap());
        let f = materialize(&ctx, Workload::UniformPerm, n, 1).unwrap();
        let before = ctx.stats().snapshot();
        let mut r = f.reader().unwrap();
        let mut cnt = 0u64;
        while r.next().unwrap().is_some() {
            cnt += 1;
        }
        assert_eq!(cnt, n);
        let d = ctx.stats().snapshot().since(&before);
        assert_eq!(d.reads, n.div_ceil(b as u64));
        assert_eq!(d.writes, 0);
    }
}

#[test]
fn wide_records_pack_fewer_per_block() {
    let cfg = EmConfig::new(256, 16).unwrap();
    let ctx = EmContext::new_in_memory(cfg);
    let narrow = EmFile::from_slice(&ctx, &(0..64u64).collect::<Vec<_>>()).unwrap();
    let wide_data: Vec<KeyValue> = (0..64).map(|i| KeyValue { key: i, value: i }).collect();
    let wide = EmFile::from_slice(&ctx, &wide_data).unwrap();
    assert_eq!(narrow.num_blocks(), 4); // 64 / (16/1)
    assert_eq!(wide.num_blocks(), 8); // 64 / (16/2)
}

#[test]
fn multi_word_records_survive_full_pipeline() {
    // Indivisibility: the payload must travel with the key through
    // sorting, selection and partitioning.
    let cfg = EmConfig::new(1024, 32).unwrap();
    let ctx = EmContext::new_in_memory(cfg);
    let n = 3000u64;
    let keys = workloads::generate(Workload::UniformPerm, n, 5);
    let data: Vec<KeyValue> = keys
        .iter()
        .map(|&k| KeyValue {
            key: k,
            value: k.wrapping_mul(0x9E3779B9),
        })
        .collect();
    let file = ctx
        .stats()
        .paused(|| EmFile::from_slice(&ctx, &data))
        .unwrap();

    // Sort: payloads still attached.
    let sorted = external_sort(&file).unwrap().to_vec().unwrap();
    assert!(sorted.windows(2).all(|w| w[0].key <= w[1].key));
    assert!(sorted
        .iter()
        .all(|kv| kv.value == kv.key.wrapping_mul(0x9E3779B9)));

    // Multi-select: the returned records carry their payloads.
    let picked = multi_select(&file, &[1, n / 2, n]).unwrap();
    for kv in &picked {
        assert_eq!(kv.value, kv.key.wrapping_mul(0x9E3779B9));
    }

    // Partitioning: payloads intact in every partition.
    let spec = ProblemSpec::new(n, 6, 100, n).unwrap();
    let parts = approx_partitioning(&file, &spec).unwrap();
    let rep = verify_partitioning(&parts, &spec).unwrap();
    assert!(rep.ok);
    for p in &parts {
        for kv in p.to_vec().unwrap() {
            assert_eq!(kv.value, kv.key.wrapping_mul(0x9E3779B9));
        }
    }
}

#[test]
fn backends_agree_on_partitioning_io() {
    let cfg = EmConfig::new(1024, 32).unwrap();
    let n = 4000u64;
    let spec = ProblemSpec::new(n, 8, 0, n / 4).unwrap();
    let run = |ctx: &EmContext| {
        let file = materialize(ctx, Workload::UniformPerm, n, 6).unwrap();
        ctx.stats().reset();
        let parts = approx_partitioning(&file, &spec).unwrap();
        let sizes: Vec<u64> = parts.iter().map(|p| p.len()).collect();
        (sizes, ctx.stats().snapshot().total_ios())
    };
    let (s1, io1) = run(&EmContext::new_in_memory(cfg));
    let (s2, io2) = run(&EmContext::new_on_disk_temp(cfg).unwrap());
    assert_eq!(s1, s2);
    assert_eq!(io1, io2);
}

#[test]
fn algorithms_fit_strict_memory_at_several_geometries() {
    for (m, b) in [(64usize, 16usize), (256, 16), (512, 64), (2048, 128)] {
        let ctx = EmContext::new_in_memory_strict(EmConfig::new(m, b).unwrap());
        let n = 3000u64;
        let file = materialize(&ctx, Workload::UniformPerm, n, 7).unwrap();
        let spec = ProblemSpec::new(n, 4, 1, n).unwrap();
        // Survival under strict metering is the assertion.
        let sp = approx_splitters(&file, &spec).unwrap_or_else(|e| panic!("M={m} B={b}: {e}"));
        assert_eq!(sp.len(), 3);
        let parts = approx_partitioning(&file, &spec).unwrap();
        assert_eq!(parts.len(), 4);
        let _ = external_sort(&file).unwrap();
        assert!(
            ctx.mem().peak() <= m,
            "M={m} B={b}: peak {}",
            ctx.mem().peak()
        );
    }
}

#[test]
fn determinism_across_runs() {
    let run = || {
        let ctx = EmContext::new_in_memory(EmConfig::medium());
        let file = materialize(&ctx, Workload::UniformPerm, 50_000, 99).unwrap();
        let spec = ProblemSpec::new(50_000, 16, 4, 25_000).unwrap();
        ctx.stats().reset();
        let sp = approx_splitters(&file, &spec).unwrap();
        (sp, ctx.stats().snapshot().total_ios())
    };
    let (a, io_a) = run();
    let (b, io_b) = run();
    assert_eq!(a, b, "outputs must be deterministic");
    assert_eq!(io_a, io_b, "I/O counts must be deterministic");
}

#[test]
fn refined_splitters_feed_intermixed_engine_at_scale() {
    use emselect::{multi_select_with, MsBaseCase, MsOptions, SplitterStrategy};
    // The Θ(M)-capacity path: more groups than the single-round fan-out
    // cap, handled by one intermixed base case over refined splitters.
    let ctx = EmContext::new_in_memory(EmConfig::medium());
    let n = 100_000u64;
    let file = materialize(&ctx, Workload::UniformPerm, n, 23).unwrap();
    let k = 120u64; // > f/2 ≈ 24 for the one-round sampler at this n
    let ranks: Vec<u64> = (1..=k).map(|i| (i * n) / k).collect();
    let got = multi_select_with(
        &file,
        &ranks,
        MsOptions {
            strategy: SplitterStrategy::Deterministic,
            base_capacity_override: None,
            base_case: MsBaseCase::Intermixed,
        },
    )
    .unwrap();
    let want: Vec<u64> = ranks.iter().map(|&r| r - 1).collect();
    assert_eq!(got, want);
}

#[test]
fn oversized_record_still_moves_as_one_unit() {
    // A record wider than a block occupies one block by itself
    // (indivisibility floor: block_records ≥ 1).
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Fat {
        key: u64,
        pad: [u64; 31],
    }
    impl emcore::Record for Fat {
        type Key = u64;
        const WORDS: usize = 32;
        const BYTES: usize = 256;
        fn key(&self) -> u64 {
            self.key
        }
        fn write_bytes(&self, out: &mut [u8]) {
            out[..8].copy_from_slice(&self.key.to_le_bytes());
            for (i, p) in self.pad.iter().enumerate() {
                out[8 + i * 8..16 + i * 8].copy_from_slice(&p.to_le_bytes());
            }
        }
        fn read_bytes(inp: &[u8]) -> Self {
            let mut key = [0u8; 8];
            key.copy_from_slice(&inp[..8]);
            let mut pad = [0u64; 31];
            for (i, p) in pad.iter_mut().enumerate() {
                let mut b = [0u8; 8];
                b.copy_from_slice(&inp[8 + i * 8..16 + i * 8]);
                *p = u64::from_le_bytes(b);
            }
            Fat {
                key: u64::from_le_bytes(key),
                pad,
            }
        }
    }
    let cfg = EmConfig::new(512, 16).unwrap(); // B = 16 words < 32-word record
    let data: Vec<Fat> = (0..10u64)
        .map(|i| Fat {
            key: i,
            pad: [i; 31],
        })
        .collect();
    // On disk a block of `Fat` overflows a slot of B words, so its files
    // get a store of 256-byte slots next to the one of 128-byte slots.
    let disk = EmContext::new_on_disk_temp(cfg).unwrap();
    for ctx in [EmContext::new_in_memory(cfg), disk.clone()] {
        let f = EmFile::from_slice(&ctx, &data).unwrap();
        assert_eq!(f.num_blocks(), 10, "one record per block");
        assert_eq!(f.to_vec().unwrap(), data);
        let narrow = EmFile::from_slice(&ctx, &[1u64, 2, 3]).unwrap();
        assert_eq!(narrow.to_vec().unwrap(), [1, 2, 3]);
    }
    let mut stores: Vec<String> = std::fs::read_dir(disk.backing_dir().unwrap())
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    stores.sort();
    assert_eq!(stores, ["blocks-128.store", "blocks-256.store"]);
}

#[test]
fn disk_jobs_keep_every_block_in_one_store_file() {
    // Every file of a directory context lives in one block store: a
    // multi-partition and an external sort (dozens of temporary files)
    // leave one store file, plus the journals of recoverable jobs, and no
    // file per `EmFile`.
    let ctx = EmContext::new_on_disk_temp(EmConfig::medium()).unwrap(); // B = 64
    let input = materialize(&ctx, Workload::UniformPerm, 20_000, 3).unwrap();
    let parts = emselect::multi_partition(&input, &[5_000; 4]).unwrap();
    assert_eq!(parts.len(), 4);
    let sorted = external_sort(&input).unwrap();
    let mut m = SortManifest::new(&ctx, None);
    let resorted = run_recoverable(&ctx, &mut SortJob::new(&input, &mut m)).unwrap();
    assert_eq!(resorted.to_vec().unwrap(), sorted.to_vec().unwrap());
    let created = ctx.create_file::<u64>().unwrap().id();
    assert!(created > 20, "the jobs made {created} files");

    let dir = ctx.backing_dir().unwrap();
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let (stores, rest): (Vec<&String>, Vec<&String>) =
        names.iter().partition(|n| n.ends_with(".store"));
    assert_eq!(stores, ["blocks-512.store"], "{names:?}");
    assert!(rest.iter().all(|n| n.ends_with(".journal")), "{names:?}");
    assert!(!names
        .iter()
        .any(|n| n.starts_with("em-") && n.ends_with(".bin")));
    // The live files hold every used slot; the rest are free for reuse.
    let mut live = vec![input.id(), sorted.id(), resorted.id()];
    for p in &parts {
        live.extend(p.segments().iter().map(|s| s.id()));
    }
    let u = ctx.slot_usage(&live);
    assert_eq!((u.leaked(), u.used + u.free), (0, u.slots), "{u:?}");
}

#[test]
fn quantiles_at_many_ranks_cost_about_a_sort() {
    // Theorem 4 bounds multi-selection by O((N/B)·lg_{M/B}(K/B)), never
    // more than a sort. At q = N/5 and q = N ranks, `quantiles` costs at
    // most 1.3 and 2.1 times an external sort of the same input, within M.
    let (n, m) = (200_000u64, 16_384);
    let ctx = EmContext::new_in_memory_strict(EmConfig::new(m, 256).unwrap());
    let input = ctx
        .stats()
        .paused(|| materialize(&ctx, Workload::UniformPerm, n, 11))
        .unwrap();
    let cost = |f: &dyn Fn()| {
        let before = ctx.stats().snapshot();
        f();
        ctx.stats().snapshot().since(&before).total_ios()
    };
    let sort = cost(&|| drop(external_sort(&input).unwrap()));
    for (q, ratio) in [(n / 5, 1.3), (n, 2.1)] {
        let ios = cost(&|| {
            let got = quantiles(&input, q).unwrap();
            assert_eq!(got.len() as u64, q - 1);
            // A permutation of 0..n: rank r holds r - 1.
            for (i, x) in got.iter().enumerate() {
                let r = ((i as u64 + 1) * n / q).max(1);
                assert_eq!(*x, r - 1, "q = {q}, rank {r}");
            }
        });
        assert!(
            ios as f64 <= ratio * sort as f64,
            "q = {q}: {ios} I/Os, {:.2}× the sort's {sort}",
            ios as f64 / sort as f64
        );
    }
    assert!(ctx.mem().peak() <= m, "peak {}", ctx.mem().peak());
}

#[test]
fn slack_partitioning_costs_about_one_distribution_pass() {
    // Theorem 6's two-sided cell with room to spare: any sizes in [a, b]
    // will do, so the cuts go to the first level's bucket ends and only
    // the few buckets a cut falls inside are read again. One sample and
    // one distribution pass cost about two scans; exact 1/K-quantile cuts
    // open every bucket and cost two more.
    let (n, m, b) = (200_000u64, 16_384, 256);
    let cfg = EmConfig::new(m, b).unwrap();
    let scan = n.div_ceil(b as u64) as f64;
    for (k, a, hi) in [(64u64, n / 128, n / 32), (32, n / 64, n / 16)] {
        let ctx = EmContext::new_in_memory_strict(cfg);
        let input = ctx
            .stats()
            .paused(|| materialize(&ctx, Workload::UniformPerm, n, 11))
            .unwrap();
        let spec = ProblemSpec::new(n, k, a, hi).unwrap();
        let before = ctx.stats().snapshot();
        let parts = approx_partitioning(&input, &spec).unwrap();
        let ios = ctx.stats().snapshot().since(&before).total_ios() as f64;
        let rep = ctx
            .stats()
            .paused(|| verify_partitioning(&parts, &spec))
            .unwrap();
        assert!(rep.ok, "{spec}: {rep:?}");
        let bound = apsplit::bounds::partitioning_two_sided(cfg, n, k, a, hi);
        assert!(
            ios <= 2.5 * scan,
            "{spec}: {ios} I/Os = {:.2} scans",
            ios / scan
        );
        assert!(
            ios <= 2.0 * bound,
            "{spec}: {ios} I/Os = {:.2}× the bound {bound:.0}",
            ios / bound
        );
        assert!(ctx.mem().peak() <= m, "{spec}: peak {}", ctx.mem().peak());
    }
}
