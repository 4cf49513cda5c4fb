//! # bench — the experiment harness regenerating the paper's evaluation
//!
//! The paper's evaluation is its Table 1 (six complexity cells) plus three
//! in-text phenomena (the multi-selection/multi-partition separation, the
//! sublinearity of right-grounded splitters, and the §3 reduction). The
//! robustness, serving and graph campaigns sit beside them. Every row of
//! DESIGN.md's per-experiment index is one entry of [`CAMPAIGNS`], and one
//! runner regenerates them:
//!
//! ```text
//! cargo run --release -p bench --bin all_experiments                  # all 27
//! cargo run --release -p bench --bin all_experiments -- EX-T1 EX-SEP  # only these
//! EM_BENCH_SCALE=full cargo run --release -p bench --bin all_experiments
//! ```
//!
//! Each table prints as markdown and lands in `bench_results/<id>.csv`.
//! The run exits 1 once every selected table is written if any of them
//! counts a failed cell ([`Table::failed`]), and 2, having run nothing, on
//! an unknown id or `EM_BENCH_SCALE` value.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod crash_sweep;
mod experiments;
mod graph;
mod harness;
mod mem_squeeze;
mod obs;
mod serve_bench;
mod serve_chaos;
mod shard_bench;

pub use harness::{emit, Scale, Table};

use experiments::*;

/// A campaign: the id its table carries, and the function measuring it.
pub type Campaign = (&'static str, fn(Scale) -> Table);

/// Every campaign, in the order the runner runs them.
pub const CAMPAIGNS: &[Campaign] = &[
    ("EX-T1", table1),
    ("EX-T1-SR", ex_splitters_right),
    ("EX-T1-SL", ex_splitters_left),
    ("EX-T1-S2", ex_splitters_two_sided),
    ("EX-T1-PR", ex_partition_right),
    ("EX-T1-PL", ex_partition_left),
    ("EX-T1-P2", ex_partition_two_sided),
    ("EX-SEP", ex_separation),
    ("EX-SORT", ex_vs_sort),
    ("EX-BASE", ex_base_case),
    ("EX-LB", ex_lower_bounds),
    ("EX-A1", ex_ablation_sampling),
    ("EX-A2", ex_ablation_fanout),
    ("EX-A3", ex_ablation_engine),
    ("EX-IM", ex_internal_memory),
    ("EX-SORT-N", ex_vs_sort_scaling),
    ("EX-GEO", ex_geometry),
    ("EX-RED", ex_reduction),
    ("EX-FAULT", ex_fault_overhead),
    ("EX-PARALLEL", ex_parallel),
    ("EX-SERVE", serve_bench::ex_serve),
    ("EX-RECOVERY", crash_sweep::ex_recovery),
    ("EX-GRAPH", graph::ex_graph),
    ("EX-CHAOS", serve_chaos::ex_chaos),
    ("EX-SHARD", shard_bench::ex_shard),
    ("EX-OBS", obs::ex_obs),
    ("EX-SQUEEZE", mem_squeeze::ex_squeeze),
];

/// Run the campaigns of `registry` named by `ids` (all of them when `ids`
/// is empty) at the scale `scale` names (`EM_BENCH_SCALE`'s value), handing
/// each table to `emit` as soon as it is measured. Returns the process exit
/// code: 0 when every table is clean, 1 when any table has a failed cell or
/// carries an id other than its registry id (each is named on stderr), and
/// 2, having run nothing, on an unknown id or scale.
pub fn run(
    registry: &[Campaign],
    ids: &[String],
    scale: Option<&str>,
    mut emit: impl FnMut(&Table),
) -> u8 {
    let scale = match Scale::parse(scale) {
        Ok(scale) => scale,
        Err(e) => {
            eprintln!("all_experiments: {e}");
            return 2;
        }
    };
    let known = |id: &str| registry.iter().any(|&(r, _)| r == id);
    if let Some(unknown) = ids.iter().find(|id| !known(id)) {
        let all: Vec<&str> = registry.iter().map(|&(id, _)| id).collect();
        eprintln!(
            "all_experiments: unknown campaign {unknown:?}; known: {}",
            all.join(" ")
        );
        return 2;
    }
    println!("# em-splitters experiment suite (scale: {scale:?})");
    let mut sick = Vec::new();
    for &(id, campaign) in registry {
        if !ids.is_empty() && !ids.iter().any(|i| i == id) {
            continue;
        }
        let table = campaign(scale);
        if table.id != id {
            sick.push(format!("{id} (its table is named {})", table.id));
            continue;
        }
        emit(&table);
        if table.failed > 0 {
            sick.push(format!("{id} has {} failed cell(s)", table.failed));
        }
    }
    if sick.is_empty() {
        return 0;
    }
    for s in &sick {
        eprintln!("all_experiments: {s}");
    }
    1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_match_the_checked_in_csvs() {
        let mut ids: Vec<&str> = CAMPAIGNS.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate registry id");

        let mut csvs: Vec<String> = std::fs::read_dir(harness::results_dir())
            .expect("bench_results/ is checked in")
            .filter_map(|e| {
                let name = e.expect("dir entry").file_name().into_string().ok()?;
                let id = name.strip_suffix(".csv")?;
                id.starts_with("EX-").then(|| id.to_string())
            })
            .collect();
        csvs.sort_unstable();
        assert_eq!(csvs, ids, "bench_results/EX-*.csv vs the registry");
        assert_eq!(ids.len(), 27);
    }

    fn clean(_: Scale) -> Table {
        Table::new("EX-A", "clean", &["x"])
    }

    fn sick(_: Scale) -> Table {
        let mut t = Table::new("EX-B", "sick", &["x"]);
        t.failed = 2;
        t
    }

    fn also_clean(_: Scale) -> Table {
        Table::new("EX-C", "clean", &["x"])
    }

    fn misnamed(_: Scale) -> Table {
        Table::new("EX-Z", "misnamed", &["x"])
    }

    const FAKE: &[Campaign] = &[("EX-A", clean), ("EX-B", sick), ("EX-C", also_clean)];

    /// Run `FAKE` (or `registry`), returning the exit code and the ids of
    /// the tables written.
    fn exit_and_written(
        registry: &[Campaign],
        ids: &[&str],
        scale: Option<&str>,
    ) -> (u8, Vec<String>) {
        let ids: Vec<String> = ids.iter().map(|s| s.to_string()).collect();
        let mut written = Vec::new();
        let code = run(registry, &ids, scale, |t| written.push(t.id.clone()));
        (code, written)
    }

    #[test]
    fn clean_tables_exit_0() {
        assert_eq!(
            exit_and_written(FAKE, &["EX-C", "EX-A"], None),
            (0, vec!["EX-A".into(), "EX-C".into()])
        );
    }

    #[test]
    fn a_failed_cell_exits_1_after_every_table_is_written() {
        assert_eq!(
            exit_and_written(FAKE, &[], Some("quick")),
            (1, vec!["EX-A".into(), "EX-B".into(), "EX-C".into()])
        );
        assert_eq!(exit_and_written(FAKE, &["EX-B"], None).0, 1);
    }

    #[test]
    fn a_table_named_off_its_registry_id_exits_1_unwritten() {
        let registry: &[Campaign] = &[("EX-A", misnamed), ("EX-C", also_clean)];
        assert_eq!(
            exit_and_written(registry, &[], None),
            (1, vec!["EX-C".into()])
        );
    }

    #[test]
    fn an_unknown_id_or_scale_exits_2_having_run_nothing() {
        assert_eq!(
            exit_and_written(FAKE, &["EX-A", "EX-NOPE"], None),
            (2, vec![])
        );
        assert_eq!(exit_and_written(FAKE, &[], Some("ful")), (2, vec![]));
    }
}
