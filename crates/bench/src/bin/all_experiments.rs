//! `all_experiments [ID ...]` — run every campaign of DESIGN.md's
//! per-experiment index, or only the ids given, writing each table to
//! stdout and `bench_results/<id>.csv`. `EM_BENCH_SCALE` (`quick`, the
//! default, or `full`) selects the scale. Exits 1 once every table is
//! written if any has a failed cell, 2 on an unknown id or scale.
use std::process::ExitCode;

fn main() -> ExitCode {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let scale = std::env::var_os("EM_BENCH_SCALE").map(|v| v.to_string_lossy().into_owned());
    ExitCode::from(bench::run(
        bench::CAMPAIGNS,
        &ids,
        scale.as_deref(),
        bench::emit,
    ))
}
