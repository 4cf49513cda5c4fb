//! Shared experiment harness: measurement, table formatting, CSV output.

use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use emcore::{Counters, EmConfig, EmContext};

/// Experiment scale, selected via the `EM_BENCH_SCALE` environment
/// variable (`quick` default, `full` for the larger sweeps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-quick runs (seconds).
    Quick,
    /// Full sweeps (minutes).
    Full,
}

impl Scale {
    /// Parse a value of `EM_BENCH_SCALE`: unset or `quick` is
    /// [`Scale::Quick`], `full` or `FULL` is [`Scale::Full`]. Anything
    /// else is an error, so a typo cannot quietly run the quick suite.
    pub fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            None | Some("quick") => Ok(Scale::Quick),
            Some("full" | "FULL") => Ok(Scale::Full),
            Some(v) => Err(format!(
                "EM_BENCH_SCALE={v:?}: expected `quick`, `full` or `FULL`"
            )),
        }
    }

    /// The default input size for this scale.
    pub fn n(self) -> u64 {
        match self {
            Scale::Quick => 400_000,
            Scale::Full => 4_000_000,
        }
    }
}

/// The simulator configuration every experiment runs on (`M = 4096`,
/// `B = 64`, `M/B = 64`) — small enough that multi-level effects appear at
/// laptop-scale `N`.
pub fn bench_config() -> EmConfig {
    EmConfig::medium()
}

/// Fresh in-memory context with the bench configuration.
pub fn bench_ctx() -> EmContext {
    EmContext::new_in_memory(bench_config())
}

/// Run `f` and return its I/O delta and wall time.
pub fn measure<R>(ctx: &EmContext, f: impl FnOnce() -> R) -> (R, Counters, Duration) {
    let before = ctx.stats().snapshot();
    let t0 = Instant::now();
    let r = f();
    let dt = t0.elapsed();
    (r, ctx.stats().snapshot().since(&before), dt)
}

/// A printable result table (markdown to stdout, CSV to `bench_results/`).
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id, e.g. "EX-T1-SR".
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (already formatted).
    pub rows: Vec<Vec<String>>,
    /// Per-row phase I/O totals (parallel to `rows`; empty when a row has
    /// none). Rendered as extra `phase:<name>` CSV columns only — the
    /// markdown table keeps its declared columns.
    pub phases: Vec<Vec<(String, Counters)>>,
    /// Free-form notes printed under the table.
    pub notes: Vec<String>,
    /// Cells that broke the campaign's contract. Any nonzero count fails
    /// the run, after every table has been written.
    pub failed: u64,
}

impl Table {
    /// Start a table.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            phases: Vec::new(),
            notes: Vec::new(),
            failed: 0,
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
        self.phases.push(Vec::new());
    }

    /// Append a row with per-phase I/O totals (e.g.
    /// [`emcore::IoStats::phase_totals`]). The CSV gains a `phase:<name>`
    /// column for every phase name seen across the table, in first-seen
    /// order; rows that lack a phase leave its cell empty.
    pub fn row_with_phases(&mut self, cells: Vec<String>, phases: Vec<(String, Counters)>) {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
        self.phases.push(phases);
    }

    /// Append a note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Render as github-style markdown.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n## {} — {}\n\n", self.id, self.title));
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::from("|");
            for (i, c) in cells.iter().enumerate() {
                line.push_str(&format!(" {:>width$} |", c, width = widths[i]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{:-<width$}|", "", width = w + 2));
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        for n in &self.notes {
            out.push_str(&format!("\n> {n}\n"));
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.to_markdown());
    }

    /// Write as CSV under the workspace-root `bench_results/<id>.csv`;
    /// returns the path. The directory is anchored on the crate's manifest
    /// location rather than the current working directory, so results land
    /// in the same place whether invoked as `cargo run -p bench` from the
    /// workspace root, from inside a crate, or via a built binary.
    pub fn write_csv(&self) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.csv", self.id));
        let mut f = std::fs::File::create(&path)?;
        // Union of phase names across rows, first-seen order.
        let mut phase_cols: Vec<&str> = Vec::new();
        for row in &self.phases {
            for (name, _) in row {
                if !phase_cols.contains(&name.as_str()) {
                    phase_cols.push(name);
                }
            }
        }
        let mut header = self.headers.join(",");
        for p in &phase_cols {
            header.push_str(&format!(",phase:{p}"));
        }
        writeln!(f, "{header}")?;
        for (row, phases) in self.rows.iter().zip(&self.phases) {
            let mut line = row.join(",");
            for p in &phase_cols {
                let cell = phases
                    .iter()
                    .find(|(name, _)| name == p)
                    .map(|(_, c)| c.total_ios().to_string())
                    .unwrap_or_default();
                line.push_str(&format!(",{cell}"));
            }
            writeln!(f, "{line}")?;
        }
        Ok(path)
    }
}

/// If `EM_TRACE_DIR` is set, stream a JSONL trace of everything run on
/// `ctx` to `<EM_TRACE_DIR>/<label>.jsonl` (rendered afterwards with the
/// `trace_report` bin). Returns the trace path when tracing was armed; the
/// caller should invoke [`EmContext::finish_trace`] once the measured work
/// is done so per-file summaries and the `End` record are written. Trace
/// failures are reported to stderr and never fail the experiment.
pub fn attach_trace(ctx: &EmContext, label: &str) -> Option<PathBuf> {
    let dir = PathBuf::from(std::env::var_os("EM_TRACE_DIR")?);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("[trace] cannot create {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(format!("{label}.jsonl"));
    match ctx.trace_to_file(&path) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("[trace] cannot open {}: {e}", path.display());
            None
        }
    }
}

/// The directory experiment CSVs are written to: `bench_results/` at the
/// workspace root (two levels above this crate's `Cargo.toml`), regardless
/// of the process working directory.
pub fn results_dir() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .nth(2)
        .unwrap_or(&manifest)
        .join("bench_results")
}

/// Format a float with sensible precision for tables.
pub fn fnum(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1000.0 {
        format!("{:.0}", x)
    } else if x.abs() >= 10.0 {
        format!("{:.1}", x)
    } else {
        format!("{:.2}", x)
    }
}

/// Emit a table: print + CSV (CSV errors are reported, not fatal).
pub fn emit(table: &Table) {
    table.print();
    match table.write_csv() {
        Ok(p) => println!("\n[csv] {}", p.display()),
        Err(e) => eprintln!("[csv] write failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_markdown_shape() {
        let mut t = Table::new("EX-X", "demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.note("hello");
        let md = t.to_markdown();
        assert!(md.contains("EX-X"));
        assert!(md.contains("| 1 |"));
        assert!(md.contains("> hello"));
    }

    #[test]
    fn measure_counts() {
        let ctx = bench_ctx();
        let (r, c, _) = measure(&ctx, || {
            ctx.stats().charge_reads(5);
            42
        });
        assert_eq!(r, 42);
        assert_eq!(c.reads, 5);
    }

    #[test]
    fn fnum_ranges() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(3.456), "3.46");
        assert_eq!(fnum(31.4159), "31.4");
        assert_eq!(fnum(3141.59), "3142");
    }

    #[test]
    fn scale_default_quick() {
        assert_eq!(Scale::parse(None), Ok(Scale::Quick));
        assert!(Scale::Full.n() > Scale::Quick.n());
    }

    #[test]
    fn scale_rejects_unknown_values() {
        assert_eq!(Scale::parse(Some("quick")), Ok(Scale::Quick));
        assert_eq!(Scale::parse(Some("full")), Ok(Scale::Full));
        assert_eq!(Scale::parse(Some("FULL")), Ok(Scale::Full));
        for typo in ["ful", "Full", "QUICK", "", " full"] {
            assert!(Scale::parse(Some(typo)).is_err(), "{typo:?} accepted");
        }
    }
}
