//! Probes that time `emcore` primitives from outside, in the same store the
//! workload ran in, next to a plain `std::fs` roofline over the same
//! number of bytes.

use std::fs::File;
use std::hint::black_box;
use std::io::{Read, Write};
use std::path::Path;
use std::time::Instant;

use emcore::{EmContext, EmError, EmFile, Journal, JournalState, Record, Result};

use crate::stats::summarize;

/// Buffer size of the raw `std::fs` roofline.
const RAW_BUF: usize = 1 << 20;
/// Each bandwidth probe is repeated this often; the median is kept.
const BANDWIDTH_REPS: usize = 3;
/// Files created and dropped by the lifecycle probe.
const LIFECYCLE_FILES: u32 = 2000;
/// Journal commits timed by the journal probe.
const JOURNAL_COMMITS: u64 = 50;

/// What the probes measured.
#[derive(Debug, Clone, Copy)]
pub struct Probes {
    pub scan_mb_s: f64,
    pub raw_read_mb_s: f64,
    pub write_mb_s: f64,
    pub raw_write_mb_s: f64,
    pub file_lifecycle_us: f64,
    pub journal_commit_ms: f64,
}

fn mb_s(bytes: u64, secs: f64) -> f64 {
    bytes as f64 / 1e6 / secs.max(1e-9)
}

/// Run every probe on `ctx`, whose store is the directory `dir`, with
/// `data` (the workload's input records) as the payload.
pub fn run<T: Record>(ctx: &EmContext, dir: &Path, data: &[T]) -> Result<Probes> {
    let bytes = (data.len() * T::BYTES) as u64;
    let mut write = Vec::new();
    let mut scan = Vec::new();
    let mut raw_write = Vec::new();
    let mut raw_read = Vec::new();
    let raw_path = dir.join("raw-probe.bin");
    for _ in 0..BANDWIDTH_REPS {
        let t = Instant::now();
        let f = EmFile::from_slice(ctx, data)?;
        write.push(mb_s(bytes, t.elapsed().as_secs_f64()));

        let t = Instant::now();
        let mut r = f.reader()?;
        let mut n = 0u64;
        while let Some(x) = r.next()? {
            black_box(x);
            n += 1;
        }
        scan.push(mb_s(bytes, t.elapsed().as_secs_f64()));
        if n != data.len() as u64 {
            return Err(EmError::config(format!(
                "scan probe read {n} records of {}",
                data.len()
            )));
        }
        drop(r);
        drop(f);

        raw_write.push(mb_s(bytes, raw_write_file(&raw_path, bytes)?));
        let t = Instant::now();
        let got = raw_read_file(&raw_path)?;
        raw_read.push(mb_s(bytes, t.elapsed().as_secs_f64()));
        if got != bytes {
            return Err(EmError::config(format!(
                "raw read probe read {got} bytes of {bytes}"
            )));
        }
        std::fs::remove_file(&raw_path)?;
    }

    let t = Instant::now();
    for i in 0..LIFECYCLE_FILES {
        let mut w = ctx.writer::<u64>()?;
        w.push(u64::from(i))?;
        drop(w.finish()?);
    }
    let file_lifecycle_us = t.elapsed().as_secs_f64() * 1e6 / f64::from(LIFECYCLE_FILES);

    let journal = Journal::new(ctx, "perf-probe")?;
    let t = Instant::now();
    for i in 0..JOURNAL_COMMITS {
        journal.commit(&ProbeDoc(i))?;
    }
    let journal_commit_ms = t.elapsed().as_secs_f64() * 1e3 / JOURNAL_COMMITS as f64;
    let last = journal.load::<ProbeDoc>()?;
    journal.remove()?;
    if last != Some(ProbeDoc(JOURNAL_COMMITS - 1)) {
        return Err(EmError::config("journal probe lost its last commit"));
    }

    Ok(Probes {
        scan_mb_s: summarize(&scan).median,
        raw_read_mb_s: summarize(&raw_read).median,
        write_mb_s: summarize(&write).median,
        raw_write_mb_s: summarize(&raw_write).median,
        file_lifecycle_us,
        journal_commit_ms,
    })
}

/// Write `bytes` bytes to `path` through 1 MiB buffers; seconds taken.
fn raw_write_file(path: &Path, bytes: u64) -> Result<f64> {
    let buf: Vec<u8> = (0..RAW_BUF).map(|i| i as u8).collect();
    let t = Instant::now();
    let mut f = File::create(path)?;
    let mut left = bytes;
    while left > 0 {
        let n = left.min(RAW_BUF as u64) as usize;
        f.write_all(&buf[..n])?;
        left -= n as u64;
    }
    f.flush()?;
    drop(f);
    Ok(t.elapsed().as_secs_f64())
}

/// Read `path` to its end through a 1 MiB buffer; bytes read.
fn raw_read_file(path: &Path) -> Result<u64> {
    let mut buf = vec![0u8; RAW_BUF];
    let mut f = File::open(path)?;
    let mut total = 0u64;
    loop {
        let n = f.read(&mut buf)?;
        if n == 0 {
            return Ok(total);
        }
        black_box(&buf[..n]);
        total += n as u64;
    }
}

/// The journal probe's document: one counter.
#[derive(Debug, PartialEq, Eq)]
struct ProbeDoc(u64);

impl JournalState for ProbeDoc {
    const KIND: &'static str = "perf-probe";
    const VERSION: u32 = 1;

    fn encode(&self, out: &mut String) {
        out.push_str(&self.0.to_string());
    }

    fn decode(body: &str) -> Result<Self> {
        body.trim()
            .parse()
            .map(ProbeDoc)
            .map_err(|_| EmError::config("perf-probe journal: bad body"))
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| EmError::config("no VmHWM line in /proc/self/status"))
}
