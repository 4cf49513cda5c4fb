//! A tour of the external-memory model runtime itself: contexts, typed
//! block files, I/O accounting, phase attribution, memory metering, and
//! the real-file backend.
//!
//! Run: `cargo run --release --example io_model_tour`

use em_splitters::prelude::*;
use emcore::KeyValue;

fn main() -> Result<()> {
    // --- 1. The machine: memory M, block size B (in records). ---
    let cfg = EmConfig::new(4096, 64)?.with_workers(1);
    let ctx = EmContext::new_in_memory(cfg);
    println!("machine: {cfg}");

    // --- 2. Files are sequences of records in B-record blocks. ---
    let data: Vec<u64> = (0..10_000).rev().collect();
    let file = EmFile::from_slice(&ctx, &data)?;
    println!(
        "wrote {} records into {} blocks ({} write I/Os)",
        file.len(),
        file.num_blocks(),
        ctx.stats().snapshot().writes
    );

    // --- 3. Every scan costs exactly ceil(N/B) reads. ---
    let before = ctx.stats().snapshot();
    let mut reader = file.reader()?;
    let mut sum = 0u64;
    while let Some(x) = reader.next()? {
        sum += x;
    }
    drop(reader);
    let delta = ctx.stats().snapshot().since(&before);
    println!(
        "scanned (sum = {sum}): {} reads = ceil({}/{})",
        delta.reads,
        file.len(),
        cfg.block_size()
    );

    // --- 4. Phases attribute I/Os to sub-algorithms. ---
    ctx.stats().reset();
    let sorted = external_sort(&file)?;
    println!("\nexternal sort of {} records:", sorted.len());
    for (name, c) in ctx.stats().phase_totals() {
        println!("  {name:<22} {:>6} I/Os", c.total_ios());
    }

    // --- 5. Memory metering: algorithms cannot cheat the model. ---
    println!(
        "\npeak tracked memory during the sort: {} / {} words",
        ctx.mem().peak(),
        ctx.mem().capacity()
    );
    assert!(ctx.mem().peak() <= ctx.mem().capacity());

    // --- 6. Multi-word records pack fewer per block (B is in words). ---
    let kv: Vec<KeyValue> = (0..100)
        .map(|i| KeyValue {
            key: i,
            value: i * i,
        })
        .collect();
    let kv_file = EmFile::from_slice(&ctx, &kv)?;
    println!(
        "\nKeyValue records are 2 words: {} records -> {} blocks (vs {} for u64)",
        kv_file.len(),
        kv_file.num_blocks(),
        100u64.div_ceil(64)
    );

    // --- 7. The same code runs on real files, same I/O counts. ---
    let disk_ctx = EmContext::new_on_disk_temp(cfg)?;
    let disk_file = EmFile::from_slice(&disk_ctx, &data)?;
    let before = disk_ctx.stats().snapshot();
    let _sorted = external_sort(&disk_file)?;
    let disk_ios = disk_ctx.stats().snapshot().since(&before);
    println!(
        "\nfile-backed sort: {} I/Os, {} bytes actually written to disk",
        disk_ios.total_ios(),
        disk_ios.bytes_written
    );
    Ok(())
}
