//! Regenerates `BENCH_workload.json` at the repo root: the campaign's
//! load-driven scenarios at the historical seed 8 — both arms' verdicts
//! plus the flawed arm's per-op latency percentiles — the million-op
//! sharded open-loop read ladder, byte-compared across `--jobs 1/2/4/8`,
//! and the repkv write ladder (60 to 15,360 ops). Every number but the
//! write ladder's allocation count is virtual-time, so the artifact is
//! deterministic; the counting allocator makes that count exact too.
//!
//! ```text
//! cargo run --release -p bench --bin workload_bench            # writes the artifact
//! cargo run --release -p bench --bin workload_bench -- --print # JSON to stdout only
//! ```

use std::io::Write;
use std::process::ExitCode;

// Counts the write ladder's allocations per op.
#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

/// Total operations of the open-loop read ladder (split over 8 shards).
const LADDER_OPS: u64 = 1_000_000;

fn main() -> ExitCode {
    let json = bench::reports::workload_machine_json(LADDER_OPS);
    if std::env::args().skip(1).any(|a| a == "--print") {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        return match out.write_all(json.as_bytes()).and_then(|()| out.flush()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("workload_bench: failed to write to stdout: {e}");
                ExitCode::FAILURE
            }
        };
    }
    // The manifest dir is crates/bench; the artifact lives at the root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_workload.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("workload_bench: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path}");
    ExitCode::SUCCESS
}
