//! Regenerates `fingerprints.txt` at the repo root: the streamed
//! execution fingerprint hash of every registry arm at seeds 8, 42 and
//! 1337, one `arm seed hash` line each. A pure function of the code, so
//! the tier-1 golden tests regenerate the identical bytes in-process and
//! any behaviour change shows up as a per-arm diff.
//!
//! ```text
//! cargo run --release -p bench --bin fingerprints            # writes the artifact
//! cargo run --release -p bench --bin fingerprints -- --print # text to stdout only
//! ```

use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let text = bench::reports::fingerprints_txt(jobs);
    if std::env::args().skip(1).any(|a| a == "--print") {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        return match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("fingerprints: failed to write to stdout: {e}");
                ExitCode::FAILURE
            }
        };
    }
    // The manifest dir is crates/bench; the artifact lives at the root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../fingerprints.txt");
    if let Err(e) = std::fs::write(path, &text) {
        eprintln!("fingerprints: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path}");
    ExitCode::SUCCESS
}
