//! The CI perf gate: compares a committed `BENCH_*.json` baseline
//! against a fresh run (see [`qxmap_bench::diff`]) and exits nonzero on
//! gross regression.
//!
//! ```text
//! bench_diff BASELINE FRESH
//! ```
//!
//! The thresholds are fixed (the constants in [`qxmap_bench::diff`]); a
//! smoke soak compared against a full baseline gets the looser smoke
//! throughput ratio.
//!
//! Exit codes: 0 — no gross regressions; 1 — regressions found (each
//! printed on its own line); 2 — the files are not comparable (missing,
//! unparsable, different schema, or a different corpus manifest — fix
//! the baseline, don't revert the PR).

use std::process::ExitCode;

use qxmap_bench::diff::diff;
use qxmap_serve::Json;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, fresh_path] = &args[..] else {
        eprintln!("usage: bench_diff BASELINE FRESH");
        return ExitCode::from(2);
    };

    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))
    };
    let documents = load(baseline_path).and_then(|baseline| {
        let fresh = load(fresh_path)?;
        Ok((baseline, fresh))
    });
    let (baseline, fresh) = match documents {
        Ok(documents) => documents,
        Err(message) => {
            eprintln!("bench_diff: {message}");
            return ExitCode::from(2);
        }
    };

    match diff(&baseline, &fresh) {
        Err(message) => {
            eprintln!("bench_diff: not comparable: {message}");
            ExitCode::from(2)
        }
        Ok(regressions) if regressions.is_empty() => {
            println!("bench_diff: {fresh_path} vs {baseline_path}: no gross regressions");
            ExitCode::SUCCESS
        }
        Ok(regressions) => {
            eprintln!(
                "bench_diff: {} gross regression(s) vs {baseline_path}:",
                regressions.len()
            );
            for regression in &regressions {
                eprintln!("  REGRESSION: {regression}");
            }
            ExitCode::FAILURE
        }
    }
}
