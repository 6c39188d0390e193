//! CI bench-regression gate: compares a fresh bench JSON against the
//! committed baseline.
//!
//! ```text
//! check_regression <current.json> <baseline.json> <min_ratio>
//! ```
//!
//! Every metric in the **baseline** is looked up in the current run and
//! must satisfy `current / baseline >= min_ratio` (higher-is-better
//! throughputs/speedups; `0.8` fails a >20% drop). Metrics whose key
//! starts with `ceil_` are **lower-is-better ceilings** — drop counts,
//! peak occupancies, latency quantiles — and fail when
//! `current > baseline / min_ratio` (the same 20% slack, pointed the
//! other way); a `ceil_` baseline of exactly `0` demands the current
//! value stay `0`. Extra keys in the current run — wall-clock numbers,
//! new metrics not yet baselined — are ignored, so adding
//! instrumentation never breaks the gate. Exits non-zero, naming every
//! offender, on any regression, missing metric, or malformed file.

use std::process::ExitCode;

use telemetry::parse_flat_json;

fn load(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_flat_json(&text).ok_or_else(|| format!("{path}: not a flat JSON number object"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [current_path, baseline_path, min_ratio] = &args[..] else {
        eprintln!("usage: check_regression <current.json> <baseline.json> <min_ratio>");
        return ExitCode::FAILURE;
    };
    let min_ratio: f64 = match min_ratio.parse() {
        Ok(r) if (0.0..=1.0).contains(&r) => r,
        _ => {
            eprintln!("min_ratio must be a number in [0, 1], got {min_ratio:?}");
            return ExitCode::FAILURE;
        }
    };
    let (current, baseline) = match (load(current_path), load(baseline_path)) {
        (Ok(c), Ok(b)) => (c, b),
        (c, b) => {
            for err in [c.err(), b.err()].into_iter().flatten() {
                eprintln!("error: {err}");
            }
            return ExitCode::FAILURE;
        }
    };
    if baseline.is_empty() {
        eprintln!("error: {baseline_path} gates nothing (empty baseline)");
        return ExitCode::FAILURE;
    }

    let mut failures = 0;
    for (key, base) in &baseline {
        let Some((_, now)) = current.iter().find(|(k, _)| k == key) else {
            eprintln!("FAIL {key}: missing from {current_path}");
            failures += 1;
            continue;
        };
        if key.starts_with("ceil_") {
            // Lower-is-better ceiling; a zero baseline pins zero.
            if *base < 0.0 {
                eprintln!("FAIL {key}: ceiling baseline {base} is negative");
                failures += 1;
                continue;
            }
            let limit = base / min_ratio;
            if *now > limit {
                eprintln!("FAIL {key}: {now} exceeds ceiling {limit} (baseline {base})");
                failures += 1;
            } else {
                println!("ok   {key}: {now} within ceiling {limit} (baseline {base})");
            }
            continue;
        }
        if *base <= 0.0 {
            eprintln!("FAIL {key}: baseline {base} is not a positive metric");
            failures += 1;
            continue;
        }
        let ratio = now / base;
        if ratio < min_ratio {
            eprintln!(
                "FAIL {key}: {now} is {:.1}% of baseline {base} (floor {:.1}%)",
                ratio * 100.0,
                min_ratio * 100.0
            );
            failures += 1;
        } else {
            println!(
                "ok   {key}: {now} vs baseline {base} ({:.1}%)",
                ratio * 100.0
            );
        }
    }
    if failures > 0 {
        eprintln!("{failures} metric(s) outside the {min_ratio} regression bounds");
        return ExitCode::FAILURE;
    }
    println!("all {} gated metric(s) within bounds", baseline.len());
    ExitCode::SUCCESS
}
