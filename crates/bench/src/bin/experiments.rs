//! Regenerates the tables and figures of the SunFloor 3D evaluation.
//!
//! ```text
//! experiments <id>... [--quick] [--gate] [--gate-tolerance=0.30]
//! experiments all
//! experiments list
//! ```
//!
//! Output: aligned tables on stdout plus CSV/text files under
//! `target/experiments/`.
//!
//! `--gate` (with the `bench` experiment) diffs the freshly written
//! `BENCH_phase11.json` against the committed previous-phase baseline
//! (`BENCH_phase10.json`) and exits non-zero when any tracked metric
//! regresses by more than the tolerance (default 30%; override with
//! `--gate-tolerance=<fraction>`). This is the CI bench-regression gate.

use std::path::PathBuf;
use std::process::ExitCode;
use sunfloor_bench::{experiments, gate, Effort};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let run_gate = args.iter().any(|a| a == "--gate");
    let mut tolerance = 0.30f64;
    for a in &args {
        if let Some(v) = a.strip_prefix("--gate-tolerance=") {
            match v.parse::<f64>() {
                Ok(t) if t >= 0.0 => tolerance = t,
                _ => {
                    eprintln!("invalid --gate-tolerance `{v}` (expected a fraction like 0.30)");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let ids: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();

    if ids.is_empty() || ids.contains(&"list") {
        eprintln!("usage: experiments <id>... [--quick] [--gate] [--gate-tolerance=0.30]");
        eprintln!("ids: all {}", experiments::ALL_IDS.join(" "));
        return if ids.contains(&"list") { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    let effort = if quick { Effort::Quick } else { Effort::Full };
    let out_dir = PathBuf::from("target/experiments");
    let mut failures = 0;

    // Expand `all` into one pass per experiment family so artifacts stream
    // out as each family completes (the media figures share one sweep).
    let ids: Vec<&str> = if ids.contains(&"all") {
        vec![
            "fig1", "media", "tab1", "fig17", "ill", "fig23", "fig18", "floorplans", "runtime",
            "bench",
        ]
    } else {
        ids
    };

    let mut ran_bench = false;
    for id in ids {
        let artifacts = experiments::run(id, effort);
        if artifacts.is_empty() {
            eprintln!("unknown experiment id `{id}` (try `experiments list`)");
            failures += 1;
            continue;
        }
        ran_bench |= id == "bench";
        for artifact in artifacts {
            println!("{}", artifact.render());
            if let Err(e) = artifact.write_to(&out_dir) {
                eprintln!("warning: could not write {}: {e}", artifact.id());
            }
        }
    }

    // The bench-regression gate: diff the fresh artifact against the
    // committed previous-phase baseline.
    if run_gate {
        if !ran_bench {
            eprintln!("--gate requires the `bench` experiment (it diffs a fresh artifact)");
            failures += 1;
        } else {
            match (
                std::fs::read_to_string(experiments::BENCH_BASELINE_PATH),
                std::fs::read_to_string(experiments::BENCH_ARTIFACT_PATH),
            ) {
                (Ok(baseline), Ok(current)) => {
                    let report = gate::compare(&baseline, &current, tolerance);
                    println!("{}", report.render());
                    if report.regressed() {
                        eprintln!(
                            "bench gate failed: a tracked metric regressed more than {:.0}% \
                             against {}",
                            tolerance * 100.0,
                            experiments::BENCH_BASELINE_PATH
                        );
                        failures += 1;
                    }
                }
                (Err(e), _) => {
                    eprintln!(
                        "bench gate: cannot read baseline {}: {e}",
                        experiments::BENCH_BASELINE_PATH
                    );
                    failures += 1;
                }
                (_, Err(e)) => {
                    eprintln!(
                        "bench gate: cannot read fresh artifact {}: {e}",
                        experiments::BENCH_ARTIFACT_PATH
                    );
                    failures += 1;
                }
            }
        }
    }

    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
