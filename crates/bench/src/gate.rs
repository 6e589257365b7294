//! The CI bench-regression gate: diffs a freshly measured bench artifact
//! against the committed baseline (`BENCH_phase<N-1>.json`) and reports
//! which tracked metrics regressed beyond a tolerance.
//!
//! The artifacts are the flat hand-written JSON the `bench` experiment
//! emits; [`flatten_json_numbers`] walks that subset of JSON (objects,
//! numbers, strings, booleans) and yields dotted-path/value pairs, so the
//! comparison survives additive schema changes: metrics present in only
//! one file are reported as skipped, never as failures.

use std::fmt::Write as _;

/// Whether a larger or a smaller value of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Wall-clock style: regression means the value grew.
    LowerIsBetter,
    /// Throughput style: regression means the value shrank.
    HigherIsBetter,
}

/// One metric the gate tracks across bench artifacts.
#[derive(Debug, Clone, Copy)]
pub struct TrackedMetric {
    /// Dotted path into the artifact (e.g. `"sweep.serial_s"`).
    pub path: &'static str,
    /// Improvement direction.
    pub direction: Direction,
    /// Informational metrics are compared and rendered but can never fail
    /// the gate: their value depends on the *runner* (core count), not on
    /// the code under test, so a delta is a provisioning change, not a
    /// regression.
    pub informational: bool,
}

impl TrackedMetric {
    /// A metric whose regression beyond tolerance fails the gate.
    const fn gated(path: &'static str, direction: Direction) -> Self {
        Self { path, direction, informational: false }
    }

    /// A runner-dependent metric: reported alongside the gated diff but
    /// excluded from it.
    const fn informational(path: &'static str, direction: Direction) -> Self {
        Self { path, direction, informational: true }
    }
}

/// The metrics the gate compares, covering every hot path the bench
/// artifact times. Ratio-style duplicates (`flows_per_s` vs `per_pass_s`)
/// are tracked once, in the direction the artifact headline uses.
pub const TRACKED_METRICS: &[TrackedMetric] = &[
    TrackedMetric::gated("sweep.serial_s", Direction::LowerIsBetter),
    TrackedMetric::gated("sweep.parallel_s", Direction::LowerIsBetter),
    // The one-shot cost (engine construction, Phase-1 and placement-LP
    // warm-ups, first sweep): present from phase 4 on, gated since phase
    // 11. Skipped against the phase-3 baseline.
    TrackedMetric::gated("sweep.first_run_s", Direction::LowerIsBetter),
    TrackedMetric::gated("partition_phase1_k8_s", Direction::LowerIsBetter),
    // Present from phase 4 on: skipped against the phase-3 baseline, and
    // self-activating once BENCH_phase4.json becomes the baseline — so the
    // cold from-scratch path and the θ-escalation path stay gated even
    // though the headline metric's measurement changed shape in phase 4.
    TrackedMetric::gated("partition_phase1_k8_cold_s", Direction::LowerIsBetter),
    // Renamed in phase 7 (from `partition_phase1_k8_theta_spg_s`) when the
    // θ-escalation step stopped materializing a dense SPG in favour of the
    // sparse group-attraction fold: skipped against the phase-6 baseline,
    // active now that BENCH_phase7.json is the baseline.
    TrackedMetric::gated("partition_phase1_k8_theta_sparse_s", Direction::LowerIsBetter),
    TrackedMetric::gated("routing.flows_per_s", Direction::HigherIsBetter),
    TrackedMetric::gated("placement_lp_k8_s", Direction::LowerIsBetter),
    // Present from phase 5 on (the warm-started placement-LP subsystem):
    // skipped against the phase-4 baseline, active now that
    // BENCH_phase5.json is the baseline.
    TrackedMetric::gated("placement_lp_warm_k8_s", Direction::LowerIsBetter),
    TrackedMetric::gated("placement_lp_chain.warm_s", Direction::LowerIsBetter),
    TrackedMetric::gated("annealer.iterations_per_s", Direction::HigherIsBetter),
    // Gated since phase 10 (it had risen 1.50 -> 2.23 µs over phases 4->7
    // unflagged).
    TrackedMetric::gated("pack_lcs.per_pack_s", Direction::LowerIsBetter),
    // Present from phase 6 on (the parallel-tempering annealer): skipped
    // against the phase-5 baseline, self-activating once BENCH_phase6.json
    // becomes the baseline.
    TrackedMetric::gated("tempering.aggregate_iters_per_s_r4", Direction::HigherIsBetter),
    // The serial chain's throughput, gated since phase 9 (it had slid
    // 380k -> 246k iterations/s from phase 6 to phase 7 unflagged).
    TrackedMetric::gated("tempering.serial_iters_per_s", Direction::HigherIsBetter),
    // Present from phase 9 on (the tempered layout path's net-free
    // anneal): skipped against the phase-8 baseline, active since
    // BENCH_phase9.json became the baseline.
    TrackedMetric::gated(
        "tempering.layout_r2.per_replica_iters_per_s",
        Direction::HigherIsBetter,
    ),
    // Present from phase 10 on (the shove-insertion layout of one D_36_8
    // candidate): skipped against the phase-9 baseline, active now that
    // BENCH_phase10.json is the baseline.
    TrackedMetric::gated("layout.shove_d36x8.per_call_s", Direction::LowerIsBetter),
    // The replica-scaling ratio is a property of the runner's core count
    // (a 1-core runner time-shares the replicas and reports ~1.0): tracked
    // so re-baselining surfaces the drift, but never a gate failure.
    TrackedMetric::informational("tempering.aggregate_speedup_r4", Direction::HigherIsBetter),
];

/// Comparison of one tracked metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Dotted metric path.
    pub path: String,
    /// Value in the baseline artifact.
    pub baseline: f64,
    /// Value in the current artifact.
    pub current: f64,
    /// Signed relative change in the *regression* direction: positive
    /// means worse (e.g. +0.4 = 40% slower / 40% less throughput).
    pub relative_regression: f64,
    /// Whether the change exceeds the gate tolerance.
    pub regressed: bool,
}

/// The gate's verdict over all tracked metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct GateReport {
    /// Tolerance the comparison ran with (fraction, e.g. 0.30).
    pub tolerance: f64,
    /// Per-metric comparisons of the gated metrics, in
    /// [`TRACKED_METRICS`] order.
    pub deltas: Vec<MetricDelta>,
    /// Comparisons of the runner-dependent informational metrics:
    /// rendered for the record, excluded from the gate diff (their
    /// `regressed` is always `false` and [`GateReport::regressed`] never
    /// looks at them).
    pub informational: Vec<MetricDelta>,
    /// Tracked metrics absent from one of the artifacts (new or retired
    /// fields) — informational, never a failure.
    pub skipped: Vec<String>,
}

impl GateReport {
    /// Whether any tracked metric regressed beyond the tolerance.
    #[must_use]
    pub fn regressed(&self) -> bool {
        self.deltas.iter().any(|d| d.regressed)
    }

    /// Human-readable table of the verdict.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "bench gate (tolerance {:.0}%): {}\n",
            self.tolerance * 100.0,
            if self.regressed() { "FAIL" } else { "ok" }
        );
        for d in &self.deltas {
            let _ = writeln!(
                out,
                "  {:<28} baseline {:>14.9}  current {:>14.9}  {:+7.1}% {}",
                d.path,
                d.baseline,
                d.current,
                d.relative_regression * 100.0,
                if d.regressed { "REGRESSED" } else { "ok" }
            );
        }
        for d in &self.informational {
            let _ = writeln!(
                out,
                "  {:<28} baseline {:>14.9}  current {:>14.9}  {:+7.1}% info (not gated)",
                d.path,
                d.baseline,
                d.current,
                d.relative_regression * 100.0,
            );
        }
        for p in &self.skipped {
            let _ = writeln!(out, "  {p:<28} skipped (absent from one artifact)");
        }
        out
    }
}

/// Compares `current` against `baseline` (both bench artifact JSON texts)
/// at the given tolerance.
#[must_use]
pub fn compare(baseline: &str, current: &str, tolerance: f64) -> GateReport {
    let base = flatten_json_numbers(baseline);
    let cur = flatten_json_numbers(current);
    let lookup = |flat: &[(String, f64)], path: &str| {
        flat.iter().find(|(p, _)| p == path).map(|&(_, v)| v)
    };
    let mut deltas = Vec::new();
    let mut informational = Vec::new();
    let mut skipped = Vec::new();
    for m in TRACKED_METRICS {
        match (lookup(&base, m.path), lookup(&cur, m.path)) {
            (Some(b), Some(c)) if b != 0.0 => {
                let relative_regression = match m.direction {
                    Direction::LowerIsBetter => (c - b) / b,
                    Direction::HigherIsBetter => (b - c) / b,
                };
                let delta = MetricDelta {
                    path: m.path.to_string(),
                    baseline: b,
                    current: c,
                    relative_regression,
                    regressed: !m.informational && relative_regression > tolerance,
                };
                if m.informational {
                    informational.push(delta);
                } else {
                    deltas.push(delta);
                }
            }
            _ => skipped.push(m.path.to_string()),
        }
    }
    GateReport { tolerance, deltas, informational, skipped }
}

/// Flattens the numeric leaves of a JSON text into dotted-path/value
/// pairs, in document order. Handles the subset the bench artifacts use —
/// nested objects, numbers, strings, booleans and nulls; arrays are
/// skipped (no tracked metric lives in one). Malformed input yields the
/// pairs parsed up to the malformation.
#[must_use]
pub fn flatten_json_numbers(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos, "", &mut out);
    out
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Option<String> {
    if b.get(*pos) != Some(&b'"') {
        return None;
    }
    *pos += 1;
    let start = *pos;
    while *pos < b.len() && b[*pos] != b'"' {
        // The artifacts never escape quotes; a backslash still skips the
        // next byte so we cannot run past a closing quote.
        if b[*pos] == b'\\' {
            *pos += 1;
        }
        *pos += 1;
    }
    let s = String::from_utf8_lossy(&b[start..(*pos).min(b.len())]).into_owned();
    *pos += 1; // closing quote
    Some(s)
}

fn parse_value(b: &[u8], pos: &mut usize, path: &str, out: &mut Vec<(String, f64)>) {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            loop {
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b'}') => {
                        *pos += 1;
                        break;
                    }
                    Some(b',') => {
                        *pos += 1;
                    }
                    Some(b'"') => {
                        let Some(key) = parse_string(b, pos) else { break };
                        skip_ws(b, pos);
                        if b.get(*pos) != Some(&b':') {
                            break;
                        }
                        *pos += 1;
                        let child =
                            if path.is_empty() { key } else { format!("{path}.{key}") };
                        parse_value(b, pos, &child, out);
                    }
                    _ => break,
                }
            }
        }
        Some(b'[') => {
            // Skip arrays wholesale (balanced brackets; strings scanned so
            // a bracket inside one cannot unbalance us).
            let mut depth = 0usize;
            while *pos < b.len() {
                match b[*pos] {
                    b'[' => depth += 1,
                    b']' => {
                        depth -= 1;
                        if depth == 0 {
                            *pos += 1;
                            break;
                        }
                    }
                    b'"' => {
                        let _ = parse_string(b, pos);
                        continue;
                    }
                    _ => {}
                }
                *pos += 1;
            }
        }
        Some(b'"') => {
            let _ = parse_string(b, pos);
        }
        Some(_) => {
            // Number, boolean or null: consume the bare token.
            let start = *pos;
            while *pos < b.len() && !b",}] \t\r\n".contains(&b[*pos]) {
                *pos += 1;
            }
            let token = std::str::from_utf8(&b[start..*pos]).unwrap_or("");
            if let Ok(v) = token.parse::<f64>() {
                out.push((path.to_string(), v));
            }
        }
        None => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
  "phase": 3,
  "benchmark": "media26",
  "sweep": { "candidates": 9, "serial_s": 0.006, "parallel_s": 0.0063, "jobs": 1 },
  "partition_phase1_k8_s": 0.000216725,
  "routing": { "flows": 38, "per_pass_s": 0.0000127, "flows_per_s": 2992032.9 },
  "placement_lp_k8_s": 0.000426066,
  "annealer": { "iterations": 30000, "per_run_s": 0.054678, "iterations_per_s": 548663 }
}"#;

    fn artifact(serial: f64, partition: f64, flows_per_s: f64, iters_per_s: f64) -> String {
        format!(
            r#"{{
  "phase": 4,
  "sweep": {{ "candidates": 9, "serial_s": {serial}, "parallel_s": {serial}, "jobs": 1 }},
  "partition_phase1_k8_s": {partition},
  "routing": {{ "flows": 38, "flows_per_s": {flows_per_s} }},
  "placement_lp_k8_s": 0.0004,
  "annealer": {{ "iterations": 30000, "iterations_per_s": {iters_per_s} }}
}}"#
        )
    }

    #[test]
    fn flattens_nested_objects_with_dotted_paths() {
        let flat = flatten_json_numbers(BASELINE);
        let get = |p: &str| flat.iter().find(|(k, _)| k == p).map(|&(_, v)| v);
        assert_eq!(get("phase"), Some(3.0));
        assert_eq!(get("sweep.serial_s"), Some(0.006));
        assert_eq!(get("routing.flows_per_s"), Some(2_992_032.9));
        assert_eq!(get("annealer.iterations_per_s"), Some(548_663.0));
        // Strings are not numbers.
        assert_eq!(get("benchmark"), None);
    }

    #[test]
    fn baseline_against_itself_passes() {
        let report = compare(BASELINE, BASELINE, 0.30);
        assert!(!report.regressed(), "{}", report.render());
        // The phase-3 baseline predates the phase-4 first-run sweep, the
        // cold/θ partition metrics, the phase-5 warm placement-LP metrics,
        // the phase-4 LCS pack, the phase-6/7/9 tempering metrics and the
        // phase-10 shove layout, so those eleven are skipped; everything
        // else compares equal.
        assert_eq!(report.deltas.len(), TRACKED_METRICS.len() - 11);
        assert_eq!(
            report.skipped,
            vec![
                "sweep.first_run_s".to_string(),
                "partition_phase1_k8_cold_s".to_string(),
                "partition_phase1_k8_theta_sparse_s".to_string(),
                "placement_lp_warm_k8_s".to_string(),
                "placement_lp_chain.warm_s".to_string(),
                "pack_lcs.per_pack_s".to_string(),
                "tempering.aggregate_iters_per_s_r4".to_string(),
                "tempering.serial_iters_per_s".to_string(),
                "tempering.layout_r2.per_replica_iters_per_s".to_string(),
                "layout.shove_d36x8.per_call_s".to_string(),
                "tempering.aggregate_speedup_r4".to_string()
            ]
        );
        assert!(report.deltas.iter().all(|d| d.relative_regression == 0.0));
    }

    /// The acceptance scenario: a simulated >30% regression on any tracked
    /// metric must fail the gate — in both metric directions.
    #[test]
    fn simulated_regressions_beyond_tolerance_fail() {
        // 40% slower serial sweep.
        let slow = artifact(0.006 * 1.4, 0.000216725, 2_992_032.9, 548_663.0);
        let report = compare(BASELINE, &slow, 0.30);
        assert!(report.regressed(), "{}", report.render());
        let d = report.deltas.iter().find(|d| d.path == "sweep.serial_s").unwrap();
        assert!(d.regressed && d.relative_regression > 0.30);

        // 40% lower annealer throughput (higher-is-better direction).
        let slow = artifact(0.006, 0.000216725, 2_992_032.9, 548_663.0 * 0.6);
        let report = compare(BASELINE, &slow, 0.30);
        assert!(report.regressed());
        let d =
            report.deltas.iter().find(|d| d.path == "annealer.iterations_per_s").unwrap();
        assert!(d.regressed);
    }

    #[test]
    fn regressions_within_tolerance_pass() {
        // 20% slower partition: inside the default 30% band.
        let near = artifact(0.006, 0.000216725 * 1.2, 2_992_032.9, 548_663.0);
        let report = compare(BASELINE, &near, 0.30);
        assert!(!report.regressed(), "{}", report.render());
        // The same artifact fails a tighter 10% gate.
        assert!(compare(BASELINE, &near, 0.10).regressed());
    }

    #[test]
    fn improvements_never_fail_the_gate() {
        let fast = artifact(0.003, 0.0001, 6_000_000.0, 1_100_000.0);
        let report = compare(BASELINE, &fast, 0.30);
        assert!(!report.regressed(), "{}", report.render());
        assert!(report.deltas.iter().all(|d| d.relative_regression < 0.0));
    }

    #[test]
    fn metrics_missing_from_either_side_are_skipped_not_failed() {
        let partial = r#"{ "sweep": { "serial_s": 0.001 } }"#;
        let report = compare(BASELINE, partial, 0.30);
        assert!(!report.regressed());
        assert_eq!(report.deltas.len(), 1);
        assert_eq!(report.skipped.len(), TRACKED_METRICS.len() - 1);
    }

    /// A metric the baseline tracks but the new artifact no longer emits
    /// is reported as skipped — dropping or renaming a metric cannot
    /// masquerade as either a pass or a regression.
    #[test]
    fn metric_in_baseline_but_absent_from_new_run_is_skipped() {
        let current = BASELINE.replace("\"partition_phase1_k8_s\": 0.000216725,", "");
        let report = compare(BASELINE, &current, 0.30);
        assert!(!report.regressed(), "{}", report.render());
        assert!(report.skipped.contains(&"partition_phase1_k8_s".to_string()));
        assert!(report.deltas.iter().all(|d| d.path != "partition_phase1_k8_s"));
    }

    /// The gate is strict-greater: a delta landing exactly on the
    /// tolerance boundary passes; any amount beyond it fails.
    #[test]
    fn delta_exactly_at_tolerance_boundary_passes() {
        let base = r#"{ "sweep": { "serial_s": 10.0 } }"#;
        let at_boundary = r#"{ "sweep": { "serial_s": 13.0 } }"#; // exactly +30%
        let report = compare(base, at_boundary, 0.30);
        assert!(!report.regressed(), "{}", report.render());
        let d = report.deltas.iter().find(|d| d.path == "sweep.serial_s").unwrap();
        assert_eq!(d.relative_regression, 0.30);
        assert!(!d.regressed);

        let over = r#"{ "sweep": { "serial_s": 13.001 } }"#;
        assert!(compare(base, over, 0.30).regressed());
    }

    /// Once both sides carry the phase-4 partition metrics they are
    /// compared, not skipped — the forward-gating path.
    #[test]
    fn phase4_only_metrics_activate_when_both_sides_have_them() {
        let with_new = |cold: f64| {
            format!(
                r#"{{ "partition_phase1_k8_s": 0.0001, "partition_phase1_k8_cold_s": {cold},
                     "partition_phase1_k8_theta_sparse_s": 0.0003 }}"#
            )
        };
        let ok = compare(&with_new(0.000123), &with_new(0.000130), 0.30);
        assert!(!ok.regressed(), "{}", ok.render());
        let bad = compare(&with_new(0.000123), &with_new(0.000123 * 1.5), 0.30);
        assert!(bad.regressed(), "{}", bad.render());
        let d = bad.deltas.iter().find(|d| d.path == "partition_phase1_k8_cold_s").unwrap();
        assert!(d.regressed);
    }

    /// The runner-dependent replica-scaling ratio is tracked but cannot
    /// fail the gate: a CI box with fewer cores than the baseline machine
    /// reports a collapsed speedup, which is a provisioning fact, not a
    /// code regression. The genuinely gated metrics in the same artifact
    /// still gate.
    #[test]
    fn informational_metrics_are_excluded_from_the_gate_diff() {
        let mk = |speedup: f64, serial: f64| {
            format!(
                r#"{{ "sweep": {{ "serial_s": {serial} }},
                     "tempering": {{ "aggregate_iters_per_s_r4": 386445.0,
                                     "aggregate_speedup_r4": {speedup} }} }}"#
            )
        };
        // The speedup collapsing 3.8× → 1.0× (a 1-core runner) passes.
        let report = compare(&mk(3.8, 0.006), &mk(1.0, 0.006), 0.30);
        assert!(!report.regressed(), "{}", report.render());
        let info = report
            .informational
            .iter()
            .find(|d| d.path == "tempering.aggregate_speedup_r4")
            .expect("informational metric present in both artifacts must be compared");
        assert!(info.relative_regression > 0.30, "the collapse is way past tolerance");
        assert!(!info.regressed, "informational deltas never regress");
        assert!(
            report.deltas.iter().all(|d| d.path != "tempering.aggregate_speedup_r4"),
            "informational metrics stay out of the gated diff"
        );
        assert!(report.render().contains("info (not gated)"));

        // A gated metric regressing alongside still fails the gate.
        let report = compare(&mk(3.8, 0.006), &mk(1.0, 0.006 * 1.5), 0.30);
        assert!(report.regressed(), "{}", report.render());
    }

    #[test]
    fn render_mentions_every_tracked_metric() {
        let report = compare(BASELINE, BASELINE, 0.30);
        let text = report.render();
        for m in TRACKED_METRICS {
            assert!(text.contains(m.path), "missing {} in:\n{text}", m.path);
        }
    }
}
