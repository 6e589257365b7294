//! `perfbench`: the end-to-end SunFloor 3D synthesis benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload as a closed loop with one client for `--seconds`
//! seconds, checks every outcome, and prints one JSON object as the last
//! line of stdout: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured untraced; with
//! `--trace 1` the run replays the workload's anchor operation through the
//! public layer functions with a span around each call and reports the
//! per-layer metrics. See `README.md` for the workloads and metrics.

mod check;
mod replay;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use sunfloor_core::export::{layout_to_svg, topology_to_dot};
use sunfloor_core::graph::CommGraph;
use sunfloor_core::spec::{CommSpec, SocSpec};
use sunfloor_core::synthesis::{
    Parallelism, StopPolicy, SweepEvent, SynthesisConfig, SynthesisEngine, SynthesisOutcome,
};
use trace::Tracer;
use workload::{Kind, Setup, Summary};

const USAGE: &str =
    "usage: perfbench --workload <media26-oneshot|d36x8-explore|pipe65-tempered> --seed <u64> --seconds <n> --trace <0|1>";

/// Set-up runs at least this many times per run, and for at least
/// [`SETUP_MIN_TIME`]; its median is reported.
const SETUP_MIN_REPS: usize = 5;

/// Minimum total time spent repeating set-up.
const SETUP_MIN_TIME: Duration = Duration::from_secs(1);

/// Operations run untimed for at least this long (and at least once)
/// before the timed loop, so caches, the allocator and the clock settle.
const WARMUP: Duration = Duration::from_secs(1);

/// Repetitions of the engine-level measurements of a traced run.
const ENGINE_REPS: usize = 3;

/// Minimum samples on each side of a traced run.
const MIN_TRACE_SAMPLES: usize = 3;

/// Most traced replays per run; bounds the spans kept in memory.
const MAX_REPLAYS: usize = 30;

/// Span names of the layers; their self times add up to the traced
/// operation minus its glue (`op`, `warmup` and `candidate` self time).
const LAYERS: [&str; 9] = [
    "spec.parse",
    "graph.build",
    "phase1",
    "phase2",
    "paths",
    "place",
    "layout",
    "eval",
    "export",
];

struct Args {
    workload: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Kind::from_name(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if s == 0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got `{value}`")),
                });
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run prints.
struct Report {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON result.
    notes: Vec<String>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    r#""{}": {{"value": {}, "unit": "{}"}}"#,
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Checks every feasible point of `outcome` with the independent
/// constraint checker and summarizes it.
fn check_outcome(
    soc: &SocSpec,
    comm: &CommSpec,
    cfg: &SynthesisConfig,
    outcome: &SynthesisOutcome,
) -> Result<Summary, String> {
    for (i, p) in outcome.points.iter().enumerate() {
        let max_ports = cfg
            .library
            .switch
            .max_size_for_frequency(p.metrics.frequency_mhz);
        check::check_topology(&p.topology, soc, comm, cfg.max_ill, max_ports)
            .map_err(|e| format!("point {i} ({} switches): {e}", p.requested_switches))?;
    }
    Ok(workload::summarize(outcome))
}

/// Operation outcomes of an untraced run, checked as they arrive. A sweep
/// is one `run` of one design with one config; each distinct sweep of the
/// workload has an index.
struct Tally {
    /// The first summary of each sweep: the reference its later repeats
    /// must equal.
    first: Vec<Option<Summary>>,
    /// Sweeps one operation runs.
    per_op: usize,
    /// The wall time of each timed operation, ms.
    times: Vec<f64>,
    /// Timed operations that passed their checks.
    passed: usize,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

impl Tally {
    fn new(sweeps: usize, per_op: usize) -> Self {
        Self {
            first: vec![None; sweeps],
            per_op,
            times: Vec::new(),
            passed: 0,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Feasible points per operation: summed over the sweeps of an
    /// operation, averaged over the sweep groups operations cycle through.
    fn feasible_points(&self) -> f64 {
        let points: usize = self.first.iter().flatten().map(|s| s.points).sum();
        points as f64 * self.per_op as f64 / self.first.len() as f64
    }

    /// Checks sweep `i`: it must pass the constraint re-check and equal the
    /// sweep's first outcome. Returns whether it did.
    fn verify(&mut self, i: usize, checked: Result<Summary, String>) -> bool {
        let error = match (checked, &self.first[i]) {
            (Err(e), _) => Some(e),
            (Ok(s), Some(first)) if s != *first => {
                Some(format!("sweep {i}: outcome differs from its first run"))
            }
            (Ok(s), None) => {
                self.first[i] = Some(s);
                None
            }
            (Ok(_), Some(_)) => None,
        };
        if let Some(e) = &error {
            if self.errors.len() < 5 {
                self.errors.push(format!("op {}: {e}", self.attempted + 1));
            }
        }
        error.is_none()
    }

    /// Records an operation; `op_ms` is its wall time, `None` for a
    /// warm-up operation.
    fn record_op(&mut self, op_ms: Option<f64>, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        if let Some(t) = op_ms {
            self.times.push(t);
            self.passed += usize::from(ok);
        }
    }

    /// Runs `op` untimed for [`WARMUP`], then timed for `run`, each at
    /// least once. `op` returns its wall time in ms and whether it passed
    /// its checks.
    fn closed_loop(&mut self, run: Duration, mut op: impl FnMut(&mut Self) -> (f64, bool)) {
        for (timed, length) in [(false, WARMUP), (true, run)] {
            let start = Instant::now();
            let mut ops = 0;
            while ops == 0 || start.elapsed() < length {
                let (took, ok) = op(self);
                self.record_op(timed.then_some(took), ok);
                ops += 1;
            }
        }
    }
}

/// Runs a set-up step at least [`SETUP_MIN_REPS`] times and for at least
/// [`SETUP_MIN_TIME`], recording each duration in seconds; returns the last
/// result.
fn repeat_setup<T>(
    setup_s: &mut Vec<f64>,
    mut step: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let out = step()?;
        setup_s.push(t.elapsed().as_secs_f64());
        if setup_s.len() >= SETUP_MIN_REPS && start.elapsed() >= SETUP_MIN_TIME {
            return Ok(out);
        }
    }
}

/// The warmed engines of every config.
fn warmed_engines<'a>(
    soc: &'a SocSpec,
    comm: &CommSpec,
    configs: &[SynthesisConfig],
) -> Result<Vec<SynthesisEngine<'a>>, String> {
    configs
        .iter()
        .map(|c| workload::warmed_engine(soc, comm, c))
        .collect()
}

/// The untraced run: set-up (repeated, median reported), then operations
/// for `seconds`, then the end-to-end metrics.
fn measure(args: &Args) -> Result<Report, String> {
    let deadline = Duration::from_secs(args.seconds);
    let mut setup_s = Vec::new();
    let mut errors = Vec::new();
    let (tally, peak_rss_mb, anchor_sweeps) = if args.workload.is_oneshot() {
        let setup = repeat_setup(&mut setup_s, || workload::setup(args.workload, args.seed))?;
        let cfg = &setup.configs[0];
        let mut tally = Tally::new(setup.designs.len(), setup.sweeps_per_op);
        tally.closed_loop(deadline, |tally| {
            let (mut took, mut ok) = (0.0, true);
            for (i, specs) in setup.designs.iter().enumerate() {
                let t = Instant::now();
                let result = workload::oneshot(specs, cfg);
                took += ms(t.elapsed());
                ok &= tally.verify(
                    i,
                    result.and_then(|(soc, comm, o)| check_outcome(&soc, &comm, cfg, &o)),
                );
            }
            (took, ok)
        });
        let peak_rss_mb = stats::peak_rss_mb()?;
        (tally, peak_rss_mb, setup.designs.len())
    } else {
        // Explore set-up also parses the specs and builds the warmed
        // engines; the engines the operations use are built once more,
        // untimed, from the last repetition's specs.
        let (setup, soc, comm) = repeat_setup(&mut setup_s, || {
            let s = workload::setup(args.workload, args.seed)?;
            let (soc, comm) = workload::parse(&s.designs[0])?;
            warmed_engines(&soc, &comm, &s.configs)?;
            Ok((s, soc, comm))
        })?;
        let engines = warmed_engines(&soc, &comm, &setup.configs)?;
        let per_op = setup.sweeps_per_op;
        let mut tally = Tally::new(engines.len(), per_op);
        tally.closed_loop(deadline, |tally| {
            let first = tally.attempted * per_op % engines.len();
            let (mut took, mut ok) = (0.0, true);
            for (i, engine) in engines.iter().enumerate().skip(first).take(per_op) {
                let t = Instant::now();
                let outcome = engine.run();
                took += ms(t.elapsed());
                ok &= tally.verify(i, check_outcome(&soc, &comm, &setup.configs[i], &outcome));
            }
            (took, ok)
        });
        let peak_rss_mb = stats::peak_rss_mb()?;
        // Once per run, after the memory reading: the first operation's
        // 2-worker engines must reproduce a serial engine's outcome.
        for (i, (engine, cfg)) in engines.iter().zip(&setup.configs).take(per_op).enumerate() {
            let serial_cfg = SynthesisConfig {
                parallelism: Parallelism::Serial,
                ..cfg.clone()
            };
            let serial = workload::warmed_engine(&soc, &comm, &serial_cfg)?;
            if workload::summarize(&serial.run()) != workload::summarize(&engine.run()) {
                errors.push(format!(
                    "config {i}: the jobs-2 outcome differs from jobs 1"
                ));
            }
        }
        (tally, peak_rss_mb, 1)
    };

    errors.extend(tally.errors.iter().cloned());
    // Quality metrics: the mean over the anchor sweeps (the anchor config
    // on each design) of each sweep's figure.
    let anchors = &tally.first[..anchor_sweeps];
    let mut quality = |name: &str, pick: fn(&Summary) -> Option<f64>| {
        let values: Option<Vec<f64>> = anchors.iter().map(|s| s.as_ref().and_then(pick)).collect();
        match values {
            Some(v) if !v.is_empty() => v.iter().sum::<f64>() / v.len() as f64,
            _ => {
                errors.push(format!(
                    "{name}: an anchor sweep has no checked feasible point"
                ));
                0.0
            }
        }
    };
    let best_power_mw = quality("best_power_mw", |s| s.best_power_mw);
    let best_latency_cyc = quality("best_latency_cyc", |s| s.best_latency_cyc);
    let best_area_mm2 = quality("best_area_mm2", |s| s.best_area_mm2);

    let completed = tally.attempted - tally.failed;
    let metric = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        metric(
            "synth_ms_p50",
            stats::percentile(&tally.times, 50.0).unwrap_or(0.0),
            "ms",
        ),
        metric(
            "synth_ms_p90",
            stats::percentile(&tally.times, 90.0).unwrap_or(0.0),
            "ms",
        ),
        metric(
            "synth_per_s",
            tally.passed as f64 * 1e3 / tally.times.iter().sum::<f64>(),
            "1/s",
        ),
        metric("setup_s", stats::median(&setup_s).unwrap_or(0.0), "s"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
        metric("best_power_mw", best_power_mw, "mW"),
        metric("best_latency_cyc", best_latency_cyc, "cycles"),
        metric("best_area_mm2", best_area_mm2, "mm2"),
        metric("feasible_points", tally.feasible_points(), "count"),
        metric(
            "ops_ok_ratio",
            completed as f64 / tally.attempted as f64,
            "ratio",
        ),
    ];
    let notes = vec![
        format!(
            "workload {} seed {}: closed loop, 1 client; {} operations timed after {} warm-up operations; set-up repeated {} times",
            args.workload.name(),
            args.seed,
            tally.times.len(),
            tally.attempted - tally.times.len(),
            setup_s.len()
        ),
        format!(
            "ops_failed_ratio {} ({} of {} operations failed)",
            tally.failed as f64 / tally.attempted as f64,
            tally.failed,
            tally.attempted
        ),
    ];
    Ok(Report {
        attempted: tally.attempted,
        failed: tally.failed,
        errors,
        metrics,
        notes,
    })
}

/// What a traced replay is compared on.
#[derive(Debug, PartialEq)]
struct ReplayKey {
    points: usize,
    rejected: usize,
    best_power_bits: Option<u64>,
}

fn engine_key(o: &SynthesisOutcome) -> ReplayKey {
    ReplayKey {
        points: o.points.len(),
        rejected: o.rejected.len(),
        best_power_bits: o.best_power().map(|p| p.metrics.power.total_mw().to_bits()),
    }
}

fn replay_key(points: &[replay::Point], c: &replay::Counters) -> ReplayKey {
    ReplayKey {
        points: points.len(),
        rejected: c.rejected as usize,
        best_power_bits: replay::best_power(points).map(|p| p.metrics.power.total_mw().to_bits()),
    }
}

/// Replays one one-shot operation (parse, graph, warm-ups, sweep, export)
/// inside an `op` span.
fn replay_oneshot(setup: &Setup, tr: &mut Tracer) -> Result<(replay::Counters, ReplayKey), String> {
    let root = tr.enter("op");
    let (soc, comm) = tr.span("spec.parse", || workload::parse(&setup.designs[0]))?;
    let graph = tr.span("graph.build", || CommGraph::new(&soc, &comm));
    let replay = replay::Replay::new(&soc, &graph, &setup.configs[0])?;
    let mut c = replay::Counters::default();
    let warm = replay.warm_up(tr, &mut c);
    let points = replay.sweep(&warm, tr, &mut c)?;
    if let Some(best) = replay::best_power(&points) {
        tr.span("export", || {
            black_box(topology_to_dot(&best.topology, &soc));
            if let Some(layout) = &best.layout {
                black_box(layout_to_svg(layout));
            }
        });
    }
    tr.exit(root);
    Ok((c, replay_key(&points, &c)))
}

/// The traced run: engine-level measurements, the untraced serial
/// reference operation, then traced replays of the anchor operation.
fn traced_run(args: &Args) -> Result<Report, String> {
    let half = Duration::from_secs(args.seconds) / 2;
    let setup = workload::setup(args.workload, args.seed)?;
    let anchor = &setup.configs[0];
    let serial_cfg = SynthesisConfig {
        parallelism: Parallelism::Serial,
        ..anchor.clone()
    };
    let (soc, comm) = workload::parse(&setup.designs[0])?;
    let mut errors = Vec::new();
    let mut attempted = 0usize;
    let mut failed = 0usize;

    // engine.*: a fresh engine's warm-up, then its (configured) sweep.
    let mut warmup_ms = Vec::new();
    let mut sweep_ms = Vec::new();
    for _ in 0..ENGINE_REPS {
        let engine = SynthesisEngine::new(&soc, &comm, anchor.clone())
            .map_err(|e| format!("engine: {e}"))?;
        let t = Instant::now();
        black_box(engine.run_with_policy(StopPolicy::PointBudget(0)));
        warmup_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        black_box(engine.run());
        sweep_ms.push(ms(t.elapsed()));
    }
    // Candidate gaps and event counts from a warmed serial engine.
    let serial = workload::warmed_engine(&soc, &comm, &serial_cfg)?;
    let mut terminals = Vec::new();
    let mut theta_events = 0usize;
    let start = Instant::now();
    let reference = serial.run_with_observer(&mut |e: &SweepEvent| match e {
        SweepEvent::CandidateAccepted { .. } | SweepEvent::CandidateRejected { .. } => {
            terminals.push(ms(start.elapsed()));
        }
        SweepEvent::ThetaEscalated { .. } => theta_events += 1,
        SweepEvent::CandidateStarted { .. } => {}
    });
    let gaps: Vec<f64> = terminals
        .iter()
        .scan(0.0, |prev, &t| Some(t - std::mem::replace(prev, t)))
        .collect();
    let expected = engine_key(&reference);

    // The untraced reference: the serial form of the replayed operation.
    let mut untraced = Vec::new();
    let start = Instant::now();
    while untraced.len() < MIN_TRACE_SAMPLES || start.elapsed() < half {
        let t = Instant::now();
        let outcome = if args.workload.is_oneshot() {
            workload::oneshot(&setup.designs[0], anchor)?.2
        } else {
            serial.run()
        };
        untraced.push(ms(t.elapsed()));
        attempted += 1;
        if engine_key(&outcome) != expected {
            failed += 1;
        }
    }
    if failed > 0 {
        errors.push(format!(
            "{failed} untraced operations differ from the observed sweep"
        ));
    }
    let untraced_ms = stats::median(&untraced).unwrap_or(0.0);

    // Traced replays. Explore operations start from warmed engines, so the
    // replay's warm-up runs once, outside the operations (op 0).
    let mut tr = Tracer::new();
    let graph = CommGraph::new(&soc, &comm);
    let steady = replay::Replay::new(&soc, &graph, anchor)?;
    let warm = (!args.workload.is_oneshot())
        .then(|| steady.warm_up(&mut tr, &mut replay::Counters::default()));
    let mut counters = None;
    let mut per_layer: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut coverage = Vec::new();
    let mut traced_ms = Vec::new();
    let start = Instant::now();
    let mut op = 0u32;
    while (op as usize) < MIN_TRACE_SAMPLES
        || ((op as usize) < MAX_REPLAYS && start.elapsed() < half)
    {
        op += 1;
        tr.set_op(op);
        let t = Instant::now();
        let (c, key) = match &warm {
            None => replay_oneshot(&setup, &mut tr)?,
            Some(warm) => {
                let root = tr.enter("op");
                let mut c = replay::Counters::default();
                let points = steady.sweep(warm, &mut tr, &mut c)?;
                tr.exit(root);
                (c, replay_key(&points, &c))
            }
        };
        traced_ms.push(ms(t.elapsed()));
        attempted += 1;
        if key != expected {
            failed += 1;
            if failed <= 5 {
                errors.push(format!(
                    "replay {op}: {key:?} differs from the engine's {expected:?}"
                ));
            }
        }
        let self_ms: BTreeMap<&str, f64> = trace::self_times(tr.spans(), op)
            .into_iter()
            .map(|(k, ns)| (k, ns as f64 / 1e6))
            .collect();
        for layer in LAYERS {
            per_layer
                .entry(layer)
                .or_default()
                .push(self_ms.get(layer).copied().unwrap_or(0.0));
        }
        coverage.push(LAYERS.iter().filter_map(|l| self_ms.get(l)).sum::<f64>() / untraced_ms);
        counters.get_or_insert(c);
    }
    let spans_path = Path::new(".bench_out").join(format!("spans-{}.jsonl", args.workload.name()));
    tr.write_jsonl(&spans_path)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;

    let c = counters.unwrap_or_default();
    let layer_ms = |name: &str| {
        per_layer
            .get(name)
            .and_then(|v| stats::median(v))
            .unwrap_or(0.0)
    };
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let count = |name: &'static str, v: u64| Metric {
        name,
        value: v as f64,
        unit: "count",
    };
    let time = |name: &'static str, v: f64| Metric {
        name,
        value: v,
        unit: "ms",
    };
    let share = |name: &'static str, v: f64| Metric {
        name,
        value: v,
        unit: "ratio",
    };
    let lp_total = c.lp.cold_solves + c.lp.warm_solves;
    let attempts = (reference.points.len() + reference.rejected.len()) as u64;
    let metrics = vec![
        time("engine.warmup_ms", stats::median(&warmup_ms).unwrap_or(0.0)),
        time("engine.sweep_ms", stats::median(&sweep_ms).unwrap_or(0.0)),
        count("engine.candidates", terminals.len() as u64),
        count("engine.attempts", attempts),
        count("engine.theta_steps", theta_events as u64),
        share(
            "engine.accept_ratio",
            ratio(reference.points.len() as u64, attempts),
        ),
        time(
            "engine.candidate_ms_p50",
            stats::percentile(&gaps, 50.0).unwrap_or(0.0),
        ),
        time(
            "engine.candidate_ms_p90",
            stats::percentile(&gaps, 90.0).unwrap_or(0.0),
        ),
        time("spec.parse_ms", layer_ms("spec.parse")),
        time("graph.build_ms", layer_ms("graph.build")),
        time("export.ms", layer_ms("export")),
        count("phase1.calls", c.phase1_calls),
        time("phase1.ms", layer_ms("phase1")),
        count("phase1.cold_calls", c.partition.cold_partitions),
        count("phase1.warm_calls", c.partition.warm_partitions),
        count("phase1.spg_derivations", c.partition.spg_derivations),
        count("phase1.cache_hits", c.partition.cache_hits()),
        count("phase2.calls", c.phase2_calls),
        time("phase2.ms", layer_ms("phase2")),
        count("paths.calls", c.paths_calls),
        time("paths.ms", layer_ms("paths")),
        share("paths.fail_ratio", ratio(c.paths_failed, c.paths_calls)),
        count("paths.indirect_rounds", c.indirect_rounds),
        count("paths.flows_routed", c.routing.flows_routed),
        count("paths.deadlock_rollbacks", c.routing.deadlock_rollbacks),
        count("place.calls", c.place_calls),
        time("place.ms", layer_ms("place")),
        count("lp.cold_solves", c.lp.cold_solves),
        count("lp.warm_solves", c.lp.warm_solves),
        count(
            "lp.cross_candidate_warm_solves",
            c.lp.cross_candidate_warm_solves,
        ),
        count("lp.simplex_iterations", c.lp.simplex_iterations),
        count("lp.iterations_saved", c.lp.iterations_saved),
        share("lp.warm_ratio", ratio(c.lp.warm_solves, lp_total)),
        count("layout.calls", c.layout_calls),
        time("layout.ms", layer_ms("layout")),
        count("anneal.runs", c.anneal.runs),
        share("anneal.swap_acceptance", c.anneal.swap_acceptance()),
        count("eval.calls", c.eval_calls),
        time("eval.ms", layer_ms("eval")),
        share("eval.reject_ratio", ratio(c.eval_rejects, c.eval_calls)),
        share("trace.coverage", stats::median(&coverage).unwrap_or(0.0)),
        share(
            "trace.overhead",
            stats::median(&traced_ms).unwrap_or(0.0) / untraced_ms - 1.0,
        ),
    ];
    let notes = vec![
        format!(
            "workload {} seed {}: traced replay of the anchor operation, {} replays against {} untraced serial operations (median {untraced_ms:.3} ms)",
            args.workload.name(),
            args.seed,
            traced_ms.len(),
            untraced.len()
        ),
        format!("spans written to {}", spans_path.display()),
    ];
    Ok(Report {
        attempted,
        failed,
        errors,
        metrics,
        notes,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        traced_run(&args)
    } else {
        measure(&args)
    };
    match report {
        Ok(report) => {
            for line in &report.notes {
                println!("{line}");
            }
            for m in &report.metrics {
                println!("{:<32} {:>14.4} {}", m.name, m.value, m.unit);
            }
            for e in &report.errors {
                println!("check failed: {e}");
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
