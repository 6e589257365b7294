//! The three workloads: the specs and configurations set-up builds, and
//! what one operation does.

use std::hint::black_box;
use sunfloor_core::export::{layout_to_svg, topology_to_dot};
use sunfloor_core::spec::{CommSpec, SocSpec};
use sunfloor_core::synthesis::{SweepEvent, SynthesisConfig, SynthesisEngine, SynthesisOutcome};

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// CLI calls on the 26-core media SoC: parse, fresh engine (with its
    /// warm-ups), serial sweep, export.
    Media26Oneshot,
    /// Steady-state sweeps of prebuilt, warmed 2-worker engines on D_36_8:
    /// one operation is a pass over a TSV-budget × frequency grid.
    D36x8Explore,
    /// The one-shot path on generated 65-core pipelines with tempered
    /// layout.
    Pipe65Tempered,
}

impl Kind {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Self; 3] = [
        Self::Media26Oneshot,
        Self::D36x8Explore,
        Self::Pipe65Tempered,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Media26Oneshot => "media26-oneshot",
            Self::D36x8Explore => "d36x8-explore",
            Self::Pipe65Tempered => "pipe65-tempered",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether one operation builds a fresh engine from spec text (the CLI
    /// path) rather than re-running prebuilt engines.
    pub fn is_oneshot(self) -> bool {
        self != Self::D36x8Explore
    }
}

/// Generated spec text, as the program receives it.
#[derive(Clone)]
pub struct Specs {
    /// Core specification text.
    pub cores: String,
    /// Communication specification text.
    pub comm: String,
}

/// Everything set-up produces before engines exist.
pub struct Setup {
    /// Spec text of each design; the first is the anchor design.
    pub designs: Vec<Specs>,
    /// The configurations; the first is the anchor config.
    pub configs: Vec<SynthesisConfig>,
    /// Sweeps one operation runs. A one-shot operation sweeps every design
    /// with the anchor config; an explore operation sweeps one group of
    /// consecutive configs, and operations cycle through the groups.
    pub sweeps_per_op: usize,
}

/// `(max_ill, MHz)` grid of `d36x8-explore`; the first entry is the anchor.
const EXPLORE_GRID: [(u32, f64); 3] = [(25, 400.0), (6, 400.0), (12, 700.0)];

/// `d36x8-explore` sweeps its grid at the partitioner seeds `seed`,
/// `seed + 1`, … in turn. On D_36_8 the seed alone moves a pass's θ
/// escalations by ±10% and its feasible points by up to 30%; cycling
/// through several seeds keeps one run's figures representative of the
/// workload rather than of one seed (with four seeds, timings still moved
/// by 11% between ten runs).
const EXPLORE_SEEDS: u64 = 8;

/// CLI calls in one one-shot operation: media26 eight times, or eight
/// generated pipelines. Eight media26 calls (about 140 ms) still leave
/// about 180 operations in a 30 s run, so the p90 has ten or more above it;
/// on the same per-call logs from a 2-vCPU VM, operations of 1 to 48 calls
/// spread alike between runs (the host's slow spells dominate).
///
/// The pipelines are `pipeline_seeded(65, 0)` … `pipeline_seeded(65, 7)`
/// whatever the seed, which sets only their `rng_seed`. Generated designs
/// differ up to fourfold in cost (each θ escalation is one more tempered
/// layout): with the designs drawn from the seed, one design per operation
/// moved the median by 22% between ten seeds, and eight designs still by
/// 31% on another ten.
const ONESHOT_CALLS: u64 = 8;

fn to_specs(bench: &sunfloor_benchmarks::Benchmark) -> Specs {
    Specs {
        cores: bench.soc.to_text(),
        comm: bench.comm.to_text(&bench.soc),
    }
}

/// Generates the workload's specs as text and its configurations. `seed`
/// becomes the configs' `rng_seed` (the first of `EXPLORE_SEEDS` for
/// `d36x8-explore`).
pub fn setup(kind: Kind, seed: u64) -> Result<Setup, String> {
    let designs: Vec<Specs> = match kind {
        Kind::Media26Oneshot => {
            vec![to_specs(&sunfloor_benchmarks::media26()); ONESHOT_CALLS as usize]
        }
        Kind::D36x8Explore => vec![to_specs(&sunfloor_benchmarks::distributed(8))],
        Kind::Pipe65Tempered => (0..ONESHOT_CALLS)
            .map(|k| to_specs(&sunfloor_benchmarks::pipeline_seeded(65, k)))
            .collect(),
    };
    let base = SynthesisConfig::builder().rng_seed(seed);
    let unchecked = match kind {
        Kind::Media26Oneshot => vec![base],
        Kind::D36x8Explore => (0..EXPLORE_SEEDS)
            .flat_map(|k| {
                let base = base.clone().rng_seed(seed.wrapping_add(k));
                EXPLORE_GRID.map(|(ill, mhz)| base.clone().max_ill(ill).frequency_mhz(mhz).jobs(2))
            })
            .collect(),
        Kind::Pipe65Tempered => {
            vec![base
                .anneal_replicas(2)
                .switch_count_range(8, 24)
                .switch_count_step(4)]
        }
    };
    let configs = unchecked
        .into_iter()
        .map(|b| b.build().map_err(|e| format!("config: {e}")))
        .collect::<Result<_, _>>()?;
    let sweeps_per_op = if kind.is_oneshot() {
        designs.len()
    } else {
        EXPLORE_GRID.len()
    };
    Ok(Setup {
        designs,
        configs,
        sweeps_per_op,
    })
}

/// Parses spec text the way the CLI does.
pub fn parse(specs: &Specs) -> Result<(SocSpec, CommSpec), String> {
    let soc = SocSpec::parse(&specs.cores).map_err(|e| format!("core spec: {e}"))?;
    let comm = CommSpec::parse(&specs.comm, &soc).map_err(|e| format!("comm spec: {e}"))?;
    Ok((soc, comm))
}

/// A fresh engine for `cfg`, warmed by a sweep that stops before its first
/// candidate (this builds the Phase-1 seed chain and the placement-LP seed
/// bank).
pub fn warmed_engine<'a>(
    soc: &'a SocSpec,
    comm: &CommSpec,
    cfg: &SynthesisConfig,
) -> Result<SynthesisEngine<'a>, String> {
    let engine =
        SynthesisEngine::new(soc, comm, cfg.clone()).map_err(|e| format!("engine: {e}"))?;
    black_box(engine.run_with_policy(sunfloor_core::synthesis::StopPolicy::PointBudget(0)));
    Ok(engine)
}

/// One one-shot operation, as `sunfloor3d` performs it: parse the spec
/// text, build an engine, run the sweep with an observer, pick the
/// best-power point and render its DOT and SVG. Returns the parsed specs
/// with the outcome so the caller can check it.
pub fn oneshot(
    specs: &Specs,
    cfg: &SynthesisConfig,
) -> Result<(SocSpec, CommSpec, SynthesisOutcome), String> {
    let (soc, comm) = parse(specs)?;
    let outcome = {
        let engine =
            SynthesisEngine::new(&soc, &comm, cfg.clone()).map_err(|e| format!("engine: {e}"))?;
        let mut terminal_rejects = Vec::new();
        let outcome = engine.run_with_observer(&mut |e: &SweepEvent| {
            if let SweepEvent::CandidateRejected { candidate, reason } = e {
                terminal_rejects.push((*candidate, reason.clone()));
            }
        });
        black_box(terminal_rejects);
        outcome
    };
    if let Some(best) = outcome.best_power() {
        black_box(topology_to_dot(&best.topology, &soc));
        if let Some(layout) = &best.layout {
            black_box(layout_to_svg(layout));
        }
    }
    Ok((soc, comm, outcome))
}

/// What the benchmark keeps of an operation's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Hash of every point's metrics and every rejection's kind, in order.
    pub fingerprint: u64,
    /// Feasible points.
    pub points: usize,
    /// Lowest total power among the feasible points, mW.
    pub best_power_mw: Option<f64>,
    /// Lowest average latency among the feasible points, cycles.
    pub best_latency_cyc: Option<f64>,
    /// Die area of the best-power point's layout, mm².
    pub best_area_mm2: Option<f64>,
}

/// FNV-1a, folded over 64-bit words.
fn fnv(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Reduces an outcome to the numbers the benchmark reports and compares.
pub fn summarize(outcome: &SynthesisOutcome) -> Summary {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h = fnv(h, outcome.points.len() as u64);
    h = fnv(h, outcome.rejected.len() as u64);
    for p in &outcome.points {
        h = fnv(h, p.requested_switches as u64);
        h = fnv(h, p.topology.switch_layer.len() as u64);
        h = fnv(h, p.topology.links.len() as u64);
        h = fnv(h, p.metrics.power.total_mw().to_bits());
        h = fnv(h, p.metrics.avg_latency_cycles.to_bits());
        h = fnv(
            h,
            p.layout.as_ref().map_or(0, |l| l.die_area_mm2().to_bits()),
        );
    }
    for r in &outcome.rejected {
        h = r.reason.kind().bytes().fold(h, |h, b| fnv(h, u64::from(b)));
    }
    let best = outcome.best_power();
    Summary {
        fingerprint: h,
        points: outcome.points.len(),
        best_power_mw: best.map(|p| p.metrics.power.total_mw()),
        best_latency_cyc: outcome.best_latency().map(|p| p.metrics.avg_latency_cycles),
        best_area_mm2: best
            .and_then(|p| p.layout.as_ref())
            .map(|l| l.die_area_mm2()),
    }
}
