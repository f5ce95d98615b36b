//! The four workloads and the code that runs one campaign of each, untraced
//! or traced. Every campaign drives stock `PostgisLike` (22 seeded faults)
//! through the public API; engines receive only the generated scenarios.

use crate::fleet::{self, Arrivals, Binaries, StampedTransport};
use crate::host::Probe;
use crate::trace::{Trace, TracedBackend, Tracer};
use spatter_repro::core::backend::{EngineBackend, InProcessBackend, StdioBackend};
use spatter_repro::core::rng::split_seed;
use spatter_repro::core::{
    CampaignConfig, CampaignReport, CampaignRunner, DistConfig, DistRunner, DistStats,
    GeneratorConfig, MutationConfig, OracleKind,
};
use spatter_repro::sdb::EngineProfile;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The seed whose outputs are pinned in `golden/`.
pub const DEFAULT_SEED: u64 = 5;
/// A seed kept out of development: `--check` runs it to show a claim holds
/// beyond the seeds it was tuned on.
pub const CLAIM_SEED: u64 = 20_261_016;
/// Iterations of the golden campaign each run checks before timing.
pub const GOLDEN_ITERATIONS: usize = 12;
/// Worker processes of the fleet workload.
pub const FLEET_PROCESSES: usize = 2;
/// Seed of the campaign corpus that timed runs pass over.
const CORPUS_SEED: u64 = 1;

/// The seed of campaign `index` of every workload's corpus.
pub fn corpus_seed(index: usize) -> u64 {
    split_seed(CORPUS_SEED, index as u64)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CampaignDefault,
    EngineJoins,
    MutationChurn,
    FleetStdio,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CampaignDefault,
        Workload::EngineJoins,
        Workload::MutationChurn,
        Workload::FleetStdio,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignDefault => "campaign_default",
            Workload::EngineJoins => "engine_joins",
            Workload::MutationChurn => "mutation_churn",
            Workload::FleetStdio => "fleet_stdio",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Iterations of one timed campaign: the stated input size.
    pub fn iterations(self) -> usize {
        match self {
            Workload::CampaignDefault | Workload::MutationChurn => 48,
            Workload::EngineJoins => 24,
            Workload::FleetStdio => 24,
        }
    }

    /// Campaigns in the workload's corpus: one pass takes 4–6 s on an
    /// unloaded host, so a run makes several passes.
    pub fn corpus_campaigns(self) -> usize {
        match self {
            Workload::CampaignDefault | Workload::EngineJoins => 4,
            Workload::MutationChurn | Workload::FleetStdio => 3,
        }
    }

    pub fn golden(self) -> &'static str {
        match self {
            Workload::CampaignDefault => include_str!("../golden/campaign_default.txt"),
            Workload::EngineJoins => include_str!("../golden/engine_joins.txt"),
            Workload::MutationChurn => include_str!("../golden/mutation_churn.txt"),
            Workload::FleetStdio => include_str!("../golden/fleet_stdio.txt"),
        }
    }

    /// One line describing the configuration and input size.
    pub fn describe(self) -> String {
        let config = match self {
            Workload::CampaignDefault => "CampaignConfig::default(): AEI, 20 queries/run, 10 geometries over 2 tables, attribution on, 1 worker thread",
            Workload::EngineJoins => "AEI + Index + TLP, attribution off, 24 geometries over 2 tables, 20 queries/run, 1 worker thread",
            Workload::MutationChurn => "CampaignConfig::default() + MutationConfig::default() (12 DML/DDL statements, index churn), attribution on, 1 worker thread",
            Workload::FleetStdio => "CampaignConfig::default() over StdioBackend -> spatter-sdb-server, DistRunner over StdioTransport, 2 worker processes x 1 thread, attribution on",
        };
        format!(
            "{}: {config}; stock PostgisLike (22 seeded faults); closed loop, {} iterations per campaign",
            self.name(),
            self.iterations()
        )
    }

    /// The workload's campaign over `backend`.
    pub fn config(
        self,
        seed: u64,
        iterations: usize,
        backend: Arc<dyn EngineBackend>,
    ) -> CampaignConfig {
        let base = CampaignConfig {
            iterations,
            seed,
            ..CampaignConfig::default()
        }
        .with_backend(backend);
        match self {
            Workload::CampaignDefault | Workload::FleetStdio => base,
            Workload::EngineJoins => CampaignConfig {
                generator: GeneratorConfig {
                    num_geometries: 24,
                    num_tables: 2,
                    ..GeneratorConfig::default()
                },
                attribute_findings: false,
                oracles: vec![OracleKind::Aei, OracleKind::Index, OracleKind::Tlp],
                ..base
            },
            Workload::MutationChurn => CampaignConfig {
                mutations: Some(MutationConfig::default()),
                ..base
            },
        }
    }
}

/// Builds the backend a campaign runs against: the in-process engine, or
/// the stdio server for the fleet.
pub struct Backends {
    binaries: Option<Binaries>,
}

impl Backends {
    /// Locates the fleet binaries when the workload needs them; a missing
    /// binary is an error, never a partial run.
    pub fn for_workload(workload: Workload) -> Result<Self, String> {
        let binaries = match workload {
            Workload::FleetStdio => Some(fleet::locate_binaries()?),
            _ => None,
        };
        Ok(Backends { binaries })
    }

    pub fn stock(&self) -> Arc<dyn EngineBackend> {
        match &self.binaries {
            Some(binaries) => Arc::new(StdioBackend::stock(
                &binaries.server,
                EngineProfile::PostgisLike,
            )),
            None => Arc::new(InProcessBackend::stock(EngineProfile::PostgisLike)),
        }
    }

    fn worker(&self) -> &std::path::Path {
        &self
            .binaries
            .as_ref()
            .expect("fleet workloads locate their binaries")
            .worker
    }
}

/// One finished campaign.
pub struct Run {
    pub report: CampaignReport,
    pub wall: Duration,
    /// Per-iteration latencies.
    pub latencies: Vec<Duration>,
    pub dist: Option<DistStats>,
}

/// Runs one campaign of the workload, untraced: in process on one worker
/// thread, or for the fleet through `DistRunner`.
pub fn run_untraced(
    workload: Workload,
    backends: &Backends,
    seed: u64,
    iterations: usize,
) -> Result<Run, String> {
    let config = workload.config(seed, iterations, backends.stock());
    if workload != Workload::FleetStdio {
        return Ok(run_in_process(config));
    }
    let arrivals = Arc::new(Arrivals::default());
    let dist = DistConfig::new(backends.worker())
        .with_processes(FLEET_PROCESSES)
        .with_threads_per_worker(1);
    let runner = DistRunner::new(config, dist).with_transport(Box::new(StampedTransport::new(
        backends.worker(),
        Arc::clone(&arrivals),
    )));
    let start = Instant::now();
    let (report, stats) = runner
        .run_with_stats()
        .map_err(|e| format!("fleet campaign failed: {e}"))?;
    let wall = start.elapsed();
    Ok(Run {
        report,
        wall,
        latencies: arrivals.take_latencies(),
        dist: Some(stats),
    })
}

/// Runs a campaign on one in-process worker thread. Iteration latencies are
/// the gaps between consecutive entries of the report's coverage timeline,
/// each stamped when its iteration finished.
pub fn run_in_process(config: CampaignConfig) -> Run {
    time_runner(CampaignRunner::new(config))
}

/// Runs one campaign untraced while timing the host (see [`crate::host`])
/// and returns it with the host's slowdown over it. In process, the probe
/// is the campaign's replay sink and times a slice at every iteration
/// boundary; its slices are taken back out of the wall and latencies. The
/// fleet's workers run in other processes, so there the probe times a
/// slice on each worker's processor before and after the campaign.
pub fn run_probed(
    workload: Workload,
    backends: &Backends,
    seed: u64,
    iterations: usize,
) -> Result<(Run, f64), String> {
    let probe = Arc::new(Probe::default());
    if workload == Workload::FleetStdio {
        probe.time_on(FLEET_PROCESSES);
        let run = run_untraced(workload, backends, seed, iterations)?;
        probe.time_on(FLEET_PROCESSES);
        return Ok((run, probe.slowdown()));
    }
    let config = workload.config(seed, iterations, backends.stock());
    let mut run =
        time_runner(CampaignRunner::new(config).with_replay_sink(Arc::clone(&probe) as _));
    let slice = Duration::from_secs_f64(probe.spent() / f64::from(probe.slices().max(1)));
    run.wall = run
        .wall
        .saturating_sub(Duration::from_secs_f64(probe.spent()));
    for latency in &mut run.latencies {
        *latency = latency.saturating_sub(slice);
    }
    Ok((run, probe.slowdown()))
}

fn time_runner(runner: CampaignRunner) -> Run {
    let start = Instant::now();
    let report = runner.run();
    let wall = start.elapsed();
    let mut previous = Duration::ZERO;
    let latencies = report
        .coverage_timeline
        .iter()
        .map(|&(at, _, _)| {
            let latency = at.saturating_sub(previous);
            previous = at;
            latency
        })
        .collect();
    Run {
        report,
        wall,
        latencies,
        dist: None,
    }
}

/// Runs one campaign on one in-process worker thread through the tracing
/// decorator, with the tracer as the replay sink.
pub fn run_traced(
    workload: Workload,
    backends: &Backends,
    seed: u64,
    iterations: usize,
) -> (CampaignReport, Duration, Trace) {
    let tracer = Tracer::new();
    let backend = Arc::new(TracedBackend::new(backends.stock(), Arc::clone(&tracer)));
    let config = workload.config(seed, iterations, backend);
    let runner = CampaignRunner::new(config).with_replay_sink(Arc::clone(&tracer) as _);
    let start = Instant::now();
    let report = runner.run();
    let wall = start.elapsed();
    let trace = tracer.finish(start);
    (report, wall, trace)
}

/// The workload configured with zero iterations, as a user sets it up: the
/// backend, the configuration and a campaign run that executes nothing; for
/// the fleet, spawning the workers and completing their handshake.
pub fn set_up_once(workload: Workload, backends: &Backends) -> Result<Duration, String> {
    let start = Instant::now();
    let config = workload.config(DEFAULT_SEED, 0, backends.stock());
    if workload == Workload::FleetStdio {
        return fleet::spawn_and_handshake(backends.worker(), &config, FLEET_PROCESSES);
    }
    let report = CampaignRunner::new(config).run();
    std::hint::black_box(report);
    Ok(start.elapsed())
}
