//! `spatter-replay` — record, compare, and bisect replay artifacts.
//!
//! The command-line face of `spatter_core::replay`:
//!
//! * `record <out> [flags]` runs a campaign in-process with a
//!   [`spatter_repro::core::ReplayRecorder`] attached and writes the replay
//!   artifact. `--corrupt-iteration K` flips the recorded outcome hash of
//!   iteration `K` before writing — a seeded single-iteration divergence
//!   used by the CI bisection smoke test.
//! * `compare <a> <b>` decodes two artifacts and reports the first
//!   diverging iteration (exact, zero re-executions).
//! * `bisect <artifact> [flags]` re-runs iterations of the *current* build
//!   against a recorded artifact, binary-searching the divergence frontier
//!   in at most ⌈log₂ N⌉ + 1 re-executions.
//! * `reduce <artifact> --iteration K [flags]` rebuilds iteration `K`'s
//!   scenario (under the exact guidance the campaign gave it, including
//!   epoch-barrier campaigns), finds its first logic-bug query, and shrinks
//!   the database coverage-preservingly
//!   ([`spatter_repro::core::replay::reduce`]): the reduced witness still
//!   diverges *and* still hits every probe the full iteration hit.
//!
//! Exit codes: 0 — identical / no divergence; 2 — a divergence was found
//! (printed as a parseable `divergence: iteration=.. layer=.. sub_seed=..`
//! line) or a reduction was produced; 1 — usage or I/O or decode error.

use spatter_repro::core::campaign::CampaignConfig;
use spatter_repro::core::guidance::GuidanceMode;
use spatter_repro::core::oracles::{AeiOracle, Oracle};
use spatter_repro::core::replay::bisect::{
    bisect_against_live, compare_logs, max_bisect_executions, ReplayExecutor,
};
use spatter_repro::core::replay::reduce::reduce_preserving_probes;
use spatter_repro::core::replay::{ReplayLog, ReplayRecorder, ReplaySink};
use spatter_repro::core::runner::CampaignRunner;
use spatter_repro::sdb::EngineProfile;
use spatter_repro::topo::coverage::local;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage:
  spatter-replay record <out> [--seed N] [--iterations N] [--queries N]
                       [--guidance off|cold-probe] [--epoch N] [--profile NAME]
                       [--threads N] [--corrupt-iteration K]
  spatter-replay compare <a> <b>
  spatter-replay bisect <artifact> [--seed N] [--iterations N] [--queries N]
                       [--guidance off|cold-probe] [--epoch N] [--profile NAME]
  spatter-replay reduce <artifact> --iteration K [--seed N] [--iterations N]
                       [--queries N] [--guidance off|cold-probe] [--epoch N]
                       [--profile NAME]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("record") => record(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("bisect") => bisect(&args[1..]),
        Some("reduce") => reduce(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("spatter-replay: {message}");
            ExitCode::from(1)
        }
    }
}

/// The campaign flags shared by `record` and `bisect`. Both sides of a
/// comparison must be built from the same flags — the campaign identity is
/// stamped into the artifact header for exactly that check.
struct CampaignFlags {
    seed: u64,
    iterations: usize,
    queries: usize,
    guidance: GuidanceMode,
    guidance_epoch: Option<usize>,
    profile: EngineProfile,
    threads: usize,
    corrupt_iteration: Option<usize>,
    iteration: Option<usize>,
}

impl CampaignFlags {
    fn parse(args: &[String]) -> Result<CampaignFlags, String> {
        let mut flags = CampaignFlags {
            seed: 3,
            iterations: 16,
            queries: 10,
            guidance: GuidanceMode::Off,
            guidance_epoch: None,
            profile: EngineProfile::PostgisLike,
            threads: 1,
            corrupt_iteration: None,
            iteration: None,
        };
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = |name: &str| {
                args.next()
                    .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
            };
            match flag.as_str() {
                "--seed" => flags.seed = parse(value("--seed")?)?,
                "--iterations" => flags.iterations = parse(value("--iterations")?)?,
                "--queries" => flags.queries = parse(value("--queries")?)?,
                "--threads" => flags.threads = parse(value("--threads")?)?,
                "--corrupt-iteration" => {
                    flags.corrupt_iteration = Some(parse(value("--corrupt-iteration")?)?)
                }
                "--epoch" => flags.guidance_epoch = Some(parse(value("--epoch")?)?),
                "--iteration" => flags.iteration = Some(parse(value("--iteration")?)?),
                "--guidance" => {
                    let name = value("--guidance")?;
                    flags.guidance = GuidanceMode::from_name(name)
                        .ok_or_else(|| format!("unknown guidance mode {name:?}"))?;
                }
                "--profile" => {
                    let name = value("--profile")?;
                    flags.profile = EngineProfile::from_name(name)
                        .ok_or_else(|| format!("unknown profile {name:?}"))?;
                }
                other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
            }
        }
        Ok(flags)
    }

    fn campaign(&self) -> CampaignConfig {
        CampaignConfig {
            queries_per_run: self.queries,
            iterations: self.iterations,
            guidance: self.guidance,
            guidance_epoch: self.guidance_epoch,
            seed: self.seed,
            ..CampaignConfig::stock(self.profile)
        }
    }
}

fn parse<T: std::str::FromStr>(token: &str) -> Result<T, String> {
    token
        .parse()
        .map_err(|_| format!("invalid number {token:?}"))
}

fn record(args: &[String]) -> Result<ExitCode, String> {
    let out = args.first().ok_or_else(|| USAGE.to_string())?;
    let flags = CampaignFlags::parse(&args[1..])?;
    let config = flags.campaign();
    let recorder = Arc::new(ReplayRecorder::new());
    CampaignRunner::new(config.clone())
        .with_workers(flags.threads)
        .with_replay_sink(recorder.clone() as Arc<dyn ReplaySink>)
        .run();
    let mut log = recorder.log(&config);
    if let Some(victim) = flags.corrupt_iteration {
        let frame = log
            .frames
            .iter_mut()
            .find(|f| f.iteration == victim)
            .ok_or_else(|| format!("--corrupt-iteration {victim}: no such recorded iteration"))?;
        frame.outcome_hash ^= 1;
        eprintln!("spatter-replay: corrupted the outcome hash of iteration {victim}");
    }
    std::fs::write(out, log.encode()).map_err(|e| format!("writing {out}: {e}"))?;
    println!("recorded: {} frames to {out}", log.frames.len());
    Ok(ExitCode::SUCCESS)
}

fn load(path: &str) -> Result<ReplayLog, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    ReplayLog::decode(&text).map_err(|e| format!("decoding {path}: {e}"))
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let left = load(a)?;
    let right = load(b)?;
    match compare_logs(&left, &right) {
        None => {
            println!("identical: {} frames", left.frames.len());
            Ok(ExitCode::SUCCESS)
        }
        Some(divergence) => {
            println!("divergence: {divergence}");
            Ok(ExitCode::from(2))
        }
    }
}

fn bisect(args: &[String]) -> Result<ExitCode, String> {
    let artifact = args.first().ok_or_else(|| USAGE.to_string())?;
    let flags = CampaignFlags::parse(&args[1..])?;
    let reference = load(artifact)?;
    if reference.seed != flags.seed || reference.guidance != flags.guidance {
        return Err(format!(
            "artifact campaign (seed {}, guidance {:?}) does not match the flags \
             (seed {}, guidance {:?})",
            reference.seed, reference.guidance, flags.seed, flags.guidance
        ));
    }
    let executor = ReplayExecutor::new(flags.campaign());
    let outcome = bisect_against_live(&reference, |iteration| executor.frame(iteration));
    let budget = max_bisect_executions(reference.frames.len());
    match outcome.divergence {
        None => {
            println!(
                "no divergence: live run matches ({} executions, budget {budget})",
                outcome.executions
            );
            Ok(ExitCode::SUCCESS)
        }
        Some(divergence) => {
            println!(
                "divergence: {divergence} (executions={} budget={budget})",
                outcome.executions
            );
            Ok(ExitCode::from(2))
        }
    }
}

fn reduce(args: &[String]) -> Result<ExitCode, String> {
    let artifact = args.first().ok_or_else(|| USAGE.to_string())?;
    let flags = CampaignFlags::parse(&args[1..])?;
    let victim = flags
        .iteration
        .ok_or_else(|| format!("reduce needs --iteration K\n{USAGE}"))?;
    let reference = load(artifact)?;
    if reference.seed != flags.seed || reference.guidance != flags.guidance {
        return Err(format!(
            "artifact campaign (seed {}, guidance {:?}) does not match the flags \
             (seed {}, guidance {:?})",
            reference.seed, reference.guidance, flags.seed, flags.guidance
        ));
    }
    let frame = reference
        .frames
        .iter()
        .find(|frame| frame.iteration == victim)
        .ok_or_else(|| format!("--iteration {victim}: no such recorded iteration"))?;

    // Rebuild the iteration's exact inputs under the exact guidance the
    // campaign gave it (epoch-aware: the executor replays the campaign once
    // to reconstruct every window's snapshot).
    let executor = ReplayExecutor::new(flags.campaign());
    let parts = executor.scenario(victim);
    if parts.sub_seed != frame.sub_seed {
        return Err(format!(
            "iteration {victim} rebuilds with sub-seed {:#x}, artifact recorded {:#x} \
             — the campaigns differ at the generation layer; bisect first",
            parts.sub_seed, frame.sub_seed
        ));
    }

    let backend = executor.config().backend.clone();
    let oracle = AeiOracle::new(parts.plan.clone()).with_knobs(parts.knobs.clone());

    // One full-batch check measures the reference probe delta and names the
    // first diverging query — the witness the reduction shrinks around.
    let (outcomes, reference_delta) =
        local::isolate(|| oracle.check(backend.as_ref(), &parts.spec, &parts.queries));
    let Some(query) = parts
        .queries
        .iter()
        .zip(outcomes.iter())
        .find(|(_, outcome)| outcome.is_logic_bug())
        .map(|(query, _)| query.clone())
    else {
        println!("no divergence: iteration {victim} has no AEI logic bug under the current build");
        return Ok(ExitCode::SUCCESS);
    };

    let mut diverges = |spec: &spatter_repro::core::DatabaseSpec,
                        query: &spatter_repro::core::QueryInstance| {
        oracle
            .check(backend.as_ref(), spec, std::slice::from_ref(query))
            .iter()
            .any(|outcome| outcome.is_logic_bug())
    };
    let Some(reduction) =
        reduce_preserving_probes(&mut diverges, &reference_delta, &parts.spec, &query)
    else {
        println!("no divergence: the witness query stopped diverging in isolation");
        return Ok(ExitCode::SUCCESS);
    };

    println!(
        "reduced: iteration={victim} sub_seed={:#x} geometries {} -> {} \
         statements={} checks={} preserved_probes={}",
        parts.sub_seed,
        parts.spec.geometry_count(),
        reduction.spec.geometry_count(),
        reduction.statement_count,
        reduction.checks,
        reduction.preserved_probes.len(),
    );
    for statement in parts.knobs.setup_sql(&reduction.spec) {
        println!("{statement}");
    }
    println!("{}", reduction.query.to_sql());
    Ok(ExitCode::from(2))
}
