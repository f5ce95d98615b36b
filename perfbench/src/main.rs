//! `perfbench` — the campaign benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --check                 golden, claim-seed and tracer-transparency checks
//! perfbench --record-golden <dir>   rewrite the golden files
//! ```
//!
//! A run checks the workload's golden campaign and the campaign at `seed`,
//! then runs whole passes over the workload's fixed campaign corpus back to
//! back (a closed loop, one iteration at a time per worker) up to the pass
//! boundary nearest to `--seconds`. With `--trace 0` it times zero-iteration
//! set-ups before each campaign and prints the end-to-end metrics; with
//! `--trace 1` it runs every campaign both untraced and traced and prints
//! the per-layer metrics. The last line of standard output is one JSON
//! object.

mod fleet;
mod golden;
mod host;
mod trace;
mod workload;

use spatter_repro::core::{CampaignReport, FindingKind};
use spatter_repro::sdb::FaultId;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{ErrorKind, Op, Role, Span, Trace, OPS};
use workload::{Backends, Run, Workload, CLAIM_SEED, DEFAULT_SEED, GOLDEN_ITERATIONS};

/// Fewest timed set-ups per run (one is taken before every campaign); the
/// median is reported.
const MIN_SETUP_SAMPLES: usize = 9;
/// In-process set-ups per batch (each takes microseconds).
const SETUP_BATCH: u32 = 500;
/// Batches per set-up sample, with a slice of reference work before each.
const SETUP_REPEATS: usize = 4;
/// Where a traced run writes its spans, relative to the working directory.
const SPANS_DIR: &str = "perfbench.out";

const USAGE: &str = "usage: perfbench --workload <campaign_default|engine_joins|mutation_churn|fleet_stdio> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --check\n       perfbench --record-golden <dir>";

enum Mode {
    Bench {
        workload: Workload,
        seed: u64,
        seconds: f64,
        trace: bool,
    },
    Check,
    RecordGolden(PathBuf),
}

fn parse_args() -> Result<Mode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--check") if args.len() == 1 => return Ok(Mode::Check),
        Some("--record-golden") if args.len() == 2 => {
            return Ok(Mode::RecordGolden(PathBuf::from(&args[1])))
        }
        _ => {}
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Mode::Bench {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let mode = match parse_args() {
        Ok(mode) => mode,
        Err(error) => {
            eprintln!("perfbench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match mode {
        Mode::Bench {
            workload,
            seed,
            seconds,
            trace,
        } => bench(workload, seed, seconds, trace),
        Mode::Check => self_check(),
        Mode::RecordGolden(dir) => record_golden(&dir),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// Correctness
// ---------------------------------------------------------------------------

/// Checks the workload's golden campaign (default seed) before any timing.
fn check_golden(workload: Workload, backends: &Backends) -> Result<CampaignReport, String> {
    let run = workload::run_untraced(workload, backends, DEFAULT_SEED, GOLDEN_ITERATIONS)?;
    golden::check(workload.golden(), &run.report).map_err(|diff| {
        format!(
            "{}: output differs from golden/{}.txt (seed {DEFAULT_SEED}, {GOLDEN_ITERATIONS} iterations); \
             not reporting a timing. {diff}",
            workload.name(),
            workload.name()
        )
    })?;
    Ok(run.report)
}

/// Invariants every campaign of a workload must satisfy, at any seed.
fn check_report(
    workload: Workload,
    report: &CampaignReport,
    faults: &BTreeSet<FaultId>,
) -> Result<(), String> {
    for finding in &report.findings {
        if let Some(fault) = finding
            .attributed_faults
            .iter()
            .find(|f| !faults.contains(f))
        {
            return Err(format!(
                "{}: finding attributed to {fault:?}, which the backend does not carry",
                workload.name()
            ));
        }
        if workload == Workload::EngineJoins && !finding.attributed_faults.is_empty() {
            return Err(
                "engine_joins runs without attribution but reported attributed faults".to_string(),
            );
        }
    }
    if !report.unique_faults.is_subset(faults) {
        return Err(format!(
            "{}: unique faults outside the fault set",
            workload.name()
        ));
    }
    Ok(())
}

/// The tracer must not perturb results: a decorated run's fingerprint and
/// unique faults equal the undecorated run's.
fn check_transparent(
    workload: Workload,
    seed: u64,
    plain: &CampaignReport,
    traced: &CampaignReport,
) -> Result<(), String> {
    golden::diff(&golden::lines(plain), &golden::lines(traced))
        .and_then(|()| {
            if plain.unique_faults == traced.unique_faults {
                Ok(())
            } else {
                Err("unique faults differ".to_string())
            }
        })
        .map_err(|diff| {
            format!(
                "{}: traced run differs from the untraced run at seed {seed}: {diff}",
                workload.name()
            )
        })
}

fn fault_set(backends: &Backends) -> BTreeSet<FaultId> {
    backends.stock().fault_ids().into_iter().collect()
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Prints every metric by name with its unit, then the result line.
fn report_result(attempted: usize, failed: usize, metrics: &[Metric]) -> Result<(), String> {
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
        println!("{:<36} {:>16} {}", m.name, m.value, m.unit);
    }
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    Ok(())
}

fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile (`q` in 0..=1) of unsorted values.
fn percentile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    if values.is_empty() {
        return f64::NAN;
    }
    let rank = q * (values.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    values[low] + (values[high] - values[low]) * (rank - low as f64)
}

extern "C" {
    /// glibc: returns free heap memory to the system.
    fn malloc_trim(pad: usize) -> i32;
}

/// Resets the process's peak resident set to its current size, so the next
/// [`peak_rss_mb`] reads the peak of what ran in between. Free heap memory
/// is returned to the system first, so each peak starts from the same
/// floor rather than from whatever the allocator kept from earlier work.
fn reset_peak_rss() -> Result<(), String> {
    // SAFETY: `malloc_trim` takes a plain integer, touches only the
    // allocator's own free lists, and is safe to call at any time.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset VmHWM: {e}"))
}

/// The benchmark process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

fn bench(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<(), String> {
    let backends = Backends::for_workload(workload)?;
    println!("{}", workload.describe());
    check_golden(workload, &backends)?;
    check_seed(workload, &backends, seed)?;
    println!(
        "golden check passed ({GOLDEN_ITERATIONS} iterations at seed {DEFAULT_SEED}); seed {seed}'s \
         campaign ran cleanly; timing the {}-campaign corpus for {seconds} s",
        workload.corpus_campaigns()
    );
    let budget = Duration::from_secs_f64(seconds);
    if trace {
        traced_bench(workload, &backends, seed, budget)
    } else {
        untraced_bench(workload, &backends, budget)
    }
}

/// Runs the campaign at `seed`, untimed, and checks that every iteration
/// was reported and the report's invariants hold.
fn check_seed(workload: Workload, backends: &Backends, seed: u64) -> Result<Run, String> {
    let iterations = workload.iterations();
    let run = workload::run_untraced(workload, backends, seed, iterations)?;
    check_report(workload, &run.report, &fault_set(backends))?;
    if run.report.iterations_run != iterations {
        return Err(format!(
            "{}: seed {seed} ran {} of {iterations} iterations",
            workload.name(),
            run.report.iterations_run
        ));
    }
    Ok(run)
}

/// Whether to start another unit of work (a corpus pass, or a campaign):
/// a run stops at the unit boundary nearest to the end of its budget, and
/// always runs at least one.
fn another_fits(start: Instant, budget: Duration, units: u64) -> bool {
    if units == 0 {
        return true;
    }
    let elapsed = start.elapsed();
    elapsed + elapsed / (2 * units as u32) < budget
}

/// One set-up sample, in seconds: the mean of [`SETUP_REPEATS`] batches of
/// in-process set-ups (each takes microseconds), or of as many fleet spawns
/// and handshakes, divided by the host slowdown timed between the batches.
fn setup_sample(workload: Workload, backends: &Backends) -> Result<f64, String> {
    let batch = if workload == Workload::FleetStdio {
        1
    } else {
        SETUP_BATCH
    };
    let probe = host::Probe::default();
    let mut total = Duration::ZERO;
    for _ in 0..SETUP_REPEATS {
        probe.time_on(1);
        for _ in 0..batch {
            total += workload::set_up_once(workload, backends)?;
        }
    }
    probe.time_on(1);
    let set_ups = SETUP_REPEATS as f64 * f64::from(batch);
    Ok(total.as_secs_f64() / set_ups / probe.slowdown())
}

/// Times whole passes over the workload's campaign corpus, with every time
/// divided by the host's slowdown over it (see [`host`]).
///
/// Every run times the same campaigns: one campaign's cost varies
/// several-fold with its seed (attribution grows with the findings), far
/// more than any bound could absorb.
fn untraced_bench(workload: Workload, backends: &Backends, budget: Duration) -> Result<(), String> {
    let faults = fault_set(backends);
    let iterations = workload.iterations();
    let corpus = workload.corpus_campaigns();
    let (mut attempted, mut completed) = (0, 0);
    // Campaign wall as measured (less the probe's slices), and divided by
    // the host slowdown.
    let (mut raw_wall, mut wall) = (0.0, 0.0);
    let mut latencies_ms = Vec::new();
    let mut slowdowns = Vec::new();
    let mut setups = Vec::new();
    let mut peaks = Vec::new();
    let start = Instant::now();
    let mut passes = 0;
    while another_fits(start, budget, passes) {
        for index in 0..corpus {
            // Set-up samples and per-campaign memory peaks are spread over
            // the whole run, so a passing disturbance of the host moves few
            // of them.
            setups.push(setup_sample(workload, backends)?);
            reset_peak_rss()?;
            let (run, slowdown) =
                workload::run_probed(workload, backends, workload::corpus_seed(index), iterations)?;
            peaks.push(peak_rss_mb()?);
            check_report(workload, &run.report, &faults)?;
            attempted += iterations;
            completed += run.report.iterations_run;
            raw_wall += run.wall.as_secs_f64();
            wall += run.wall.as_secs_f64() / slowdown;
            latencies_ms.extend(
                run.latencies
                    .iter()
                    .map(|d| d.as_secs_f64() * 1e3 / slowdown),
            );
            slowdowns.push(slowdown);
        }
        passes += 1;
    }
    while setups.len() < MIN_SETUP_SAMPLES {
        setups.push(setup_sample(workload, backends)?);
    }
    let samples = latencies_ms.len();
    let campaigns = slowdowns.len();
    println!(
        "{passes} passes over {corpus} campaigns: {completed} iterations in {raw_wall:.3} s of \
         campaign wall ({:.3} iterations/s as measured); host slowdown median {:.3} over \
         {campaigns} campaigns; times below are divided by it campaign by campaign; latency \
         percentiles over {samples} iterations; medians over {} set-ups and {} per-campaign \
         memory peaks",
        completed as f64 / raw_wall,
        median(&mut slowdowns),
        setups.len(),
        peaks.len()
    );
    report_result(
        attempted,
        attempted - completed,
        &[
            metric("iterations_per_s", completed as f64 / wall, "1/s"),
            metric("iter_p50_ms", percentile(&mut latencies_ms, 0.5), "ms"),
            metric("iter_p95_ms", percentile(&mut latencies_ms, 0.95), "ms"),
            metric("setup_s", median(&mut setups), "s"),
            metric("peak_rss_mb", median(&mut peaks), "MB"),
        ],
    )
}

/// Per-layer totals over every traced campaign of a run.
#[derive(Default)]
struct Layers {
    iterations: usize,
    /// Traced wall ÷ untraced wall, one per campaign pair.
    overhead: Vec<f64>,
    /// Sum of per-iteration walls (frame to frame).
    iteration_wall: f64,
    generator: f64,
    count: [[u64; OPS]; 2],
    nanos: [[u64; OPS]; 2],
    statements: [[u64; OPS]; 2],
    errors: [u64; 4],
    rechecks: u64,
    attribute_busy: f64,
    logic: usize,
    crash: usize,
    skipped: usize,
    attributed_pairs: usize,
    fleet_iterations: usize,
    leases: usize,
    records: usize,
    respawns: usize,
    decode: f64,
    merge: f64,
    slot_skew: f64,
    time_to_all_faults: Vec<f64>,
    unique_faults: usize,
    campaigns: usize,
}

impl Layers {
    fn add_trace(
        &mut self,
        report: &CampaignReport,
        wall: Duration,
        trace: &Trace,
    ) -> Result<(), String> {
        if trace.frames.len() != report.iterations_run {
            return Err(format!(
                "{} frames for {} iterations",
                trace.frames.len(),
                report.iterations_run
            ));
        }
        let iteration_wall = trace.frames.last().map_or(0.0, |&ns| ns as f64 * 1e-9);
        let mut check_backend = 0u64;
        for span in &trace.spans {
            let (role, op) = (span.role as usize, span.op as usize);
            self.count[role][op] += 1;
            self.nanos[role][op] += span.duration_ns;
            self.statements[role][op] += u64::from(span.statements);
            if span.role == Role::Check {
                check_backend += span.duration_ns;
                if span.error != ErrorKind::None {
                    self.errors[span.error as usize] += 1;
                }
            }
        }
        // Phase accounting: the generator, the oracle's backend calls and
        // the attribution blocks never overlap, so together they must fit
        // inside the iterations' wall time; the rest is the runner's own.
        let generator = report.generation_time.as_secs_f64();
        let attribute = trace.attribute_busy.as_secs_f64();
        let accounted = generator + check_backend as f64 * 1e-9 + attribute;
        if accounted > iteration_wall * 1.001 + 1e-4 || iteration_wall > wall.as_secs_f64() {
            return Err(format!(
                "phase accounting: {accounted:.6} s of phases in {iteration_wall:.6} s of iterations \
                 ({:.6} s campaign wall)",
                wall.as_secs_f64()
            ));
        }
        self.iterations += report.iterations_run;
        self.iteration_wall += iteration_wall;
        self.generator += generator;
        self.rechecks += trace.rechecks;
        self.attribute_busy += attribute;
        self.logic += report.findings_of_kind(FindingKind::Logic);
        self.crash += report.findings_of_kind(FindingKind::Crash);
        self.skipped += report.skipped_queries;
        self.attributed_pairs += report
            .findings
            .iter()
            .map(|f| f.attributed_faults.len())
            .sum::<usize>();
        Ok(())
    }

    /// Campaign-level numbers from an untraced run of the same campaign.
    fn add_untraced(&mut self, run: &Run) {
        self.campaigns += 1;
        self.unique_faults += run.report.unique_faults.len();
        if let Some(&(at, _)) = run.report.unique_bug_timeline.last() {
            self.time_to_all_faults.push(at.as_secs_f64());
        }
        if let Some(stats) = &run.dist {
            self.fleet_iterations += run.report.iterations_run;
            self.leases += stats.leases_granted;
            self.records += stats.records_received;
            self.respawns += stats.respawns;
            self.decode += stats.decode_time.as_secs_f64();
            self.merge += stats.merge_time.as_secs_f64();
            let max = stats.records_per_slot.iter().copied().max().unwrap_or(0);
            let min = stats.records_per_slot.iter().copied().min().unwrap_or(0);
            self.slot_skew = self.slot_skew.max(max as f64 / min.max(1) as f64);
        }
    }

    fn metrics(&mut self) -> Vec<Metric> {
        let per = |value: f64| value / self.iterations.max(1) as f64;
        let seconds = |nanos: u64| nanos as f64 * 1e-9;
        let (c, a) = (Role::Check as usize, Role::Attribute as usize);
        let queries = [
            Op::TopoJoin as usize,
            Op::RangeJoin as usize,
            Op::Knn as usize,
        ];
        let check_backend: u64 = self.nanos[c].iter().sum();
        let self_time =
            self.iteration_wall - self.generator - seconds(check_backend) - self.attribute_busy;
        let per_fleet = |value: f64| value / self.fleet_iterations.max(1) as f64;
        let (open, load, write) = (Op::Open as usize, Op::Load as usize, Op::Write as usize);
        let (topo, range, knn) = (queries[0], queries[1], queries[2]);
        let median_ttaf = if self.time_to_all_faults.is_empty() {
            0.0
        } else {
            median(&mut self.time_to_all_faults)
        };
        let query_nanos: u64 = queries.iter().map(|&q| self.nanos[c][q]).sum();
        vec![
            metric("trace.iterations", self.iterations as f64, "count"),
            metric("trace.overhead_ratio", median(&mut self.overhead), "ratio"),
            metric("trace.wall_s", per(self.iteration_wall), "s/iter"),
            metric("generator.busy_s", per(self.generator), "s/iter"),
            metric("backend.open.n", per(self.count[c][open] as f64), "1/iter"),
            metric(
                "backend.open_s",
                per(seconds(self.nanos[c][open])),
                "s/iter",
            ),
            metric("backend.load.n", per(self.count[c][load] as f64), "1/iter"),
            metric(
                "backend.load.stmts",
                per(self.statements[c][load] as f64),
                "1/iter",
            ),
            metric(
                "backend.load_s",
                per(seconds(self.nanos[c][load])),
                "s/iter",
            ),
            metric(
                "backend.write.n",
                per(self.count[c][write] as f64),
                "1/iter",
            ),
            metric(
                "backend.write_s",
                per(seconds(self.nanos[c][write])),
                "s/iter",
            ),
            metric(
                "backend.query.topo_join.n",
                per(self.count[c][topo] as f64),
                "1/iter",
            ),
            metric(
                "backend.query.topo_join_s",
                per(seconds(self.nanos[c][topo])),
                "s/iter",
            ),
            metric(
                "backend.query.range_join.n",
                per(self.count[c][range] as f64),
                "1/iter",
            ),
            metric(
                "backend.query.range_join_s",
                per(seconds(self.nanos[c][range])),
                "s/iter",
            ),
            metric(
                "backend.query.knn.n",
                per(self.count[c][knn] as f64),
                "1/iter",
            ),
            metric(
                "backend.query.knn_s",
                per(seconds(self.nanos[c][knn])),
                "s/iter",
            ),
            metric(
                "backend.query.share",
                seconds(query_nanos) / self.iteration_wall,
                "ratio",
            ),
            metric(
                "backend.errors.crash",
                per(self.errors[ErrorKind::Crash as usize] as f64),
                "1/iter",
            ),
            metric(
                "backend.errors.semantic",
                per(self.errors[ErrorKind::Semantic as usize] as f64),
                "1/iter",
            ),
            metric(
                "backend.errors.transport",
                per(self.errors[ErrorKind::Transport as usize] as f64),
                "1/iter",
            ),
            metric(
                "runner.attribute.rechecks",
                per(self.rechecks as f64),
                "1/iter",
            ),
            metric(
                "runner.attribute.sessions",
                per(self.count[a][open] as f64),
                "1/iter",
            ),
            metric(
                "runner.attribute.open_s",
                per(seconds(self.nanos[a][open])),
                "s/iter",
            ),
            metric(
                "runner.attribute.load_s",
                per(seconds(self.nanos[a][load] + self.nanos[a][write])),
                "s/iter",
            ),
            metric(
                "runner.attribute.query_s",
                per(seconds(queries.iter().map(|&q| self.nanos[a][q]).sum())),
                "s/iter",
            ),
            metric(
                "runner.attribute.busy_s",
                per(self.attribute_busy),
                "s/iter",
            ),
            metric(
                "runner.attribute.useful_ratio",
                if self.rechecks == 0 {
                    0.0
                } else {
                    self.attributed_pairs as f64 / self.rechecks as f64
                },
                "ratio",
            ),
            metric(
                "runner.attribute.share",
                self.attribute_busy / self.iteration_wall,
                "ratio",
            ),
            metric("runner.self_s", per(self_time), "s/iter"),
            metric(
                "runner.self_share",
                self_time / self.iteration_wall,
                "ratio",
            ),
            metric("oracles.findings.logic", per(self.logic as f64), "1/iter"),
            metric("oracles.findings.crash", per(self.crash as f64), "1/iter"),
            metric("oracles.skipped", per(self.skipped as f64), "1/iter"),
            metric("dist.leases", per_fleet(self.leases as f64), "1/iter"),
            metric("dist.records", per_fleet(self.records as f64), "1/iter"),
            metric("dist.respawns", per_fleet(self.respawns as f64), "1/iter"),
            metric("dist.decode_s", per_fleet(self.decode), "s/iter"),
            metric("dist.merge_s", per_fleet(self.merge), "s/iter"),
            metric("dist.slot_skew", self.slot_skew, "ratio"),
            metric("campaign.time_to_all_faults_s", median_ttaf, "s"),
            metric(
                "campaign.unique_faults",
                self.unique_faults as f64 / self.campaigns.max(1) as f64,
                "count",
            ),
        ]
    }
}

fn traced_bench(
    workload: Workload,
    backends: &Backends,
    seed: u64,
    budget: Duration,
) -> Result<(), String> {
    let faults = fault_set(backends);
    let iterations = workload.iterations();
    let fleet = workload == Workload::FleetStdio;
    if fleet {
        println!(
            "note: fleet_stdio's backend.* and runner.attribute.* come from a one-thread \
             in-process replay of the same campaigns through the decorated StdioBackend; \
             dist.* come from the untraced fleet runs"
        );
    }
    let mut layers = Layers::default();
    let mut first_spans = None;
    let (mut attempted, mut completed) = (0, 0);
    let start = Instant::now();
    let mut campaign = 0;
    while another_fits(start, budget, campaign) {
        let campaign_seed = workload::corpus_seed(campaign as usize % workload.corpus_campaigns());
        let fleet_report = if fleet {
            let run = workload::run_untraced(workload, backends, campaign_seed, iterations)?;
            layers.add_untraced(&run);
            Some(run.report)
        } else {
            None
        };
        // The untraced reference runs in process, like the traced run; the
        // order alternates so neither side always runs warm.
        let config = workload.config(campaign_seed, iterations, backends.stock());
        let mut plain = None;
        if campaign % 2 == 0 {
            plain = Some(workload::run_in_process(config.clone()));
        }
        let (traced, traced_wall, trace) =
            workload::run_traced(workload, backends, campaign_seed, iterations);
        let plain = plain.unwrap_or_else(|| workload::run_in_process(config));
        if !fleet {
            layers.add_untraced(&plain);
        }
        layers
            .overhead
            .push(traced_wall.as_secs_f64() / plain.wall.as_secs_f64());
        check_transparent(workload, campaign_seed, &plain.report, &traced)?;
        if let Some(fleet_report) = &fleet_report {
            check_transparent(workload, campaign_seed, fleet_report, &plain.report)?;
        }
        layers.add_trace(&traced, traced_wall, &trace)?;
        first_spans.get_or_insert(trace.spans);
        for report in fleet_report.iter().chain([&plain.report, &traced]) {
            check_report(workload, report, &faults)?;
            attempted += iterations;
            completed += report.iterations_run;
        }
        campaign += 1;
    }
    println!(
        "{campaign} campaigns traced ({} iterations)",
        layers.iterations
    );
    let path = PathBuf::from(SPANS_DIR).join(format!("spans-{}-{seed}.tsv", workload.name()));
    write_spans(&path, &first_spans.unwrap_or_default())?;
    println!(
        "spans of the first traced campaign written to {}",
        path.display()
    );
    let metrics = layers.metrics();
    report_result(attempted, attempted - completed, &metrics)
}

/// Writes one campaign's spans, one per line, once the timed part is over.
fn write_spans(path: &std::path::Path, spans: &[Span]) -> Result<(), String> {
    use std::io::Write;
    let fail = |e: std::io::Error| format!("write {}: {e}", path.display());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(fail)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(fail)?);
    writeln!(
        out,
        "iteration\trole\top\tstart_ns\tduration_ns\tstatements\terror"
    )
    .map_err(fail)?;
    for s in spans {
        writeln!(
            out,
            "{}\t{:?}\t{:?}\t{}\t{}\t{}\t{:?}",
            s.iteration, s.role, s.op, s.start_ns, s.duration_ns, s.statements, s.error
        )
        .map_err(fail)?;
    }
    out.flush().map_err(fail)
}

// ---------------------------------------------------------------------------
// Self-check and golden recording
// ---------------------------------------------------------------------------

/// The golden check at the default seed, then the claim seed run cleanly,
/// with the tracer shown transparent at both seeds, on every workload.
fn self_check() -> Result<(), String> {
    for workload in Workload::ALL {
        let backends = Backends::for_workload(workload)?;
        let golden = check_golden(workload, &backends)?;
        let (traced, _, _) =
            workload::run_traced(workload, &backends, DEFAULT_SEED, GOLDEN_ITERATIONS);
        check_transparent(workload, DEFAULT_SEED, &golden, &traced)?;
        let claim = check_seed(workload, &backends, CLAIM_SEED)?;
        let (traced, _, _) =
            workload::run_traced(workload, &backends, CLAIM_SEED, workload.iterations());
        check_transparent(workload, CLAIM_SEED, &claim.report, &traced)?;
        println!(
            "{}: golden ok, tracer transparent, claim seed {CLAIM_SEED} clean \
             ({} findings, {} unique faults)",
            workload.name(),
            claim.report.findings.len(),
            claim.report.unique_faults.len()
        );
    }
    Ok(())
}

fn record_golden(dir: &std::path::Path) -> Result<(), String> {
    for workload in Workload::ALL {
        let backends = Backends::for_workload(workload)?;
        let run = workload::run_untraced(workload, &backends, DEFAULT_SEED, GOLDEN_ITERATIONS)?;
        let header = format!(
            "perfbench golden output: workload {}, seed {DEFAULT_SEED}, {GOLDEN_ITERATIONS} iterations",
            workload.name()
        );
        let path = dir.join(format!("{}.txt", workload.name()));
        std::fs::write(&path, golden::render(&header, &run.report))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}
