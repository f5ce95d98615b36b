//! Campaign-fabric benchmark: what the transport and scheduling layers
//! cost on top of the campaign itself.
//!
//! Two comparisons over the default campaign config:
//!
//! 1. **stdio vs TCP** — the same 2-process fleet driven over child-process
//!    pipes and over loopback sockets (48 iterations each): the TCP framing
//!    and accept path must be noise next to iteration cost.
//! 2. **Epoch-barrier exchange** — a guided campaign with the frozen
//!    warm-up snapshot vs the same campaign re-merging and re-broadcasting
//!    coverage every 8 iterations: the price of fresher guidance.
//!
//! Emits `BENCH_fabric.json` in the workspace root. All rows need the
//! `spatter-campaign-worker` binary (built by `cargo build --workspace`);
//! when absent only the in-process reference row is recorded.

use spatter_core::campaign::CampaignConfig;
use spatter_core::dist::{DistConfig, DistRunner, DistStats};
use spatter_core::fabric::TcpTransport;
use spatter_core::guidance::GuidanceMode;
use spatter_core::runner::CampaignRunner;
use std::path::PathBuf;
use std::time::Instant;

const ITERATIONS: usize = 48;

struct Sample {
    label: String,
    seconds: f64,
    iters_per_sec: f64,
    stats: Option<DistStats>,
    fingerprint: String,
}

fn campaign(guidance: GuidanceMode, epoch: Option<usize>) -> CampaignConfig {
    CampaignConfig {
        iterations: ITERATIONS,
        guidance,
        guidance_epoch: epoch,
        ..CampaignConfig::default()
    }
}

fn bench_in_process() -> Sample {
    let start = Instant::now();
    let report = CampaignRunner::new(campaign(GuidanceMode::Off, None))
        .with_workers(2)
        .run();
    let seconds = start.elapsed().as_secs_f64();
    Sample {
        label: "in-process".to_string(),
        seconds,
        iters_per_sec: report.iterations_run as f64 / seconds.max(f64::EPSILON),
        stats: None,
        fingerprint: report.determinism_fingerprint(),
    }
}

fn bench_fleet(label: &str, config: CampaignConfig, dist: DistConfig, tcp: bool) -> Sample {
    let mut runner = DistRunner::new(config, dist);
    if tcp {
        let transport = TcpTransport::loopback()
            .expect("bind loopback listener")
            .with_spawned_workers(worker_binary().expect("worker binary"));
        runner = runner.with_transport(Box::new(transport));
    }
    let start = Instant::now();
    let (report, stats) = runner.run_with_stats().expect("distributed campaign");
    let seconds = start.elapsed().as_secs_f64();
    Sample {
        label: label.to_string(),
        seconds,
        iters_per_sec: report.iterations_run as f64 / seconds.max(f64::EPSILON),
        stats: Some(stats),
        fingerprint: report.determinism_fingerprint(),
    }
}

/// Locates the worker binary next to this bench executable
/// (`target/<profile>/spatter-campaign-worker`), if it has been built.
fn worker_binary() -> Option<PathBuf> {
    let mut path = std::env::current_exe().ok()?;
    path.pop(); // the bench executable
    if path.ends_with("deps") {
        path.pop();
    }
    for name in ["spatter-campaign-worker", "spatter-campaign-worker.exe"] {
        let candidate = path.join(name);
        if candidate.is_file() {
            return Some(candidate);
        }
    }
    None
}

fn main() {
    println!("== Campaign fabric: transport and epoch overhead (x{ITERATIONS}) ==\n");

    let reference = bench_in_process();
    let mut samples = vec![reference];

    if let Some(worker) = worker_binary() {
        let fleet = || {
            DistConfig::new(&worker)
                .with_processes(2)
                .with_threads_per_worker(2)
        };
        samples.push(bench_fleet(
            "stdio",
            campaign(GuidanceMode::Off, None),
            fleet(),
            false,
        ));
        samples.push(bench_fleet(
            "tcp",
            campaign(GuidanceMode::Off, None),
            fleet(),
            true,
        ));
        samples.push(bench_fleet(
            "guided-frozen",
            campaign(GuidanceMode::ColdProbe, None),
            fleet(),
            false,
        ));
        samples.push(bench_fleet(
            "guided-epoch8",
            campaign(GuidanceMode::ColdProbe, Some(8)),
            fleet(),
            false,
        ));
    } else {
        println!(
            "note: spatter-campaign-worker binary not found next to the bench \
             executable; fabric rows skipped (run `cargo build --workspace` first)\n"
        );
    }

    let widths = [18, 9, 10, 8, 9, 12];
    spatter_bench::print_row(
        &[
            "config",
            "time (s)",
            "iters/sec",
            "leases",
            "epochs",
            "rec/slot",
        ]
        .map(String::from),
        &widths,
    );
    for sample in &samples {
        let (leases, epochs, per_slot) = match &sample.stats {
            Some(stats) => (
                stats.leases_granted.to_string(),
                stats.guidance_epochs.to_string(),
                format!("{:?}", stats.records_per_slot),
            ),
            None => ("-".into(), "-".into(), "-".into()),
        };
        spatter_bench::print_row(
            &[
                sample.label.clone(),
                format!("{:.3}", sample.seconds),
                format!("{:.2}", sample.iters_per_sec),
                leases,
                epochs,
                per_slot,
            ],
            &widths,
        );
    }

    // Determinism spot checks: identical configs agree bytewise regardless
    // of transport.
    let by_label = |label: &str| samples.iter().find(|s| s.label == label);
    for (a, b) in [("in-process", "stdio"), ("stdio", "tcp")] {
        if let (Some(a), Some(b)) = (by_label(a), by_label(b)) {
            assert_eq!(
                a.fingerprint, b.fingerprint,
                "{} and {} must agree bytewise",
                a.label, b.label
            );
        }
    }

    let entries: Vec<String> = samples
        .iter()
        .map(|s| {
            let (leases, epochs) = match &s.stats {
                Some(stats) => (stats.leases_granted, stats.guidance_epochs),
                None => (0, 0),
            };
            format!(
                "    {{\"config\": \"{}\", \"iterations\": {ITERATIONS}, \"seconds\": {:.4}, \"iters_per_sec\": {:.3}, \"leases\": {leases}, \"guidance_epochs\": {epochs}}}",
                s.label, s.seconds, s.iters_per_sec
            )
        })
        .collect();
    let overhead = |a: &str, b: &str| -> f64 {
        match (by_label(a), by_label(b)) {
            (Some(a), Some(b)) => (b.seconds - a.seconds) / a.seconds.max(f64::EPSILON),
            _ => 0.0,
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"fabric\",\n  \"config\": \"CampaignConfig::default() x{ITERATIONS} iterations, 2x2 fleet\",\n  \"host_available_parallelism\": {cores},\n  \"tcp_overhead_vs_stdio\": {:.4},\n  \"epoch_overhead_vs_frozen\": {:.4},\n  \"samples\": [\n{}\n  ]\n}}\n",
        overhead("stdio", "tcp"),
        overhead("guided-frozen", "guided-epoch8"),
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fabric.json");
    std::fs::write(path, &json).expect("write BENCH_fabric.json");
    println!("\nwrote {path}");
}
