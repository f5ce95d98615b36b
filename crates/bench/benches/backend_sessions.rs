//! Backend session benchmark: what the `EngineBackend` abstraction costs and
//! what batched sessions buy.
//!
//! Two axes over the same deterministic AEI workload:
//!
//! * **batched vs per-query sessions** — one session pair per scenario
//!   reused for the whole query batch (the post-redesign execution model) vs
//!   a fresh engine pair per query (the pre-redesign cost model);
//! * **in-process vs stdio** — the same oracle over the in-process engine vs
//!   the `spatter-sdb-server` subprocess, quantifying the process-boundary
//!   overhead the abstraction makes optional.
//!
//! Emits `BENCH_backend_sessions.json` in the workspace root. The stdio rows
//! require the server binary (built by `cargo build --workspace`); when it
//! is absent the bench records the in-process rows and says so.

use spatter_core::backend::{EngineBackend, InProcessBackend, StdioBackend};
use spatter_core::generator::{GenerationStrategy, GeneratorConfig, GeometryGenerator};
use spatter_core::oracles::{AeiOracle, Oracle};
use spatter_core::queries::{random_queries, QueryInstance};
use spatter_core::spec::DatabaseSpec;
use spatter_core::transform::{AffineStrategy, TransformPlan};
use spatter_sdb::EngineProfile;
use std::path::PathBuf;
use std::time::Instant;

const SCENARIOS: u64 = 6;
const QUERIES_PER_SCENARIO: usize = 20;

struct Scenario {
    spec: DatabaseSpec,
    queries: Vec<QueryInstance>,
    plan: TransformPlan,
}

fn scenarios() -> Vec<Scenario> {
    (0..SCENARIOS)
        .map(|seed| {
            let config = GeneratorConfig {
                num_geometries: 8,
                num_tables: 2,
                strategy: GenerationStrategy::GeometryAware,
                coordinate_range: 30,
                random_shape_probability: 0.5,
            };
            let spec = GeometryGenerator::new(config, seed).generate_database();
            let queries = random_queries(
                &spec,
                EngineProfile::PostgisLike,
                QUERIES_PER_SCENARIO,
                seed ^ 0x5eed,
            );
            let plan = TransformPlan::random(AffineStrategy::SimilarityInteger, seed ^ 0xaff1e);
            Scenario {
                spec,
                queries,
                plan,
            }
        })
        .collect()
}

struct Sample {
    backend: &'static str,
    mode: &'static str,
    queries: usize,
    seconds: f64,
    queries_per_sec: f64,
    flagged: usize,
}

/// One session pair per scenario, the whole batch through it.
fn run_batched(backend: &dyn EngineBackend, scenarios: &[Scenario], label: &'static str) -> Sample {
    let start = Instant::now();
    let mut flagged = 0;
    let mut queries = 0;
    for scenario in scenarios {
        let outcomes =
            AeiOracle::new(scenario.plan.clone()).check(backend, &scenario.spec, &scenario.queries);
        queries += scenario.queries.len();
        flagged += outcomes
            .iter()
            .filter(|o| o.is_logic_bug() || o.is_crash())
            .count();
    }
    sample(
        label,
        "batched",
        queries,
        start.elapsed().as_secs_f64(),
        flagged,
    )
}

/// A fresh session pair per query: the pre-redesign cost model, kept as the
/// comparison baseline.
fn run_per_query(
    backend: &dyn EngineBackend,
    scenarios: &[Scenario],
    label: &'static str,
) -> Sample {
    let start = Instant::now();
    let mut flagged = 0;
    let mut queries = 0;
    for scenario in scenarios {
        let oracle = AeiOracle::new(scenario.plan.clone());
        for query in &scenario.queries {
            let outcomes = oracle.check(backend, &scenario.spec, std::slice::from_ref(query));
            queries += 1;
            flagged += outcomes
                .iter()
                .filter(|o| o.is_logic_bug() || o.is_crash())
                .count();
        }
    }
    sample(
        label,
        "per_query",
        queries,
        start.elapsed().as_secs_f64(),
        flagged,
    )
}

fn sample(
    backend: &'static str,
    mode: &'static str,
    queries: usize,
    seconds: f64,
    flagged: usize,
) -> Sample {
    Sample {
        backend,
        mode,
        queries,
        seconds,
        queries_per_sec: queries as f64 / seconds.max(f64::EPSILON),
        flagged,
    }
}

/// Locates the server binary next to this bench executable
/// (`target/<profile>/spatter-sdb-server`), if it has been built.
fn server_binary() -> Option<PathBuf> {
    let mut path = std::env::current_exe().ok()?;
    path.pop(); // the bench executable
    if path.ends_with("deps") {
        path.pop();
    }
    for name in ["spatter-sdb-server", "spatter-sdb-server.exe"] {
        let candidate = path.join(name);
        if candidate.is_file() {
            return Some(candidate);
        }
    }
    None
}

fn main() {
    println!("== Backend sessions: batched vs per-query, in-process vs stdio ==\n");
    let scenarios = scenarios();
    let stock = InProcessBackend::stock(EngineProfile::PostgisLike);

    let mut samples = vec![
        run_batched(&stock, &scenarios, "in_process"),
        run_per_query(&stock, &scenarios, "in_process"),
    ];

    let server = server_binary();
    match &server {
        Some(path) => {
            let stdio = StdioBackend::stock(path, EngineProfile::PostgisLike);
            samples.push(run_batched(&stdio, &scenarios, "stdio"));
            samples.push(run_per_query(&stdio, &scenarios, "stdio"));
        }
        None => println!(
            "note: spatter-sdb-server binary not found next to the bench \
             executable; stdio rows skipped (run `cargo build --workspace` first)\n"
        ),
    }

    let widths = [12, 11, 9, 10, 13, 9];
    spatter_bench::print_row(
        &[
            "backend",
            "mode",
            "queries",
            "time (s)",
            "queries/sec",
            "flagged",
        ]
        .map(String::from),
        &widths,
    );
    for s in &samples {
        spatter_bench::print_row(
            &[
                s.backend.to_string(),
                s.mode.to_string(),
                s.queries.to_string(),
                format!("{:.3}", s.seconds),
                format!("{:.1}", s.queries_per_sec),
                s.flagged.to_string(),
            ],
            &widths,
        );
    }

    // Sanity: every execution strategy flags exactly the same queries — the
    // backend/session choice is a pure performance axis.
    for s in &samples[1..] {
        assert_eq!(
            s.flagged, samples[0].flagged,
            "{}/{} flagged a different query set",
            s.backend, s.mode
        );
    }

    let entries: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "    {{\"backend\": \"{}\", \"mode\": \"{}\", \"queries\": {}, \"seconds\": {:.4}, \"queries_per_sec\": {:.2}, \"flagged\": {}}}",
                s.backend, s.mode, s.queries, s.seconds, s.queries_per_sec, s.flagged
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"backend_sessions\",\n  \"config\": \"{SCENARIOS} scenarios x {QUERIES_PER_SCENARIO} AEI queries, PostgisLike stock\",\n  \"stdio_available\": {},\n  \"samples\": [\n{}\n  ]\n}}\n",
        server.is_some(),
        entries.join(",\n")
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_backend_sessions.json"
    );
    std::fs::write(path, &json).expect("write BENCH_backend_sessions.json");
    println!("\nwrote {path}");
}
