//! Plan-equivalence guarantees of the distance-join physical plans.
//!
//! The distance-join plans (`sdb.exec.join_distance_index`,
//! `sdb.exec.join_distance_prepared`) are pure optimizations: every per-pair
//! verdict still flows through the one shared kernel
//! (`spatter_sdb::functions::evaluate_distance_predicate`), and the index /
//! envelope prefilters are exactly the kernel's own first rejection test. So
//! no query result may ever depend on which plan ran. These tests pin that
//! end to end:
//!
//! * a seeded sweep of 200+ scenarios where the nested loop, the prepared
//!   plan, and the index plan must return identical rows — including under
//!   the seeded GiST fault and with EMPTY geometries in both tables;
//! * whole campaigns whose reports stay equal with the plan enabled and
//!   disabled, at 1/2/4 workers;
//! * registration of the new probes in the coverage universes.
//!
//! The distance-join plans are a session setting (`SET enable_distance_join
//! = false` sends distance joins to the nested loop), so each plan runs on
//! an engine of its own and the tests need no shared state.

use std::sync::Arc;

use spatter_repro::core::backend::{BackendError, EngineBackend, EngineSession, InProcessBackend};
use spatter_repro::core::campaign::{CampaignConfig, CampaignReport};
use spatter_repro::core::generator::{GenerationStrategy, GeneratorConfig};
use spatter_repro::core::guidance::{self, GuidanceMode};
use spatter_repro::core::runner::CampaignRunner;
use spatter_repro::core::transform::AffineStrategy;
use spatter_repro::sdb::{Engine, EngineProfile, FaultId, FaultSet};

// ---------------------------------------------------------------------------
// Seeded plan-equivalence sweep
// ---------------------------------------------------------------------------

/// Small deterministic LCG, independent of the campaign generator, so the
/// sweep exercises shapes the campaign's own generator may never emit
/// (notably EMPTY components in both join tables).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    /// Uniform in `0..bound`.
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// Non-negative coordinate in `0..30` (kept non-negative so the GiST
    /// fault, which drops negative-x rows from index probes, is inert and
    /// the three plans stay comparable even on the faulty engine; a separate
    /// unit test pins that the fault *does* diverge on negative x).
    fn coord(&mut self) -> i64 {
        self.below(30) as i64
    }

    fn wkt(&mut self) -> String {
        let (x, y) = (self.coord(), self.coord());
        match self.below(6) {
            0 => format!("POINT({x} {y})"),
            1 => format!("LINESTRING({x} {y},{} {})", x + 3, y + 1),
            2 => format!(
                "POLYGON(({x} {y},{} {y},{} {},{x} {},{x} {y}))",
                x + 2,
                x + 2,
                y + 2,
                y + 2
            ),
            3 => "POINT EMPTY".to_string(),
            4 => "LINESTRING EMPTY".to_string(),
            _ => format!("MULTIPOINT(({x} {y}),EMPTY)"),
        }
    }
}

fn fill_tables(engine: &mut Engine, rng: &mut Lcg) {
    engine
        .execute_script("CREATE TABLE a (id int, g geometry); CREATE TABLE b (id int, g geometry);")
        .unwrap();
    for table in ["a", "b"] {
        for id in 0..6 {
            let wkt = rng.wkt();
            engine
                .execute(&format!(
                    "INSERT INTO {table} (id, g) VALUES ({id}, '{wkt}')"
                ))
                .unwrap();
        }
    }
}

#[test]
fn sweep_nested_prepared_and_index_plans_return_identical_rows() {
    let distances = [0.0, 0.5, 2.0, 5.0, 17.3];
    let mut diverged = Vec::new();
    for sub_seed in 0..216u64 {
        let d = distances[(sub_seed % distances.len() as u64) as usize];
        let function = if sub_seed % 2 == 0 {
            "ST_DWithin"
        } else {
            "ST_DFullyWithin"
        };
        let (first, second) = if sub_seed % 4 < 2 {
            ("a.g", "b.g")
        } else {
            ("b.g", "a.g")
        };
        let faults = if sub_seed % 3 == 0 {
            FaultSet::none()
        } else {
            FaultSet::with([FaultId::PostgisGistIndexDropsRows])
        };
        let queries = [
            format!("SELECT COUNT(*) FROM a JOIN b ON {function}({first}, {second}, {d})"),
            format!(
                "SELECT ST_AsText(a.g), ST_AsText(b.g) FROM a JOIN b \
                 ON {function}({first}, {second}, {d}) \
                 ORDER BY ST_Distance(a.g, b.g) LIMIT 4"
            ),
        ];

        let run_plan = |setup_extra: &str| {
            let mut engine = Engine::with_faults(EngineProfile::PostgisLike, faults.clone());
            fill_tables(
                &mut engine,
                &mut Lcg(sub_seed.wrapping_mul(0x9e3779b97f4a7c15)),
            );
            if !setup_extra.is_empty() {
                engine.execute_script(setup_extra).unwrap();
            }
            queries
                .iter()
                .map(|q| format!("{:?}", engine.execute(q).unwrap()))
                .collect::<Vec<_>>()
        };

        let nested = run_plan("SET enable_distance_join = false;");
        let prepared = run_plan("");
        let indexed =
            run_plan("CREATE INDEX idx_b ON b USING GIST (g); SET enable_seqscan = false;");
        if prepared != nested {
            diverged.push(format!("seed {sub_seed}: prepared != nested ({queries:?})"));
        }
        if indexed != nested {
            diverged.push(format!("seed {sub_seed}: indexed != nested ({queries:?})"));
        }
    }
    assert!(
        diverged.is_empty(),
        "plan divergence:\n{}",
        diverged.join("\n")
    );
}

// ---------------------------------------------------------------------------
// Campaign-level equivalence
// ---------------------------------------------------------------------------

fn config(guidance: GuidanceMode, seed: u64, iterations: usize) -> CampaignConfig {
    CampaignConfig {
        generator: GeneratorConfig {
            num_geometries: 8,
            num_tables: 2,
            strategy: GenerationStrategy::GeometryAware,
            coordinate_range: 30,
            random_shape_probability: 0.5,
        },
        queries_per_run: 10,
        affine: AffineStrategy::GeneralInteger,
        iterations,
        time_budget: None,
        attribute_findings: true,
        guidance,
        seed,
        ..CampaignConfig::stock(EngineProfile::PostgisLike)
    }
}

/// The plan-independent projection of a campaign report: everything the
/// fingerprint carries except `probe_coverage`, which by construction differs
/// between plans (that is the point of the plan-path probes).
fn result_projection(report: &CampaignReport) -> String {
    let findings: Vec<String> = report
        .findings
        .iter()
        .map(|f| {
            format!(
                "{:?}|{}|{}|{:?}",
                f.kind, f.description, f.iteration, f.attributed_faults
            )
        })
        .collect();
    format!(
        "findings={findings:?} unique={:?} skipped={}",
        report.unique_faults, report.skipped_queries
    )
}

/// The stock in-process backend, except that every session — the
/// attribution variants' included — opens with `SET enable_distance_join =
/// false`.
#[derive(Debug)]
struct NestedDistanceJoins(Box<dyn EngineBackend>);

impl EngineBackend for NestedDistanceJoins {
    fn profile(&self) -> EngineProfile {
        self.0.profile()
    }

    fn open_session(&self) -> Result<Box<dyn EngineSession>, BackendError> {
        let mut session = self.0.open_session()?;
        session.load(&["SET enable_distance_join = false".to_string()])?;
        Ok(session)
    }

    fn fault_ids(&self) -> Vec<FaultId> {
        self.0.fault_ids()
    }

    fn without_fault(&self, fault: FaultId) -> Box<dyn EngineBackend> {
        Box::new(NestedDistanceJoins(self.0.without_fault(fault)))
    }
}

#[test]
fn campaign_reports_are_plan_independent_at_every_worker_count() {
    // Unguided stock campaigns route every range join through the prepared
    // distance plan (they never create an index); with the plan disabled the
    // same queries take the nested loop. Findings, attributed faults, and
    // skipped-query counts must not notice.
    for workers in [1usize, 2, 4] {
        let enabled = CampaignRunner::new(config(GuidanceMode::Off, 11, 12))
            .with_workers(workers)
            .run();
        let nested = NestedDistanceJoins(Box::new(InProcessBackend::stock(
            EngineProfile::PostgisLike,
        )));
        let disabled =
            CampaignRunner::new(config(GuidanceMode::Off, 11, 12).with_backend(Arc::new(nested)))
                .with_workers(workers)
                .run();
        assert_eq!(
            result_projection(&enabled),
            result_projection(&disabled),
            "{workers} workers"
        );
        assert!(
            enabled
                .probe_coverage
                .contains("sdb.exec.join_distance_prepared"),
            "the stock campaign exercises the prepared distance plan"
        );
        assert!(
            !disabled
                .probe_coverage
                .contains("sdb.exec.join_distance_prepared"),
            "the disabled campaign must not touch the distance plan"
        );
    }
}

#[test]
fn campaigns_with_the_distance_plan_stay_deterministic_across_workers() {
    // Worker-count byte-identity (full fingerprint, probe coverage included)
    // with the new plan active, guided and unguided.
    for guidance in [GuidanceMode::Off, GuidanceMode::ColdProbe] {
        let baseline = CampaignRunner::new(config(guidance, 3, 12)).run();
        for workers in [2usize, 4] {
            let parallel = CampaignRunner::new(config(guidance, 3, 12))
                .with_workers(workers)
                .run();
            assert_eq!(
                parallel.determinism_fingerprint(),
                baseline.determinism_fingerprint(),
                "{guidance:?} at {workers} workers"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Probe registration
// ---------------------------------------------------------------------------

#[test]
fn distance_plan_probes_are_registered_in_the_coverage_universes() {
    for probe in [
        "sdb.exec.join_distance_index",
        "sdb.exec.join_distance_prepared",
    ] {
        assert!(
            spatter_repro::sdb::coverage::SDB_PROBES.contains(&probe),
            "{probe} missing from SDB_PROBES"
        );
        assert!(
            guidance::probe_universe().contains(&probe),
            "{probe} missing from the guidance probe universe"
        );
        assert!(guidance::is_universe_probe(probe));
    }
}
