//! Coverage-guided scenario generation (the ROADMAP's "Coverage-guided
//! generation" item).
//!
//! The thread-local per-probe tallies make coverage feedback nearly free,
//! and clause-guided fuzzers (SQLaser) show that steering generation towards
//! under-exercised code paths finds logic bugs that uniform sampling misses.
//! This module turns the probe counters into *generation bias* along three
//! axes:
//!
//! 1. **Editing functions** — [`Guidance::edit_bias`] up-weights the
//!    derivative strategy's [`EditFunction`] choices towards functions whose
//!    `topo.editing.*` probes are cold;
//! 2. **Template families** — [`Guidance::template_weights`] shifts
//!    [`crate::queries::random_queries_weighted`]'s TopoJoin / RangeJoin /
//!    Knn split towards families whose characteristic engine probes
//!    (`sdb.exec.*`, `topo.distance.*`) are cold;
//! 3. **Scenario knobs** — [`Guidance::pick_knobs`] runs a small
//!    deterministic multi-armed bandit over [`ScenarioKnobs`] presets
//!    (spatial indexes on/off, planner settings, geometry-kind mix), each
//!    arm scored by how rarely its target probes were hit. The unguided
//!    AEI path never creates an index, so the index-scan arm is what first
//!    reaches `sdb.exec.join_index_scan` / `sdb.exec.knn_index_scan` and the
//!    index-build crash path in a guided campaign.
//!
//! Scoring is *rarity-weighted* rather than binary: a probe the snapshot
//! never saw carries its full boost, and a probe that was hit keeps a
//! log-decayed share of it (see [`rarity_boost`]) instead of dropping to
//! zero at the first hit — steering pressure persists on rarely-reached
//! paths. An all-cold snapshot degenerates to numerically identical weights
//! to the historical binary scheme.
//!
//! # Determinism
//!
//! Guided campaigns must produce byte-identical findings, skips and
//! attribution at any worker count — the same contract the unguided runner
//! has. Live coverage counters cannot provide that: which probes are hot at
//! the moment iteration *i* starts depends on which other iterations (and
//! which unrelated tests in the same process) happened to run first. The
//! runner therefore freezes the feedback once: a short unguided *warm-up
//! prefix* runs on the coordinating thread, its per-iteration probe deltas
//! are measured with the thread-local recorder
//! ([`spatter_topo::coverage::local`], immune to concurrent pollution) and
//! merged into one [`CoverageSnapshot`]. Every guided decision afterwards is
//! a pure function of that frozen snapshot plus the iteration sub-seed —
//! guidance reads the snapshot, never a running tally. The bandit pays for
//! this determinism by being *stationary*: arm scores do not update within a
//! campaign, exploration comes from the per-iteration seeded draw.

use crate::codec::Keyword;
use crate::generator::GeneratorConfig;
use crate::rng::{split_seed, RngExt, SeedableRng, StdRng};
use crate::spec::DatabaseSpec;
use spatter_topo::coverage::{CoverageSnapshot, Probe};
use spatter_topo::editing::EditFunction;
use spatter_topo::probe;

/// Whether (and how) a campaign biases generation with coverage feedback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GuidanceMode {
    /// No guidance: byte-identical to the historical uniform campaign.
    #[default]
    Off,
    /// Cold-probe guidance: bias generation towards probes the campaign's
    /// warm-up prefix did not reach.
    ///
    /// Designed for the in-process backend, where every probe fires on the
    /// campaign's own threads. With an out-of-process backend (e.g.
    /// `StdioBackend`) the `sdb.*` probes fire inside the server process,
    /// invisible to the thread-local recorder: guidance then sees only the
    /// client-side `topo.*` probes, permanently classifies the engine
    /// probes as cold (the knob bandit keeps favouring engine-side arms),
    /// and `CampaignReport::probe_coverage` underreports engine coverage.
    /// Determinism and finding validity are unaffected — only the steering
    /// signal and the coverage report are weaker.
    ColdProbe,
}

impl GuidanceMode {
    /// Stable lowercase name, used on the wire, in replay artifacts and on
    /// command lines.
    pub fn name(self) -> &'static str {
        Keyword::token(self)
    }

    /// Parses the stable name back.
    pub fn from_name(name: &str) -> Option<GuidanceMode> {
        Keyword::from_token(name)
    }
}

/// Sub-seed stream index for the knob bandit (decorrelates the bandit draw
/// from the generator / query / transform streams of the same iteration).
const KNOB_STREAM: u64 = 0x6b6e_6f62; // "knob"

/// Extra weight an [`EditFunction`] gains when its probe is cold.
const COLD_EDIT_BOOST: u64 = 3;

/// Extra weight a template family gains per cold target probe.
const COLD_FAMILY_BOOST: u64 = 2;

/// Extra weight a knob arm gains per cold target probe.
const COLD_ARM_BOOST: u64 = 2;

/// Rarity-weighted steering boost: the full `base` boost for a probe the
/// snapshot never saw (exactly the historical binary cold/hot behaviour),
/// decaying with the log of the hit count once the probe has been touched —
/// `base / (1 + ⌊log2(count + 1)⌋)`, in integer arithmetic so the weights
/// are bit-identical on every platform and every worker process.
///
/// This keeps steering pressure on *rarely*-hit probes after their first
/// hit (the ROADMAP's "rarity-weighted probe scoring" follow-on): a probe
/// hit once keeps half its boost (integer-divided), while a probe hit
/// thousands of times rounds down to no boost at all — the old "hot"
/// classification. A snapshot in which every probe is cold therefore
/// produces weights numerically equal to the previous binary scheme, which
/// matters because the weighted draws consume raw RNG output: equal
/// probabilities with different totals would still change every draw.
fn rarity_boost(base: u64, count: u64) -> u64 {
    if count == 0 {
        base
    } else {
        // Saturating: a `u64::MAX` count (possible via an adversarial wire
        // snapshot) must decay to zero, not wrap to `ilog2(0)` and panic.
        base / (1 + u64::from(count.saturating_add(1).ilog2()))
    }
}

/// The frozen guidance context of one campaign: the warm-up snapshot's
/// per-probe hit counts. Immutable by construction — every derived bias is
/// a pure function of this state (plus a sub-seed).
#[derive(Debug, Clone)]
pub struct Guidance {
    snapshot: CoverageSnapshot,
}

impl Guidance {
    /// Builds guidance from a frozen coverage snapshot.
    pub fn from_snapshot(snapshot: &CoverageSnapshot) -> Self {
        Guidance {
            snapshot: snapshot.clone(),
        }
    }

    /// The rarity-weighted boost of one probe given a base boost: full for
    /// a cold probe, log-decayed once hit (see [`rarity_boost`]).
    fn probe_boost(&self, base: u64, probe: Probe) -> u64 {
        rarity_boost(base, self.snapshot.count(probe))
    }

    /// The summed rarity boosts of a probe list.
    fn boost_in(&self, base: u64, probes: &[Probe]) -> u64 {
        probes.iter().map(|&p| self.probe_boost(base, p)).sum()
    }

    /// Editing-function weights for the derivative strategy: every function
    /// keeps a base weight of 1 (nothing is starved), plus the
    /// rarity-weighted share of [`COLD_EDIT_BOOST`] — the full boost while
    /// its probe is cold, a log-decayed remainder while it is merely rare.
    pub fn edit_bias(&self) -> EditBias {
        EditBias {
            weights: EditFunction::ALL
                .iter()
                .map(|&edit| (edit, 1 + self.probe_boost(COLD_EDIT_BOOST, edit.probe())))
                .collect(),
        }
    }

    /// Template-family weights: the unguided 60/20/20 split (doubled for
    /// integer resolution), plus the rarity-weighted share of
    /// [`COLD_FAMILY_BOOST`] per probe among each family's characteristic
    /// probes.
    pub fn template_weights(&self) -> TemplateWeights {
        TemplateWeights {
            topo: 12 + self.boost_in(COLD_FAMILY_BOOST, TOPO_FAMILY_PROBES),
            range: 4 + self.boost_in(COLD_FAMILY_BOOST, RANGE_FAMILY_PROBES),
            knn: 4 + self.boost_in(COLD_FAMILY_BOOST, KNN_FAMILY_PROBES),
        }
    }

    /// The knob bandit: one deterministic weighted draw over the
    /// [`knob_arms`] presets, keyed off the iteration sub-seed. Arms whose
    /// target probes are cold (or rarely hit) get proportionally more
    /// weight; the baseline arm keeps a constant weight so guided campaigns
    /// never stop exploring the default configuration.
    pub fn pick_knobs(&self, sub_seed: u64) -> ScenarioKnobs {
        let mut rng = StdRng::seed_from_u64(split_seed(sub_seed, KNOB_STREAM));
        let arms = knob_arms();
        let weights: Vec<u64> = arms
            .iter()
            .map(|arm| arm.base_weight + self.boost_in(COLD_ARM_BOOST, arm.targets))
            .collect();
        let total: u64 = weights.iter().sum();
        let mut draw = rng.random_range(0..total);
        for (arm, weight) in arms.iter().zip(weights.iter()) {
            if draw < *weight {
                return arm.knobs.clone();
            }
            draw -= weight;
        }
        unreachable!("weighted draw is bounded by the weight total")
    }
}

// ---------------------------------------------------------------------------
// Editing-function bias
// ---------------------------------------------------------------------------

/// Per-[`EditFunction`] selection weights for the derivative strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditBias {
    weights: Vec<(EditFunction, u64)>,
}

impl EditBias {
    /// One weighted draw (a single RNG consumption, like the uniform
    /// `choose` it replaces).
    pub fn choose(&self, rng: &mut StdRng) -> EditFunction {
        let total: u64 = self.weights.iter().map(|(_, w)| w).sum();
        let mut draw = rng.random_range(0..total.max(1));
        for (edit, weight) in &self.weights {
            if draw < *weight {
                return *edit;
            }
            draw -= weight;
        }
        self.weights.last().expect("edit list is non-empty").0
    }

    /// The weight of one editing function (for tests and reporting).
    pub fn weight_of(&self, edit: EditFunction) -> u64 {
        self.weights
            .iter()
            .find(|(e, _)| *e == edit)
            .map(|(_, w)| *w)
            .unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// Template-family weights
// ---------------------------------------------------------------------------

/// A query-template family (the three [`crate::queries::QueryTemplate`]
/// shapes as a plain choice label).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemplateFamily {
    /// The Figure 5 topological join-count template.
    TopoJoin,
    /// A §7 distance range join.
    RangeJoin,
    /// A §7 KNN query.
    Knn,
}

/// Relative draw weights of the three template families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemplateWeights {
    /// Weight of the topological join family.
    pub topo: u64,
    /// Weight of the distance range-join family.
    pub range: u64,
    /// Weight of the KNN family.
    pub knn: u64,
}

impl TemplateWeights {
    /// The historical unguided split: 60% topo / 20% range / 20% KNN. With
    /// these weights the weighted draw consumes the RNG exactly like the
    /// original `random_range(0..10)` family pick, so the unguided query
    /// stream is byte-identical to pre-guidance campaigns.
    pub fn baseline() -> Self {
        TemplateWeights {
            topo: 6,
            range: 2,
            knn: 2,
        }
    }

    /// One weighted family draw (a single RNG consumption). The walk order
    /// (topo, range, knn) is part of the determinism contract.
    pub fn choose(&self, rng: &mut StdRng) -> TemplateFamily {
        let total = (self.topo + self.range + self.knn).max(1);
        let draw = rng.random_range(0..total);
        if draw < self.topo {
            TemplateFamily::TopoJoin
        } else if draw < self.topo + self.range {
            TemplateFamily::RangeJoin
        } else {
            TemplateFamily::Knn
        }
    }
}

/// Probes characteristic of the topological-join family.
const TOPO_FAMILY_PROBES: &[Probe] = &[
    probe!("sdb.exec.join_prepared"),
    probe!("sdb.exec.join_nested_loop"),
    probe!("topo.relate.polygon_polygon"),
    probe!("topo.predicate.relate_pattern"),
];

/// Probes characteristic of the range-join family.
const RANGE_FAMILY_PROBES: &[Probe] = &[
    probe!("topo.distance.dwithin"),
    probe!("topo.distance.dfullywithin"),
    probe!("topo.distance.range_margin_check"),
    probe!("topo.distance.segment"),
];

/// Probes characteristic of the KNN family.
const KNN_FAMILY_PROBES: &[Probe] = &[
    probe!("sdb.exec.order_by"),
    probe!("sdb.exec.limit"),
    probe!("sdb.exec.knn_index_scan"),
    probe!("topo.distance.knn_tie_check"),
];

// ---------------------------------------------------------------------------
// Scenario knobs and the bandit arms
// ---------------------------------------------------------------------------

/// Per-scenario configuration knobs a guided campaign can turn: extra setup
/// statements (indexes, planner settings) applied identically to `SDB1` and
/// its affine-equivalent `SDB2`, plus a geometry-kind adjustment for the
/// generator. The default value is the *baseline*: exactly the historical
/// scenario setup, byte for byte.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioKnobs {
    /// Create a GiST-analog index on every table.
    pub create_indexes: bool,
    /// `SET enable_seqscan = false` (drives the engine onto index paths).
    pub disable_seqscan: bool,
    /// `SET enable_prepared = false` (forces the nested-loop join).
    pub disable_prepared: bool,
    /// Overrides the generator's random-shape probability (geometry-kind
    /// mix: lower means more derived geometries).
    pub random_shape_probability: Option<f64>,
}

impl ScenarioKnobs {
    /// The historical scenario setup (no knob turned).
    pub fn baseline() -> Self {
        ScenarioKnobs::default()
    }

    /// Whether these knobs reproduce the baseline setup exactly.
    pub fn is_baseline(&self) -> bool {
        *self == ScenarioKnobs::default()
    }

    /// The setup statements for one database under these knobs. With
    /// baseline knobs this is exactly `spec.to_sql()`.
    pub fn setup_sql(&self, spec: &DatabaseSpec) -> Vec<String> {
        let mut statements = if self.create_indexes {
            spec.to_sql_with_indexes()
        } else {
            spec.to_sql()
        };
        if self.disable_seqscan {
            statements.push("SET enable_seqscan = false".to_string());
        }
        if self.disable_prepared {
            statements.push("SET enable_prepared = false".to_string());
        }
        statements
    }

    /// Applies the generator-side knobs to a generator configuration.
    pub fn apply_generator(&self, config: &mut GeneratorConfig) {
        if let Some(p) = self.random_shape_probability {
            config.random_shape_probability = p;
        }
    }
}

/// One bandit arm: a knob preset plus the probes it aims to warm up.
struct KnobArm {
    knobs: ScenarioKnobs,
    targets: &'static [Probe],
    base_weight: u64,
}

/// The bandit's arms. Target lists are the probes each preset is uniquely
/// positioned to reach; the baseline arm targets nothing but keeps a
/// constant exploration weight.
fn knob_arms() -> Vec<KnobArm> {
    vec![
        KnobArm {
            knobs: ScenarioKnobs::baseline(),
            targets: &[],
            base_weight: 4,
        },
        // The unguided AEI scenario never creates an index, so these probes
        // stay cold until this arm fires: index builds (and the index-build
        // crash fault), the `~=` window scan, the predicate index join and
        // the best-first KNN scan.
        KnobArm {
            knobs: ScenarioKnobs {
                create_indexes: true,
                disable_seqscan: true,
                ..ScenarioKnobs::default()
            },
            targets: &[
                probe!("sdb.exec.create_index"),
                probe!("sdb.exec.join_index_scan"),
                probe!("sdb.exec.join_distance_index"),
                probe!("sdb.exec.knn_index_scan"),
                probe!("sdb.exec.set_setting"),
                probe!("sdb.fault.crash_path"),
            ],
            base_weight: 1,
        },
        // Indexes without disabling seqscan: exercises index maintenance on
        // insert-heavy scenarios while keeping sequential plans.
        KnobArm {
            knobs: ScenarioKnobs {
                create_indexes: true,
                ..ScenarioKnobs::default()
            },
            targets: &[
                probe!("sdb.exec.create_index"),
                probe!("sdb.fault.crash_path"),
            ],
            base_weight: 1,
        },
        // Forcing the nested loop reaches the general join path that the
        // prepared-geometry fast path normally shadows.
        KnobArm {
            knobs: ScenarioKnobs {
                disable_prepared: true,
                ..ScenarioKnobs::default()
            },
            targets: &[
                probe!("sdb.exec.join_nested_loop"),
                probe!("sdb.exec.set_setting"),
            ],
            base_weight: 1,
        },
        // Geometry-kind mix: a derivative-heavy database reaches the editing
        // functions and the collection/boundary machinery they feed.
        KnobArm {
            knobs: ScenarioKnobs {
                random_shape_probability: Some(0.2),
                ..ScenarioKnobs::default()
            },
            targets: &[
                probe!("topo.editing.set_point"),
                probe!("topo.editing.polygonize"),
                probe!("topo.editing.dump_rings"),
                probe!("topo.editing.collection_extract"),
                probe!("topo.editing.point_n"),
                probe!("topo.boundary.collection"),
                probe!("topo.relate.collection"),
            ],
            base_weight: 1,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatter_topo::coverage::PROBES;
    use std::collections::HashSet;

    /// A hit count large enough that every rarity boost rounds down to 0
    /// (`base / (1 + log2(count + 1)) = 0` for the boosts used here): the
    /// probe is not just touched but thoroughly *hot*.
    const HOT: u64 = 1 << 12;

    fn probe(name: &str) -> Probe {
        Probe::from_name(name).expect("a listed probe")
    }

    fn snapshot_hitting_counted(probes: &[&str], count: u64) -> CoverageSnapshot {
        let mut snapshot = CoverageSnapshot::new();
        let delta: Vec<(Probe, u64)> = probes.iter().map(|&p| (probe(p), count)).collect();
        snapshot.absorb(&delta);
        snapshot
    }

    /// How many probes of the whole table `guidance`'s snapshot never saw.
    fn cold_count(guidance: &Guidance) -> usize {
        PROBES
            .iter()
            .filter(|&&name| guidance.snapshot.count(probe(name)) == 0)
            .count()
    }

    fn snapshot_hitting(probes: &[&str]) -> CoverageSnapshot {
        snapshot_hitting_counted(probes, HOT)
    }

    /// A snapshot where every probe was hit hard (nothing cold,
    /// nothing rare).
    fn saturated_snapshot() -> CoverageSnapshot {
        snapshot_hitting(PROBES)
    }

    #[test]
    fn edit_bias_boosts_cold_functions_only() {
        let guidance = Guidance::from_snapshot(&snapshot_hitting(&[
            "topo.editing.boundary",
            "topo.editing.envelope",
        ]));
        let bias = guidance.edit_bias();
        assert_eq!(bias.weight_of(EditFunction::Boundary), 1);
        assert_eq!(bias.weight_of(EditFunction::Envelope), 1);
        assert_eq!(
            bias.weight_of(EditFunction::Polygonize),
            1 + COLD_EDIT_BOOST
        );
        // Nothing is starved: every function keeps a positive weight, so a
        // weighted draw can still reach the hot ones.
        for edit in EditFunction::ALL {
            assert!(bias.weight_of(edit) >= 1);
        }
    }

    #[test]
    fn rarity_boost_is_pinned_and_decays_with_log_hit_count() {
        // The pinned decay table: full boost at 0 hits, log-scaled integer
        // division afterwards. These exact values are part of the
        // determinism contract (weights feed raw RNG draws).
        assert_eq!(rarity_boost(COLD_EDIT_BOOST, 0), 3);
        assert_eq!(rarity_boost(COLD_EDIT_BOOST, 1), 1); // 3 / (1+1)
        assert_eq!(rarity_boost(COLD_EDIT_BOOST, 3), 1); // 3 / (1+2)
        assert_eq!(rarity_boost(COLD_EDIT_BOOST, 7), 0); // 3 / (1+3)
        assert_eq!(rarity_boost(COLD_FAMILY_BOOST, 0), 2);
        assert_eq!(rarity_boost(COLD_FAMILY_BOOST, 1), 1); // 2 / 2
        assert_eq!(rarity_boost(COLD_FAMILY_BOOST, 3), 0); // 2 / 3
        assert_eq!(rarity_boost(COLD_FAMILY_BOOST, HOT), 0);
        // Saturating at the top: an adversarial wire snapshot can carry a
        // u64::MAX count — it must decay to zero, never wrap and panic.
        assert_eq!(rarity_boost(COLD_EDIT_BOOST, u64::MAX), 0);
        assert_eq!(rarity_boost(u64::MAX, u64::MAX - 1), u64::MAX / 64);
        // Monotone non-increasing in the hit count.
        let boosts: Vec<u64> = (0..200).map(|c| rarity_boost(10, c)).collect();
        assert!(boosts.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn rarely_hit_probes_keep_reduced_steering_pressure() {
        // A function probe hit exactly once sits between cold and hot: it
        // keeps a decayed boost instead of collapsing to the base weight.
        let guidance =
            Guidance::from_snapshot(&snapshot_hitting_counted(&["topo.editing.boundary"], 1));
        let bias = guidance.edit_bias();
        let rare = bias.weight_of(EditFunction::Boundary);
        let cold = bias.weight_of(EditFunction::Polygonize);
        assert_eq!(rare, 1 + rarity_boost(COLD_EDIT_BOOST, 1));
        assert!(rare > 1, "a rare probe keeps pressure");
        assert!(cold > rare, "a cold probe outweighs a rare one");
        // Deterministic: the same snapshot always produces the same weights.
        let again =
            Guidance::from_snapshot(&snapshot_hitting_counted(&["topo.editing.boundary"], 1));
        assert_eq!(bias, again.edit_bias());
        assert_eq!(guidance.template_weights(), again.template_weights());
    }

    #[test]
    fn all_cold_snapshot_degenerates_to_the_binary_scheme() {
        // With nothing hit, every rarity weight equals the historical binary
        // cold boost — numerically, not just proportionally, because the
        // weighted draws consume raw RNG output.
        let guidance = Guidance::from_snapshot(&CoverageSnapshot::new());
        assert_eq!(cold_count(&guidance), PROBES.len());
        assert_eq!(
            cold_count(&Guidance::from_snapshot(&saturated_snapshot())),
            0
        );
        let bias = guidance.edit_bias();
        for edit in EditFunction::ALL {
            assert_eq!(bias.weight_of(edit), 1 + COLD_EDIT_BOOST);
        }
        let weights = guidance.template_weights();
        assert_eq!(
            weights.topo,
            12 + COLD_FAMILY_BOOST * TOPO_FAMILY_PROBES.len() as u64
        );
        assert_eq!(
            weights.range,
            4 + COLD_FAMILY_BOOST * RANGE_FAMILY_PROBES.len() as u64
        );
        assert_eq!(
            weights.knn,
            4 + COLD_FAMILY_BOOST * KNN_FAMILY_PROBES.len() as u64
        );
    }

    #[test]
    fn edit_bias_choose_is_deterministic_and_covers_all_functions() {
        let guidance = Guidance::from_snapshot(&CoverageSnapshot::new());
        let bias = guidance.edit_bias();
        let draw = |seed: u64| -> Vec<EditFunction> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..200).map(|_| bias.choose(&mut rng)).collect()
        };
        assert_eq!(draw(7), draw(7));
        let seen: HashSet<_> = draw(7).into_iter().map(|e| e.function_name()).collect();
        assert!(seen.len() >= 10, "draws cover most functions: {seen:?}");
    }

    #[test]
    fn baseline_template_weights_mirror_the_unguided_split() {
        let weights = TemplateWeights::baseline();
        assert_eq!((weights.topo, weights.range, weights.knn), (6, 2, 2));
        // The baseline draw partitions 0..10 exactly like the historical
        // `random_range(0..10)` with 0..=5 / 6..=7 / 8..=9.
        let mut counts = [0usize; 3];
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            match weights.choose(&mut rng) {
                TemplateFamily::TopoJoin => counts[0] += 1,
                TemplateFamily::RangeJoin => counts[1] += 1,
                TemplateFamily::Knn => counts[2] += 1,
            }
        }
        assert!(counts[0] > counts[1] && counts[0] > counts[2], "{counts:?}");
        assert!(counts[1] > 100 && counts[2] > 100, "{counts:?}");
    }

    #[test]
    fn template_weights_shift_towards_cold_families() {
        // Everything hot except the KNN probes: the KNN family gains weight,
        // the others stay at their doubled baseline.
        let hot_probes: Vec<&'static str> = PROBES
            .iter()
            .copied()
            .filter(|&p| KNN_FAMILY_PROBES.iter().all(|knn| knn.name() != p))
            .collect();
        let snapshot = snapshot_hitting(&hot_probes);
        let weights = Guidance::from_snapshot(&snapshot).template_weights();
        assert_eq!(weights.topo, 12);
        assert_eq!(weights.range, 4);
        assert_eq!(
            weights.knn,
            4 + COLD_FAMILY_BOOST * KNN_FAMILY_PROBES.len() as u64
        );
    }

    #[test]
    fn knob_bandit_is_deterministic_per_sub_seed() {
        let guidance = Guidance::from_snapshot(&CoverageSnapshot::new());
        for sub_seed in [0u64, 1, 99, u64::MAX / 2] {
            assert_eq!(guidance.pick_knobs(sub_seed), guidance.pick_knobs(sub_seed));
        }
        // Different sub-seeds eventually pick different arms.
        let distinct: HashSet<_> = (0..200u64)
            .map(|s| format!("{:?}", guidance.pick_knobs(s)))
            .collect();
        assert!(distinct.len() > 1, "the bandit explores several arms");
    }

    #[test]
    fn knob_bandit_favours_arms_with_cold_targets() {
        // Nothing cold → the baseline arm (weight 4 of 8) dominates.
        let hot = Guidance::from_snapshot(&saturated_snapshot());
        let baseline_picks = (0..400u64)
            .filter(|&s| hot.pick_knobs(s).is_baseline())
            .count();
        // Everything cold → the index arm (5 cold targets) outweighs the
        // baseline arm, so non-baseline picks dominate.
        let cold = Guidance::from_snapshot(&CoverageSnapshot::new());
        let guided_picks = (0..400u64)
            .filter(|&s| !cold.pick_knobs(s).is_baseline())
            .count();
        assert!(baseline_picks > 150, "{baseline_picks} baseline picks");
        assert!(guided_picks > 250, "{guided_picks} non-baseline picks");
        // The index-scan arm is reachable when its probes are cold.
        assert!(
            (0..400u64).any(|s| {
                let knobs = cold.pick_knobs(s);
                knobs.create_indexes && knobs.disable_seqscan
            }),
            "the index arm must fire for cold index probes"
        );
    }

    #[test]
    fn baseline_knobs_reproduce_the_historical_setup() {
        let spec = DatabaseSpec::with_tables(2);
        let knobs = ScenarioKnobs::baseline();
        assert!(knobs.is_baseline());
        assert_eq!(knobs.setup_sql(&spec), spec.to_sql());
        let mut config = GeneratorConfig::default();
        let before = config.clone();
        knobs.apply_generator(&mut config);
        assert_eq!(config, before);
    }

    #[test]
    fn knob_setup_sql_appends_indexes_and_settings() {
        let spec = DatabaseSpec::with_tables(2);
        let knobs = ScenarioKnobs {
            create_indexes: true,
            disable_seqscan: true,
            disable_prepared: true,
            random_shape_probability: Some(0.25),
        };
        let sql = knobs.setup_sql(&spec);
        assert!(sql.iter().any(|s| s.contains("USING GIST")));
        assert_eq!(sql[sql.len() - 2], "SET enable_seqscan = false");
        assert_eq!(sql[sql.len() - 1], "SET enable_prepared = false");
        let mut config = GeneratorConfig::default();
        knobs.apply_generator(&mut config);
        assert_eq!(config.random_shape_probability, 0.25);
    }
}
