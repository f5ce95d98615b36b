//! The differential testing matrix: N backends, N×(N−1) ordered-pair
//! campaigns, findings bucketed by which side diverged.
//!
//! One differential campaign answers "do these two engines agree?"; it
//! cannot say *which* engine is wrong when they don't. The matrix runs the
//! AEI + differential oracle suite over **every ordered pair** of a backend
//! roster — in-process profiles, `spatter-sdb-server` twins, external
//! adapters ([`ExternalBackend`]) — on the existing campaign substrate, then
//! merges the per-cell [`CampaignReport`]s into one [`MatrixReport`] whose
//! findings are bucketed per cell:
//!
//! * **left** — the engine under test diverged (AEI violations, left-side
//!   crashes re-run cleanly elsewhere, and `both`-sided disagreements the
//!   grid pins on the left engine);
//! * **right** — the comparison engine failed fatally mid-comparison, or a
//!   two-sided disagreement the grid pins on the right engine;
//! * **both** — a disagreement the grid cannot attribute (both engines
//!   equally implicated across the matrix);
//! * **crash** — crash findings (either side), kept separate because a
//!   crash is actionable without attribution.
//!
//! The pinning works by *involvement counting*: every cell implicates its
//! left backend when it holds a logic finding sided left-or-both, and its
//! right backend when sided right-or-both. A backend that is genuinely buggy
//! is implicated in every cell it touches (2(N−1) of them), while its
//! innocent partners are implicated only in their cells against it — so for
//! a `both`-sided finding in cell (i, j), strictly greater involvement of
//! one side re-buckets the finding onto that side, and a tie leaves it
//! `both`. The whole grid runs under one seed and the campaign determinism
//! contract, so a [`MatrixReport`] is byte-identical at any worker count.

pub mod external;

pub use external::{DialectSpec, ExternalBackend, ReplyGrammar};

use crate::backend::BackendSpec;
use crate::campaign::{CampaignConfig, CampaignReport, FindingKind};
use crate::codec::{escape, ArtifactReader, CodecError};
use crate::oracles::DivergenceSide;
use crate::replay::ReplayHasher;
use crate::runner::{CampaignRunner, OracleKind};
use std::cmp::Ordering;

/// The matrix artifact format version. Bumped whenever the header or line
/// layout changes; decoding any other version is a structured error.
pub const MATRIX_VERSION: u32 = 1;

/// One backend of the roster: a serializable spec plus the label it carries
/// in reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixEntry {
    /// Display label used in matrix reports and the CLI grid.
    pub label: String,
    /// The backend the cell campaigns build.
    pub spec: BackendSpec,
}

impl MatrixEntry {
    /// An entry with an explicit label.
    pub fn new(label: impl Into<String>, spec: BackendSpec) -> Self {
        MatrixEntry {
            label: label.into(),
            spec,
        }
    }
}

/// Configuration of a matrix run: the backend roster and the per-cell
/// campaign template.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// The backend roster; every ordered pair of distinct entries becomes
    /// one cell.
    pub entries: Vec<MatrixEntry>,
    /// The campaign template each cell instantiates. Its `backend` and
    /// `oracles` fields are overwritten per cell; everything else —
    /// generator, iterations, affine strategy and above all the `seed` —
    /// is shared by the whole grid.
    pub base: CampaignConfig,
    /// Worker threads per cell campaign. The grid's cells run sequentially
    /// (determinism needs no more: each cell is deterministic by the
    /// campaign contract); parallelism lives inside the cells.
    pub workers: usize,
}

impl MatrixConfig {
    /// A matrix over the given roster with a default single-worker campaign
    /// template.
    pub fn new(entries: Vec<MatrixEntry>, base: CampaignConfig) -> Self {
        MatrixConfig {
            entries,
            base,
            workers: 1,
        }
    }

    /// Sets the per-cell worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }
}

/// Per-cell finding buckets, after grid refinement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BucketCounts {
    /// Logic findings attributed to the cell's left backend.
    pub left: usize,
    /// Logic findings attributed to the cell's right backend.
    pub right: usize,
    /// Logic findings the grid could not attribute to one side.
    pub both: usize,
    /// Crash findings (kept apart from the attribution question).
    pub crash: usize,
}

impl BucketCounts {
    /// Total findings in the cell.
    pub fn total(&self) -> usize {
        self.left + self.right + self.both + self.crash
    }

    /// Whether the cell holds no findings at all.
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }
}

/// One cell of the matrix: the campaign of `entries[left]` under test with
/// `entries[right]` as the differential comparison engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellReport {
    /// Roster index of the engine under test.
    pub left: usize,
    /// Roster index of the comparison engine.
    pub right: usize,
    /// Iterations the cell campaign executed.
    pub iterations_run: usize,
    /// The cell's findings, bucketed by attributed side.
    pub buckets: BucketCounts,
    /// Digest of the cell campaign's [`CampaignReport::determinism_fingerprint`]
    /// — the scheduling-independent identity of everything the cell found.
    pub fingerprint: u64,
}

/// The merged result of a matrix run. Deterministic: two runs of the same
/// [`MatrixConfig`] produce identical reports at any worker count, which
/// [`MatrixReport::encode`] turns into a byte-comparable artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixReport {
    /// The grid's shared campaign seed.
    pub seed: u64,
    /// Roster labels, in roster order.
    pub backends: Vec<String>,
    /// All N×(N−1) cells, in row-major (left-index, then right-index) order.
    pub cells: Vec<CellReport>,
    /// Per-backend involvement counts the `both`-refinement used: in how
    /// many cells the backend was implicated by a logic finding.
    pub involvement: Vec<usize>,
}

impl MatrixReport {
    /// Whether every cell of the grid is clean.
    pub fn is_clean(&self) -> bool {
        self.cells.iter().all(|cell| cell.buckets.is_clean())
    }

    /// The cells holding at least one finding.
    pub fn divergent_cells(&self) -> Vec<&CellReport> {
        self.cells
            .iter()
            .filter(|cell| !cell.buckets.is_clean())
            .collect()
    }

    /// Renders the report as a line-delimited artifact, newline-terminated.
    /// Also the report's determinism fingerprint: no wall-clock field is
    /// encoded, so two runs of the same configuration must produce
    /// byte-identical artifacts.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(64 + self.cells.len() * 80);
        out.push_str(&format!(
            "spatter-matrix {MATRIX_VERSION} seed {} backends {} cells {}\n",
            self.seed,
            self.backends.len(),
            self.cells.len(),
        ));
        for (index, label) in self.backends.iter().enumerate() {
            out.push_str(&format!("backend {index} {}\n", escape(label)));
        }
        for cell in &self.cells {
            out.push_str(&format!(
                "cell {} {} iterations {} left {} right {} both {} crash {} fingerprint {}\n",
                cell.left,
                cell.right,
                cell.iterations_run,
                cell.buckets.left,
                cell.buckets.right,
                cell.buckets.both,
                cell.buckets.crash,
                cell.fingerprint,
            ));
        }
        out.push_str("involvement");
        for count in &self.involvement {
            out.push_str(&format!(" {count}"));
        }
        out.push_str("\nend\n");
        out
    }

    /// Decodes an [`encode`](MatrixReport::encode)d artifact; every
    /// deviation is a structured [`CodecError`].
    pub fn decode(text: &str) -> Result<MatrixReport, CodecError> {
        let (mut lines, mut header) = ArtifactReader::open(text, "spatter-matrix", MATRIX_VERSION)?;
        header.expect("seed")?;
        let seed = header.next_num("seed")?;
        header.expect("backends")?;
        let n_backends = header.next_num("backend count")?;
        header.expect("cells")?;
        let n_cells = header.next_num("cell count")?;
        header.finish()?;

        let backends = lines.lines(n_backends, |index, line| {
            line.expect("backend")?;
            let declared: usize = line.next_num("backend index")?;
            if declared != index {
                return Err(line.malformed("backend index in roster order", declared));
            }
            line.next_str()
        })?;
        let cells = lines.lines(n_cells, |_, line| {
            line.expect("cell")?;
            let left = line.next_num("cell left index")?;
            let right = line.next_num("cell right index")?;
            if left >= n_backends || right >= n_backends {
                return Err(
                    line.malformed("cell indexes within the roster", format!("{left}x{right}"))
                );
            }
            line.expect("iterations")?;
            let iterations_run = line.next_num("cell iterations")?;
            line.expect("left")?;
            let bucket_left = line.next_num("left bucket")?;
            line.expect("right")?;
            let bucket_right = line.next_num("right bucket")?;
            line.expect("both")?;
            let bucket_both = line.next_num("both bucket")?;
            line.expect("crash")?;
            let bucket_crash = line.next_num("crash bucket")?;
            line.expect("fingerprint")?;
            Ok(CellReport {
                left,
                right,
                iterations_run,
                buckets: BucketCounts {
                    left: bucket_left,
                    right: bucket_right,
                    both: bucket_both,
                    crash: bucket_crash,
                },
                fingerprint: line.next_num("cell fingerprint")?,
            })
        })?;
        let involvement = lines.line(|line| {
            line.expect("involvement")?;
            (0..n_backends)
                .map(|_| line.next_num("involvement count"))
                .collect()
        })?;
        lines.footer()?;
        Ok(MatrixReport {
            seed,
            backends,
            cells,
            involvement,
        })
    }
}

/// The matrix driver: instantiates and runs every cell campaign, then
/// merges and buckets.
pub struct MatrixRunner {
    config: MatrixConfig,
}

impl MatrixRunner {
    /// A runner over a matrix configuration.
    pub fn new(config: MatrixConfig) -> Self {
        MatrixRunner { config }
    }

    /// The configuration.
    pub fn config(&self) -> &MatrixConfig {
        &self.config
    }

    /// The campaign cell (left, right) runs: the template with
    /// `entries[left]` as the engine under test and the AEI +
    /// differential-twin-of-`entries[right]` oracle suite.
    pub fn cell_campaign(&self, left: usize, right: usize) -> CampaignConfig {
        let mut config = self.config.base.clone();
        config.backend = self.config.entries[left].spec.build();
        config.oracles = vec![
            OracleKind::Aei,
            OracleKind::DifferentialTwin(self.config.entries[right].spec.clone()),
        ];
        config
    }

    /// Runs the whole grid and merges the per-cell reports.
    pub fn run(&self) -> MatrixReport {
        let n = self.config.entries.len();
        let mut raw: Vec<(usize, usize, CampaignReport)> = Vec::with_capacity(n * n);
        for left in 0..n {
            for right in 0..n {
                if left == right {
                    continue;
                }
                let campaign = self.cell_campaign(left, right);
                let report = CampaignRunner::new(campaign)
                    .with_workers(self.config.workers)
                    .run();
                raw.push((left, right, report));
            }
        }
        merge_cells(
            self.config.base.seed,
            self.config
                .entries
                .iter()
                .map(|entry| entry.label.clone())
                .collect(),
            raw,
        )
    }
}

/// Merges raw cell reports into a [`MatrixReport`]: involvement counting
/// first, then per-cell bucketing with `both`-refinement. Pure, so the
/// bucketing semantics are unit-testable without running campaigns.
pub(crate) fn merge_cells(
    seed: u64,
    backends: Vec<String>,
    raw: Vec<(usize, usize, CampaignReport)>,
) -> MatrixReport {
    let mut involvement = vec![0usize; backends.len()];
    for (left, right, report) in &raw {
        let implicates_left = report.findings.iter().any(|f| {
            f.kind == FindingKind::Logic
                && matches!(f.side, DivergenceSide::Left | DivergenceSide::Both)
        });
        let implicates_right = report.findings.iter().any(|f| {
            f.kind == FindingKind::Logic
                && matches!(f.side, DivergenceSide::Right | DivergenceSide::Both)
        });
        if implicates_left {
            involvement[*left] += 1;
        }
        if implicates_right {
            involvement[*right] += 1;
        }
    }
    let cells = raw
        .into_iter()
        .map(|(left, right, report)| {
            let mut buckets = BucketCounts::default();
            for finding in &report.findings {
                match finding.kind {
                    FindingKind::Crash => buckets.crash += 1,
                    FindingKind::Logic => match finding.side {
                        DivergenceSide::Left => buckets.left += 1,
                        DivergenceSide::Right => buckets.right += 1,
                        // A two-sided disagreement: blame the backend the
                        // rest of the grid implicates more often; a tie
                        // stays unattributed.
                        DivergenceSide::Both => match involvement[left].cmp(&involvement[right]) {
                            Ordering::Greater => buckets.left += 1,
                            Ordering::Less => buckets.right += 1,
                            Ordering::Equal => buckets.both += 1,
                        },
                    },
                }
            }
            let mut hasher = ReplayHasher::new();
            hasher.write_str(&report.determinism_fingerprint());
            CellReport {
                left,
                right,
                iterations_run: report.iterations_run,
                buckets,
                fingerprint: hasher.finish(),
            }
        })
        .collect();
    MatrixReport {
        seed,
        backends,
        cells,
        involvement,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Finding;
    use std::time::Duration;

    fn logic(side: DivergenceSide) -> Finding {
        Finding {
            kind: FindingKind::Logic,
            side,
            description: format!("disagreement ({})", side.name()),
            iteration: 0,
            elapsed: Duration::ZERO,
            attributed_faults: Vec::new(),
        }
    }

    fn crash() -> Finding {
        Finding {
            kind: FindingKind::Crash,
            side: DivergenceSide::Left,
            description: "boom".to_string(),
            iteration: 0,
            elapsed: Duration::ZERO,
            attributed_faults: Vec::new(),
        }
    }

    fn report_with(findings: Vec<Finding>) -> CampaignReport {
        CampaignReport {
            findings,
            iterations_run: 4,
            ..CampaignReport::default()
        }
    }

    /// The canonical refinement scenario: backends A and B agree with each
    /// other, C disagrees with both. Every C-touching cell holds a
    /// `both`-sided differential finding; involvement counting must pin all
    /// of them on C.
    #[test]
    fn involvement_counting_pins_both_sided_findings_on_the_odd_one_out() {
        let labels = vec!["a".to_string(), "b".to_string(), "c".to_string()];
        let both = || report_with(vec![logic(DivergenceSide::Both)]);
        let clean = || report_with(Vec::new());
        let raw = vec![
            (0, 1, clean()),
            (0, 2, both()),
            (1, 0, clean()),
            (1, 2, both()),
            (2, 0, both()),
            (2, 1, both()),
        ];
        let report = merge_cells(7, labels, raw);
        // C is implicated in all four of its cells; A and B in two each.
        assert_eq!(report.involvement, vec![2, 2, 4]);
        for cell in &report.cells {
            let buckets = cell.buckets;
            match (cell.left, cell.right) {
                (0, 1) | (1, 0) => assert!(buckets.is_clean()),
                (_, 2) => assert_eq!((buckets.left, buckets.right, buckets.both), (0, 1, 0)),
                (2, _) => assert_eq!((buckets.left, buckets.right, buckets.both), (1, 0, 0)),
                pair => panic!("unexpected cell {pair:?}"),
            }
        }
        assert!(!report.is_clean());
        assert_eq!(report.divergent_cells().len(), 4);
    }

    #[test]
    fn sided_findings_and_crashes_bucket_directly() {
        let labels = vec!["x".to_string(), "y".to_string()];
        let raw = vec![
            (
                0,
                1,
                report_with(vec![
                    logic(DivergenceSide::Left),
                    logic(DivergenceSide::Right),
                    crash(),
                ]),
            ),
            // A symmetric two-sided tie stays in the `both` bucket.
            (1, 0, report_with(vec![logic(DivergenceSide::Both)])),
        ];
        let report = merge_cells(0, labels, raw);
        assert_eq!(report.cells[0].buckets.left, 1);
        assert_eq!(report.cells[0].buckets.right, 1);
        assert_eq!(report.cells[0].buckets.crash, 1);
        assert_eq!(report.cells[0].buckets.total(), 3);
        assert_eq!(report.cells[1].buckets.both, 1);
    }

    #[test]
    fn artifacts_round_trip_and_reject_malformed_input() {
        let labels = vec!["in-process".to_string(), "a label with spaces".to_string()];
        let raw = vec![
            (0, 1, report_with(vec![logic(DivergenceSide::Left)])),
            (1, 0, report_with(Vec::new())),
        ];
        let report = merge_cells(42, labels, raw);
        let encoded = report.encode();
        assert_eq!(MatrixReport::decode(&encoded), Ok(report.clone()));
        // Deterministic: re-encoding the decoded report is the identity.
        assert_eq!(MatrixReport::decode(&encoded).unwrap().encode(), encoded);

        assert_eq!(
            MatrixReport::decode("not-an-artifact\n"),
            Err(CodecError::MissingHeader {
                magic: "spatter-matrix"
            })
        );
        assert_eq!(
            MatrixReport::decode("spatter-matrix 99 seed 0 backends 0 cells 0\ninvolvement\nend\n"),
            Err(CodecError::VersionMismatch {
                magic: "spatter-matrix",
                ours: 1,
                theirs: 99
            })
        );
        // A version past u32::MAX must not wrap onto a supported one
        // (2^32 + 1 read `as u32` is 1).
        assert!(matches!(
            MatrixReport::decode(
                "spatter-matrix 4294967297 seed 0 backends 0 cells 0\ninvolvement\nend\n"
            ),
            Err(CodecError::Malformed {
                line: 1,
                expected: "format version",
                ..
            })
        ));
        // Truncation after the header is structured, not a panic.
        let header_only: String = encoded.lines().take(1).map(|l| format!("{l}\n")).collect();
        assert_eq!(
            MatrixReport::decode(&header_only),
            Err(CodecError::Truncated { line: 2 })
        );
        // Trailing garbage is rejected.
        assert!(matches!(
            MatrixReport::decode(&format!("{encoded}surprise\n")),
            Err(CodecError::TrailingInput { .. })
        ));
        // A corrupted bucket count is a structured error naming the line.
        let corrupted = encoded.replace("left 1", "left eel");
        assert!(matches!(
            MatrixReport::decode(&corrupted),
            Err(CodecError::Malformed {
                line: 4,
                expected: "left bucket",
                ..
            })
        ));
    }
}
