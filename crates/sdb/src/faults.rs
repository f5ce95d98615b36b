//! The seeded fault registry.
//!
//! The paper's evaluation rests on 35 reported bugs (34 unique) found in real
//! SDBMSs over a four-month campaign (Tables 2 and 3). This reproduction
//! cannot re-discover those bugs in systems it does not ship, so it seeds
//! behaviour-accurate faults into the same components of its own engine: the
//! shared geometry library ("GEOS analog"), the engine-specific wrappers, the
//! prepared-geometry optimization, and the GiST-analog index. Each fault
//! records the metadata needed to regenerate the paper's tables: the affected
//! system, the component, logic vs crash, report status, the root-cause
//! trigger class of §5.2, and — for the 20 confirmed logic bugs — which of
//! the compared methodologies can detect it (the ground truth behind
//! Table 4, which the paper established by manual analysis).

use std::fmt;
use std::ops::RangeBounds;
use std::sync::atomic::{AtomicU64, Ordering};

/// The systems of the paper's evaluation (Table 2 rows). `Geos` is the shared
/// third-party library used by the PostGIS-like and DuckDB-like profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultySystem {
    /// The shared geometry library (GEOS analog).
    Geos,
    /// PostGIS-specific engine code.
    PostGis,
    /// DuckDB Spatial-specific engine code.
    DuckDbSpatial,
    /// MySQL GIS engine code.
    MySql,
    /// SQL Server engine code.
    SqlServer,
}

impl FaultySystem {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            FaultySystem::Geos => "GEOS",
            FaultySystem::PostGis => "PostGIS",
            FaultySystem::DuckDbSpatial => "DuckDB Spatial",
            FaultySystem::MySql => "MySQL",
            FaultySystem::SqlServer => "SQL Server",
        }
    }
}

/// Logic bug (silent wrong result) vs crash bug (§1, Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Produces an incorrect result silently.
    Logic,
    /// Terminates the query with a simulated crash.
    Crash,
}

/// Report status (Table 2 columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultStatus {
    /// Confirmed and fixed by the developers.
    Fixed,
    /// Confirmed but not yet fixed.
    Confirmed,
    /// Reported, awaiting confirmation.
    Unconfirmed,
    /// Same root cause as a previously confirmed bug.
    Duplicate,
}

/// Root-cause / trigger-pattern classes of §5.2 ("Patterns of inducing
/// cases").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TriggerClass {
    /// EMPTY geometries or EMPTY elements.
    Empty,
    /// MIXED (GEOMETRYCOLLECTION) geometries.
    Mixed,
    /// Floating-point precision loss.
    Precision,
    /// The prepared-geometry optimization.
    Prepared,
    /// The GiST-analog index path.
    Index,
    /// A wrong or ambiguous function definition.
    Definition,
    /// Anything else (representation handling, recursion, …).
    Other,
}

/// Which testing methodologies can detect a (logic) fault — the Table 4
/// ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Detectability {
    /// Affine Equivalent Inputs (the paper's approach).
    pub aei: bool,
    /// Differential testing PostGIS vs MySQL.
    pub diff_postgis_mysql: bool,
    /// Differential testing PostGIS vs DuckDB Spatial.
    pub diff_postgis_duckdb: bool,
    /// Differential testing with and without an index.
    pub index: bool,
    /// Ternary Logic Partitioning.
    pub tlp: bool,
}

/// Identifiers of every seeded fault. The prefix encodes the system:
/// `G*` = GEOS analog, `P*` = PostGIS-like, `M*` = MySQL-like,
/// `D*` = DuckDB-Spatial-like, `S*` = SQL-Server-like; `*C*` = crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum FaultId {
    // --- GEOS-analog logic faults (9) -----------------------------------
    GeosCoversPrecisionLoss,
    GeosMixedBoundaryLastOneWins,
    GeosPreparedDuplicateDropped,
    GeosEmptyDistanceRecursion,
    GeosMixedDimensionFirstElement,
    GeosIntersectsEmptyFirstElement,
    GeosTouchesDirectionSensitive,
    GeosEqualsDuplicateVertices,
    GeosDisjointEmptyElementMatrix,
    // --- GEOS-analog crash faults (3) ------------------------------------
    GeosCrashConvexHullEmptyCollection,
    GeosCrashPolygonizeDuplicatePoints,
    GeosCrashRelateShortRing,
    // --- PostGIS-like logic faults (7) ------------------------------------
    PostgisGistIndexDropsRows,
    PostgisDFullyWithinSmallCoords,
    PostgisEqualsSnapToGrid,
    PostgisContainsMultiPolygonFirstOnly,
    PostgisWithinEmptyCollectionMember,
    PostgisTouchesDuplicateVertices,
    PostgisCoveredByRingOrientation,
    // --- PostGIS-like crash faults (2) ------------------------------------
    PostgisCrashDumpRingsEmptyMulti,
    PostgisCrashIndexAllEmpty,
    // --- PostGIS-like other reports (unconfirmed / duplicate) -------------
    PostgisUnconfirmedEnvelopeEmpty,
    PostgisDuplicateCoversPrecision,
    // --- MySQL-like logic faults (4) ---------------------------------------
    MysqlCrossesLargeCoordinates,
    MysqlOverlapsAxisOrder,
    MysqlTouchesEmptyElement,
    MysqlDisjointNegativeCoordinates,
    // --- DuckDB-Spatial-like crash faults (5) ------------------------------
    DuckdbCrashCollectEmptyMixed,
    DuckdbCrashGeometryNZero,
    DuckdbCrashNestedEmptyCollection,
    DuckdbCrashBoundaryCollection,
    DuckdbCrashCollectionExtractMismatch,
    // --- DuckDB-Spatial-like other reports ---------------------------------
    DuckdbUnconfirmedEmptyPolygonWkt,
    // --- SQL-Server-like reports (unconfirmed) ------------------------------
    SqlServerUnconfirmedWithinCollection,
    SqlServerUnconfirmedCrashEmptyMultipoint,
    // --- Extension faults (beyond the paper's 35 reports) -------------------
    /// GiST maintenance skips the reinsert step of an `UPDATE` when the new
    /// geometry reaches into the negative-x half-plane, leaving the index
    /// keyed by the stale pre-update envelope. Only reachable by workloads
    /// that mutate after indexing — load-once campaigns never execute the
    /// update maintenance path, so they provably cannot hit it.
    PostgisGistStaleOnMutation,
}

impl FaultId {
    /// The stable textual name of the fault (the `Debug` rendering), used to
    /// serialize fault sets across process boundaries — e.g. on the
    /// `spatter-sdb-server` command line.
    pub fn name(&self) -> String {
        format!("{self:?}")
    }

    /// Parses a fault from its [`FaultId::name`] form.
    pub fn from_name(name: &str) -> Option<FaultId> {
        FaultId::ALL.into_iter().find(|id| id.name() == name)
    }

    /// Every fault, in declaration order (ascending id): the catalogue's,
    /// then the extensions.
    pub const ALL: [FaultId; 36] = {
        use FaultId::*;
        [
            GeosCoversPrecisionLoss,
            GeosMixedBoundaryLastOneWins,
            GeosPreparedDuplicateDropped,
            GeosEmptyDistanceRecursion,
            GeosMixedDimensionFirstElement,
            GeosIntersectsEmptyFirstElement,
            GeosTouchesDirectionSensitive,
            GeosEqualsDuplicateVertices,
            GeosDisjointEmptyElementMatrix,
            GeosCrashConvexHullEmptyCollection,
            GeosCrashPolygonizeDuplicatePoints,
            GeosCrashRelateShortRing,
            PostgisGistIndexDropsRows,
            PostgisDFullyWithinSmallCoords,
            PostgisEqualsSnapToGrid,
            PostgisContainsMultiPolygonFirstOnly,
            PostgisWithinEmptyCollectionMember,
            PostgisTouchesDuplicateVertices,
            PostgisCoveredByRingOrientation,
            PostgisCrashDumpRingsEmptyMulti,
            PostgisCrashIndexAllEmpty,
            PostgisUnconfirmedEnvelopeEmpty,
            PostgisDuplicateCoversPrecision,
            MysqlCrossesLargeCoordinates,
            MysqlOverlapsAxisOrder,
            MysqlTouchesEmptyElement,
            MysqlDisjointNegativeCoordinates,
            DuckdbCrashCollectEmptyMixed,
            DuckdbCrashGeometryNZero,
            DuckdbCrashNestedEmptyCollection,
            DuckdbCrashBoundaryCollection,
            DuckdbCrashCollectionExtractMismatch,
            DuckdbUnconfirmedEmptyPolygonWkt,
            SqlServerUnconfirmedWithinCollection,
            SqlServerUnconfirmedCrashEmptyMultipoint,
            PostgisGistStaleOnMutation,
        ]
    };

    /// The fault's bit in a [`FaultSet`] mask.
    const fn bit(self) -> u64 {
        1 << self as u32
    }
}

// `ALL` lists every variant once, in declaration order: its `i`-th entry is
// the fault with id `i`, and the last one is the last variant.
const _: () = {
    let mut i = 0;
    while i < FaultId::ALL.len() {
        assert!(FaultId::ALL[i] as usize == i);
        i += 1;
    }
    assert!(FaultId::PostgisGistStaleOnMutation as usize == FaultId::ALL.len() - 1);
    // One bit per fault.
    assert!(FaultId::ALL.len() <= 64);
};

/// Metadata describing one seeded fault / bug report.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInfo {
    /// The fault identifier.
    pub id: FaultId,
    /// Human-readable one-line description.
    pub description: &'static str,
    /// The system the bug report was filed against.
    pub system: FaultySystem,
    /// Logic or crash.
    pub kind: FaultKind,
    /// Report status.
    pub status: FaultStatus,
    /// Root-cause / trigger class.
    pub trigger: TriggerClass,
    /// Which methodologies can detect it (only meaningful for confirmed or
    /// fixed logic faults — the population Table 4 analyses).
    pub detectable_by: Detectability,
    /// The paper listing this fault reproduces, if any.
    pub listing: Option<u8>,
}

impl FaultInfo {
    /// Whether this report counts towards the 20 confirmed/fixed logic bugs
    /// of Tables 3 and 4.
    pub fn is_confirmed_logic(&self) -> bool {
        self.kind == FaultKind::Logic
            && matches!(self.status, FaultStatus::Fixed | FaultStatus::Confirmed)
    }
}

/// A set of enabled faults, as carried by an [`crate::Engine`]: one bit per
/// [`FaultId`], so a gate is one bit test. Iteration yields ascending ids
/// (declaration order).
#[derive(Clone, Default, PartialEq, Eq)]
pub struct FaultSet {
    mask: u64,
}

impl FaultSet {
    /// No faults: the reference ("fixed") engine.
    pub fn none() -> Self {
        FaultSet::default()
    }

    /// A set with the given faults enabled.
    pub fn with(faults: impl IntoIterator<Item = FaultId>) -> Self {
        let mut set = FaultSet::none();
        set.extend(faults);
        set
    }

    /// Enables a fault.
    pub fn enable(&mut self, fault: FaultId) {
        self.mask |= fault.bit();
    }

    /// Disables a fault ("applies the fix").
    pub fn disable(&mut self, fault: FaultId) {
        self.mask &= !fault.bit();
    }

    /// Whether the fault is enabled.
    pub fn is_active(&self, fault: FaultId) -> bool {
        self.mask & fault.bit() != 0
    }

    /// Number of enabled faults.
    pub fn len(&self) -> usize {
        self.mask.count_ones() as usize
    }

    /// Whether no fault is enabled.
    pub fn is_empty(&self) -> bool {
        self.mask == 0
    }

    /// Iterates over the enabled faults in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = FaultId> + '_ {
        FaultId::ALL
            .into_iter()
            .filter(move |&fault| self.is_active(fault))
    }

    /// Serializes the set as a comma-separated list of fault names (the
    /// empty string for the empty set); the inverse of
    /// [`FaultSet::parse_names`]. Used to hand a fault set to an
    /// out-of-process engine on its command line.
    pub fn to_names(&self) -> String {
        self.iter()
            .map(|fault| fault.name())
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Parses a comma-separated list of fault names.
    pub fn parse_names(spec: &str) -> Result<FaultSet, String> {
        let mut set = FaultSet::none();
        for name in spec.split(',').map(str::trim).filter(|n| !n.is_empty()) {
            let fault = FaultId::from_name(name).ok_or_else(|| format!("unknown fault {name}"))?;
            set.enable(fault);
        }
        Ok(set)
    }
}

impl Extend<FaultId> for FaultSet {
    fn extend<I: IntoIterator<Item = FaultId>>(&mut self, faults: I) {
        for fault in faults {
            self.enable(fault);
        }
    }
}

impl fmt::Debug for FaultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// The seeded faults the statement an engine is running has fired so far,
/// as a [`FaultSet`] mask. Atomic so that the engine stays `Send + Sync`
/// while kernels record through a shared borrow; `Relaxed` because the bits
/// publish no other data. A clone copies the bits.
#[derive(Debug, Default)]
pub(crate) struct FiredFaults(AtomicU64);

impl FiredFaults {
    pub(crate) fn record(&self, id: FaultId) {
        self.0.fetch_or(id.bit(), Ordering::Relaxed);
    }

    /// The faults recorded since the last take, clearing them.
    pub(crate) fn take(&mut self) -> FaultSet {
        FaultSet {
            mask: std::mem::take(self.0.get_mut()),
        }
    }
}

/// Which seeded faults each statement of a session fired: one entry per
/// statement that fired any, keyed by the statement's position in the
/// session (0 for its first), in statement order. Sparse because almost no
/// statement fires anything. Attribution reads the faults a span of
/// statements fired ([`FiredLog::fired_in`]) — the statements a re-check
/// would repeat — rather than everything the session did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FiredLog {
    entries: Vec<(usize, FaultSet)>,
}

impl FiredLog {
    /// The log of these entries, or `None` unless it is their one
    /// encoding: positions strictly ascending, no entry empty.
    pub fn from_entries(entries: Vec<(usize, FaultSet)>) -> Option<FiredLog> {
        let canonical = entries.windows(2).all(|pair| pair[0].0 < pair[1].0)
            && entries.iter().all(|(_, fired)| !fired.is_empty());
        canonical.then_some(FiredLog { entries })
    }

    /// Logs what statement `statement` fired; nothing when it fired
    /// nothing. Statements must be logged in order.
    pub(crate) fn push(&mut self, statement: usize, fired: FaultSet) {
        if !fired.is_empty() {
            self.entries.push((statement, fired));
        }
    }

    /// The entries, in statement order.
    pub fn entries(&self) -> &[(usize, FaultSet)] {
        &self.entries
    }

    /// The faults the statements at positions `statements` fired.
    pub fn fired_in(&self, statements: impl RangeBounds<usize>) -> FaultSet {
        let mut fired = FaultSet::none();
        for (_, set) in self
            .entries
            .iter()
            .filter(|(at, _)| statements.contains(at))
        {
            fired.extend(set.iter());
        }
        fired
    }

    /// The faults any statement fired.
    pub fn union(&self) -> FaultSet {
        self.fired_in(..)
    }
}

impl Clone for FiredFaults {
    fn clone(&self) -> Self {
        FiredFaults(AtomicU64::new(self.0.load(Ordering::Relaxed)))
    }
}

/// The full catalogue of seeded faults (the paper's 35 reports).
pub struct FaultCatalog;

impl FaultCatalog {
    /// Every report in the registry.
    pub fn all() -> Vec<FaultInfo> {
        use FaultId::*;
        use FaultKind::*;
        use FaultStatus::*;
        use FaultySystem::*;
        use TriggerClass::*;

        let aei = |pm: bool, pd: bool, idx: bool, tlp: bool| Detectability {
            aei: true,
            diff_postgis_mysql: pm,
            diff_postgis_duckdb: pd,
            index: idx,
            tlp,
        };
        let none = Detectability::default();

        vec![
            // ---------------- GEOS analog: 9 logic (1 fixed, 8 confirmed) + 3 crash (fixed)
            FaultInfo {
                id: GeosCoversPrecisionLoss,
                description: "Covers predicate fails on obviously correct simple case (vertex normalization precision loss)",
                system: Geos,
                kind: Logic,
                status: Fixed,
                trigger: Precision,
                detectable_by: aei(false, false, false, false),
                listing: Some(1),
            },
            FaultInfo {
                id: GeosMixedBoundaryLastOneWins,
                description: "GEOMETRYCOLLECTION boundary uses a last-one-wins strategy, misjudging ST_Within",
                system: Geos,
                kind: Logic,
                status: Confirmed,
                trigger: Mixed,
                detectable_by: aei(true, false, false, false),
                listing: Some(6),
            },
            FaultInfo {
                id: GeosPreparedDuplicateDropped,
                description: "Prepared geometry drops a matching pair when identical rows are joined",
                system: Geos,
                kind: Logic,
                status: Confirmed,
                trigger: Prepared,
                detectable_by: aei(true, true, false, false),
                listing: Some(7),
            },
            FaultInfo {
                id: GeosEmptyDistanceRecursion,
                description: "ST_Distance recursion mishandles MULTI geometries containing EMPTY elements",
                system: Geos,
                kind: Logic,
                status: Confirmed,
                trigger: Empty,
                detectable_by: aei(false, false, false, false),
                listing: Some(5),
            },
            FaultInfo {
                id: GeosMixedDimensionFirstElement,
                description: "Dimension of a MIXED geometry computed from its first element, wrong when that element is EMPTY",
                system: Geos,
                kind: Logic,
                status: Confirmed,
                trigger: Empty,
                detectable_by: aei(false, false, false, false),
                listing: None,
            },
            FaultInfo {
                id: GeosIntersectsEmptyFirstElement,
                description: "ST_Intersects short-circuits to false when the first element of a MULTI geometry is EMPTY",
                system: Geos,
                kind: Logic,
                status: Confirmed,
                trigger: Empty,
                detectable_by: aei(true, false, false, false),
                listing: None,
            },
            FaultInfo {
                id: GeosTouchesDirectionSensitive,
                description: "ST_Touches result depends on the stored direction of a LINESTRING argument",
                system: Geos,
                kind: Logic,
                status: Confirmed,
                trigger: Other,
                detectable_by: aei(false, false, false, false),
                listing: None,
            },
            FaultInfo {
                id: GeosEqualsDuplicateVertices,
                description: "ST_Equals returns false for geometries containing consecutive duplicate vertices",
                system: Geos,
                kind: Logic,
                status: Confirmed,
                trigger: Other,
                detectable_by: aei(false, false, false, false),
                listing: None,
            },
            FaultInfo {
                id: GeosDisjointEmptyElementMatrix,
                description: "ST_Disjoint computes a wrong DE-9IM matrix when a MULTI geometry carries an EMPTY element",
                system: Geos,
                kind: Logic,
                status: Confirmed,
                trigger: Empty,
                detectable_by: aei(false, false, false, false),
                listing: None,
            },
            FaultInfo {
                id: GeosCrashConvexHullEmptyCollection,
                description: "Crash computing the convex hull of a collection with only EMPTY elements",
                system: Geos,
                kind: Crash,
                status: Fixed,
                trigger: Empty,
                detectable_by: none,
                listing: None,
            },
            FaultInfo {
                id: GeosCrashPolygonizeDuplicatePoints,
                description: "Crash in ST_Polygonize on linework with consecutive duplicate points",
                system: Geos,
                kind: Crash,
                status: Fixed,
                trigger: Other,
                detectable_by: none,
                listing: None,
            },
            FaultInfo {
                id: GeosCrashRelateShortRing,
                description: "Crash in relate when a polygon ring has fewer than four points",
                system: Geos,
                kind: Crash,
                status: Fixed,
                trigger: Other,
                detectable_by: none,
                listing: None,
            },
            // ---------------- PostGIS-like: 7 logic (6 fixed, 1 confirmed) + 2 crash + 1 unconfirmed + 1 duplicate
            FaultInfo {
                id: PostgisGistIndexDropsRows,
                description: "GiST index scan drops rows with EMPTY or negatively-translated geometries",
                system: PostGis,
                kind: Logic,
                status: Fixed,
                trigger: Index,
                detectable_by: aei(false, false, true, true),
                listing: Some(8),
            },
            FaultInfo {
                id: PostgisDFullyWithinSmallCoords,
                description: "ST_DFullyWithin definition fails for small-magnitude geometries",
                system: PostGis,
                kind: Logic,
                status: Confirmed,
                trigger: Definition,
                detectable_by: aei(false, false, false, false),
                listing: Some(9),
            },
            FaultInfo {
                id: PostgisEqualsSnapToGrid,
                description: "ST_Equals snaps coordinates to a grid before comparison, losing fractional coordinates",
                system: PostGis,
                kind: Logic,
                status: Fixed,
                trigger: Precision,
                detectable_by: aei(false, false, false, false),
                listing: None,
            },
            FaultInfo {
                id: PostgisContainsMultiPolygonFirstOnly,
                description: "ST_Contains with a MULTIPOLYGON container checks only its first polygon",
                system: PostGis,
                kind: Logic,
                status: Fixed,
                trigger: Mixed,
                detectable_by: aei(false, false, false, false),
                listing: None,
            },
            FaultInfo {
                id: PostgisWithinEmptyCollectionMember,
                description: "ST_Within returns false when the containing collection carries an EMPTY member",
                system: PostGis,
                kind: Logic,
                status: Fixed,
                trigger: Empty,
                detectable_by: aei(false, false, false, false),
                listing: None,
            },
            FaultInfo {
                id: PostgisTouchesDuplicateVertices,
                description: "ST_Touches misjudges geometries containing consecutive duplicate vertices",
                system: PostGis,
                kind: Logic,
                status: Fixed,
                trigger: Mixed,
                detectable_by: aei(false, false, false, false),
                listing: None,
            },
            FaultInfo {
                id: PostgisCoveredByRingOrientation,
                description: "ST_CoveredBy result depends on polygon ring orientation",
                system: PostGis,
                kind: Logic,
                status: Fixed,
                trigger: Other,
                detectable_by: aei(false, false, false, false),
                listing: None,
            },
            FaultInfo {
                id: PostgisCrashDumpRingsEmptyMulti,
                description: "Crash in ST_DumpRings on MULTIPOLYGON EMPTY",
                system: PostGis,
                kind: Crash,
                status: Fixed,
                trigger: Empty,
                detectable_by: none,
                listing: None,
            },
            FaultInfo {
                id: PostgisCrashIndexAllEmpty,
                description: "Crash building a GiST index over a column containing only EMPTY geometries",
                system: PostGis,
                kind: Crash,
                status: Fixed,
                trigger: Index,
                detectable_by: none,
                listing: None,
            },
            FaultInfo {
                id: PostgisUnconfirmedEnvelopeEmpty,
                description: "ST_Envelope of an EMPTY geometry returns an unexpected representation",
                system: PostGis,
                kind: Logic,
                status: Unconfirmed,
                trigger: Empty,
                detectable_by: none,
                listing: None,
            },
            FaultInfo {
                id: PostgisDuplicateCoversPrecision,
                description: "Duplicate report of the Covers precision-loss root cause",
                system: PostGis,
                kind: Logic,
                status: Duplicate,
                trigger: Precision,
                detectable_by: none,
                listing: Some(1),
            },
            // ---------------- MySQL-like: 4 logic (1 fixed, 3 confirmed)
            FaultInfo {
                id: MysqlCrossesLargeCoordinates,
                description: "ST_Crosses computes a wrong relation after coordinates are scaled into the hundreds",
                system: MySql,
                kind: Logic,
                status: Fixed,
                trigger: Mixed,
                detectable_by: aei(true, false, false, false),
                listing: Some(3),
            },
            FaultInfo {
                id: MysqlOverlapsAxisOrder,
                description: "ST_Overlaps result changes after swapping the X and Y axes",
                system: MySql,
                kind: Logic,
                status: Confirmed,
                trigger: Mixed,
                detectable_by: aei(false, false, false, false),
                listing: Some(4),
            },
            FaultInfo {
                id: MysqlTouchesEmptyElement,
                description: "ST_Touches misjudges collections containing EMPTY elements",
                system: MySql,
                kind: Logic,
                status: Confirmed,
                trigger: Empty,
                detectable_by: aei(false, false, false, false),
                listing: None,
            },
            FaultInfo {
                id: MysqlDisjointNegativeCoordinates,
                description: "ST_Disjoint mishandles geometries whose coordinates are all negative",
                system: MySql,
                kind: Logic,
                status: Confirmed,
                trigger: Other,
                detectable_by: aei(false, false, true, false),
                listing: None,
            },
            // ---------------- DuckDB-Spatial-like: 5 crash (fixed) + 1 unconfirmed
            FaultInfo {
                id: DuckdbCrashCollectEmptyMixed,
                description: "Crash in ST_Collect over mixed arguments containing EMPTY geometries",
                system: DuckDbSpatial,
                kind: Crash,
                status: Fixed,
                trigger: Empty,
                detectable_by: none,
                listing: None,
            },
            FaultInfo {
                id: DuckdbCrashGeometryNZero,
                description: "Crash in ST_GeometryN when the index argument is zero",
                system: DuckDbSpatial,
                kind: Crash,
                status: Fixed,
                trigger: Other,
                detectable_by: none,
                listing: None,
            },
            FaultInfo {
                id: DuckdbCrashNestedEmptyCollection,
                description: "Crash parsing a nested GEOMETRYCOLLECTION whose inner collection is EMPTY",
                system: DuckDbSpatial,
                kind: Crash,
                status: Fixed,
                trigger: Mixed,
                detectable_by: none,
                listing: None,
            },
            FaultInfo {
                id: DuckdbCrashBoundaryCollection,
                description: "Crash computing ST_Boundary of a GEOMETRYCOLLECTION",
                system: DuckDbSpatial,
                kind: Crash,
                status: Fixed,
                trigger: Mixed,
                detectable_by: none,
                listing: None,
            },
            FaultInfo {
                id: DuckdbCrashCollectionExtractMismatch,
                description: "Crash in ST_CollectionExtract when no element matches the requested type",
                system: DuckDbSpatial,
                kind: Crash,
                status: Fixed,
                trigger: Mixed,
                detectable_by: none,
                listing: None,
            },
            FaultInfo {
                id: DuckdbUnconfirmedEmptyPolygonWkt,
                description: "'POLYGON(EMPTY)' is parsed as NULL instead of POLYGON EMPTY",
                system: DuckDbSpatial,
                kind: Logic,
                status: Unconfirmed,
                trigger: Empty,
                detectable_by: none,
                listing: None,
            },
            // ---------------- SQL-Server-like: 2 unconfirmed
            FaultInfo {
                id: SqlServerUnconfirmedWithinCollection,
                description: "STWithin misjudges GEOMETRYCOLLECTION containers",
                system: SqlServer,
                kind: Logic,
                status: Unconfirmed,
                trigger: Mixed,
                detectable_by: none,
                listing: None,
            },
            FaultInfo {
                id: SqlServerUnconfirmedCrashEmptyMultipoint,
                description: "Crash ingesting MULTIPOINT geometries with EMPTY elements",
                system: SqlServer,
                kind: Crash,
                status: Unconfirmed,
                trigger: Empty,
                detectable_by: none,
                listing: None,
            },
        ]
    }

    /// Extension faults seeded beyond the paper's 35 reports. Kept out of
    /// [`FaultCatalog::all`] so the Table 2/3/4 populations stay pinned to
    /// the paper's counts; lookups ([`FaultCatalog::info`],
    /// [`FaultId::from_name`]) cover both lists.
    pub fn extensions() -> Vec<FaultInfo> {
        vec![FaultInfo {
            id: FaultId::PostgisGistStaleOnMutation,
            description:
                "GiST index keeps the stale pre-update envelope when an UPDATE moves a geometry into the negative-x half-plane",
            system: FaultySystem::PostGis,
            kind: FaultKind::Logic,
            status: FaultStatus::Confirmed,
            trigger: TriggerClass::Index,
            detectable_by: Detectability {
                aei: true,
                index: true,
                ..Detectability::default()
            },
            listing: None,
        }]
    }

    /// Looks up a fault's metadata (extension faults included).
    pub fn info(id: FaultId) -> FaultInfo {
        Self::all()
            .into_iter()
            .chain(Self::extensions())
            .find(|f| f.id == id)
            .expect("every FaultId has catalog metadata")
    }

    /// The reports filed against a given system (Table 2 rows).
    pub fn for_system(system: FaultySystem) -> Vec<FaultInfo> {
        Self::all()
            .into_iter()
            .filter(|f| f.system == system)
            .collect()
    }

    /// The 20 confirmed or fixed logic faults analysed by Table 4.
    pub fn confirmed_logic() -> Vec<FaultInfo> {
        Self::all()
            .into_iter()
            .filter(|f| f.is_confirmed_logic())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineProfile};

    #[test]
    fn fault_names_round_trip() {
        for info in FaultCatalog::all() {
            assert_eq!(FaultId::from_name(&info.id.name()), Some(info.id));
        }
        assert_eq!(FaultId::from_name("NoSuchFault"), None);
    }

    #[test]
    fn all_lists_the_catalogue_in_id_order() {
        let mut ids: Vec<FaultId> = FaultCatalog::all()
            .into_iter()
            .chain(FaultCatalog::extensions())
            .map(|info| info.id)
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, FaultId::ALL);
        // A set iterates in ascending id order, whatever order built it.
        let set = FaultSet::with(FaultId::ALL.into_iter().rev());
        assert!(set.iter().eq(FaultId::ALL));
        assert_eq!(set.len(), FaultId::ALL.len());
    }

    #[test]
    fn fault_set_name_lists_round_trip() {
        let set = FaultSet::with([
            FaultId::GeosCoversPrecisionLoss,
            FaultId::PostgisGistIndexDropsRows,
        ]);
        assert_eq!(FaultSet::parse_names(&set.to_names()), Ok(set));
        assert_eq!(FaultSet::parse_names(""), Ok(FaultSet::none()));
        assert!(FaultSet::parse_names("Bogus").is_err());
    }

    #[test]
    fn registry_reproduces_table2_totals() {
        let all = FaultCatalog::all();
        assert_eq!(all.len(), 35, "35 reports in total");
        let unique: Vec<_> = all
            .iter()
            .filter(|f| f.status != FaultStatus::Duplicate)
            .collect();
        assert_eq!(unique.len(), 34, "34 unique bugs");
        let count = |s: FaultySystem| FaultCatalog::for_system(s).len();
        assert_eq!(count(FaultySystem::Geos), 12);
        assert_eq!(count(FaultySystem::PostGis), 11);
        assert_eq!(count(FaultySystem::DuckDbSpatial), 6);
        assert_eq!(count(FaultySystem::MySql), 4);
        assert_eq!(count(FaultySystem::SqlServer), 2);
        let fixed = all
            .iter()
            .filter(|f| f.status == FaultStatus::Fixed)
            .count();
        let confirmed = all
            .iter()
            .filter(|f| f.status == FaultStatus::Confirmed)
            .count();
        let unconfirmed = all
            .iter()
            .filter(|f| f.status == FaultStatus::Unconfirmed)
            .count();
        let duplicate = all
            .iter()
            .filter(|f| f.status == FaultStatus::Duplicate)
            .count();
        assert_eq!((fixed, confirmed, unconfirmed, duplicate), (18, 12, 4, 1));
    }

    #[test]
    fn registry_reproduces_table3_split() {
        // 20 confirmed/fixed logic bugs, 10 confirmed/fixed crash bugs.
        let confirmed: Vec<_> = FaultCatalog::all()
            .into_iter()
            .filter(|f| matches!(f.status, FaultStatus::Fixed | FaultStatus::Confirmed))
            .collect();
        assert_eq!(confirmed.len(), 30);
        let logic = confirmed
            .iter()
            .filter(|f| f.kind == FaultKind::Logic)
            .count();
        let crash = confirmed
            .iter()
            .filter(|f| f.kind == FaultKind::Crash)
            .count();
        assert_eq!(logic, 20);
        assert_eq!(crash, 10);
        // Per-system crash counts of Table 3.
        let crash_of = |s: FaultySystem| {
            confirmed
                .iter()
                .filter(|f| f.system == s && f.kind == FaultKind::Crash)
                .count()
        };
        assert_eq!(crash_of(FaultySystem::Geos), 3);
        assert_eq!(crash_of(FaultySystem::PostGis), 2);
        assert_eq!(crash_of(FaultySystem::DuckDbSpatial), 5);
        assert_eq!(crash_of(FaultySystem::MySql), 0);
    }

    #[test]
    fn registry_reproduces_table4_ground_truth() {
        let logic = FaultCatalog::confirmed_logic();
        assert_eq!(logic.len(), 20);
        assert!(
            logic.iter().all(|f| f.detectable_by.aei),
            "AEI detects all 20"
        );
        let pm = logic
            .iter()
            .filter(|f| f.detectable_by.diff_postgis_mysql)
            .count();
        let pd = logic
            .iter()
            .filter(|f| f.detectable_by.diff_postgis_duckdb)
            .count();
        let idx = logic.iter().filter(|f| f.detectable_by.index).count();
        let tlp = logic.iter().filter(|f| f.detectable_by.tlp).count();
        assert_eq!(pm, 4, "PostGIS vs MySQL detects 4");
        assert_eq!(pd, 1, "PostGIS vs DuckDB detects 1");
        assert_eq!(idx, 2, "Index oracle detects 2");
        assert_eq!(tlp, 1, "TLP detects 1");
        let overlooked = logic
            .iter()
            .filter(|f| {
                !f.detectable_by.diff_postgis_mysql
                    && !f.detectable_by.diff_postgis_duckdb
                    && !f.detectable_by.index
                    && !f.detectable_by.tlp
            })
            .count();
        assert_eq!(overlooked, 14, "14 bugs overlooked by all previous methods");
    }

    #[test]
    fn trigger_pattern_counts_match_section_5_2() {
        let logic = FaultCatalog::confirmed_logic();
        let empty = logic
            .iter()
            .filter(|f| f.trigger == TriggerClass::Empty)
            .count();
        // "Among all 20 logic bugs, 6 can be triggered by test cases containing
        // EMPTY elements or geometries."
        assert_eq!(empty, 6);
    }

    #[test]
    fn fault_set_enable_disable() {
        let mut set = FaultSet::none();
        assert!(set.is_empty());
        set.enable(FaultId::GeosCoversPrecisionLoss);
        set.enable(FaultId::GeosCoversPrecisionLoss);
        assert_eq!(set.len(), 1);
        assert!(set.is_active(FaultId::GeosCoversPrecisionLoss));
        set.disable(FaultId::GeosCoversPrecisionLoss);
        assert!(!set.is_active(FaultId::GeosCoversPrecisionLoss));
        let set = FaultSet::with([
            FaultId::MysqlOverlapsAxisOrder,
            FaultId::MysqlTouchesEmptyElement,
        ]);
        assert_eq!(set.iter().count(), 2);
    }

    /// The non-test half of an engine source file.
    fn production_code(source: &'static str) -> &'static str {
        source.split("#[cfg(test)]").next().unwrap_or(source)
    }

    /// Fault names following `marker` in `source`.
    fn faults_after<'a>(source: &'a str, marker: &str) -> Vec<&'a str> {
        source
            .match_indices(marker)
            .map(|(at, _)| {
                let rest = &source[at + marker.len()..];
                let end = rest
                    .find(|c: char| !c.is_ascii_alphanumeric())
                    .unwrap_or(rest.len());
                &rest[..end]
            })
            .collect()
    }

    #[test]
    fn every_guarded_fault_fires_somewhere() {
        let sources = [
            production_code(include_str!("functions.rs")),
            production_code(include_str!("engine.rs")),
        ];
        let mut guarded = Vec::new();
        let mut fired = Vec::new();
        for source in sources {
            for marker in ["ctx.fault(FaultId::", "faults.is_active(FaultId::"] {
                guarded.extend(faults_after(source, marker));
            }
            fired.extend(faults_after(source, "fire(FaultId::"));
        }
        guarded.sort_unstable();
        guarded.dedup();
        assert!(guarded.len() >= 30, "the scan found only {guarded:?}");
        for name in &guarded {
            assert!(FaultId::from_name(name).is_some(), "{name} is no fault");
        }
        let silent: Vec<_> = guarded.iter().filter(|g| !fired.contains(g)).collect();
        assert!(
            silent.is_empty(),
            "faults guarded but never fired: {silent:?}"
        );
    }

    /// The paper's listings as `(profile, setup, query, fault)`: each
    /// query, run on the stock engine of its profile after its setup, takes
    /// exactly one fault's divergent branch. Listing 8 adds a non-EMPTY row
    /// so the stock profile's all-EMPTY index-build crash stays out of it.
    const LISTINGS: &[(EngineProfile, &str, &str, FaultId)] = &[
        (
            EngineProfile::PostgisLike,
            "CREATE TABLE t1 (g geometry); CREATE TABLE t2 (g geometry);
             INSERT INTO t1 (g) VALUES ('LINESTRING(0 1,2 0)');
             INSERT INTO t2 (g) VALUES ('POINT(0.2 0.9)');",
            "SELECT COUNT(*) FROM t1 JOIN t2 ON ST_Covers(t1.g,t2.g)",
            FaultId::GeosCoversPrecisionLoss,
        ),
        (
            EngineProfile::MysqlLike,
            "SET @g1='MULTILINESTRING((990 280,100 20))';
             SET @g2='GEOMETRYCOLLECTION(MULTILINESTRING((990 280, 100 20)),POLYGON((360 60,850 620,850 420,360 60)))';",
            "SELECT ST_Crosses(ST_GeomFromText(@g1), ST_GeomFromText(@g2))",
            FaultId::MysqlCrossesLargeCoordinates,
        ),
        (
            EngineProfile::MysqlLike,
            "SET @g1 = ST_GeomFromText('POLYGON((614 445,30 26,80 30,614 445))');
             SET @g2 = ST_GeomFromText('GEOMETRYCOLLECTION(POLYGON((614 445,30 26,80 30,614 445)),POLYGON((190 1010,40 90,90 40,190 1010)))');",
            "SELECT ST_Overlaps(ST_SwapXY(@g2), ST_SwapXY(@g1))",
            FaultId::MysqlOverlapsAxisOrder,
        ),
        (
            EngineProfile::PostgisLike,
            "",
            "SELECT ST_Distance('MULTIPOINT((1 0),(0 0))'::geometry, 'MULTIPOINT((-2 0),EMPTY)'::geometry)",
            FaultId::GeosEmptyDistanceRecursion,
        ),
        (
            EngineProfile::PostgisLike,
            "",
            "SELECT ST_Within('POINT(0 0)'::geometry, 'GEOMETRYCOLLECTION(POINT(0 0),LINESTRING(0 0,1 0))'::geometry)",
            FaultId::GeosMixedBoundaryLastOneWins,
        ),
        (
            EngineProfile::PostgisLike,
            "CREATE TABLE t (id int, geom geometry);
             INSERT INTO t (id, geom) VALUES
             (1,'GEOMETRYCOLLECTION(MULTIPOINT((0 0),(3 1)))'::geometry),
             (2,'GEOMETRYCOLLECTION(MULTIPOINT((0 0),(3 1)))'::geometry),
             (3,'MULTIPOLYGON(((0 0,5 0,0 5,0 0)))'::geometry);",
            "SELECT a1.id, a2.id FROM t As a1, t As a2 WHERE ST_Contains(a1.geom, a2.geom)",
            FaultId::GeosPreparedDuplicateDropped,
        ),
        (
            EngineProfile::PostgisLike,
            "CREATE TABLE t (id int, geom geometry);
             INSERT INTO t (id, geom) VALUES (1, 'POINT EMPTY'), (2, 'POINT(1 1)');
             CREATE INDEX idx ON t USING GIST (geom);
             SET enable_seqscan = false;",
            "SELECT COUNT(*) FROM t WHERE geom ~= 'POINT EMPTY'::geometry",
            FaultId::PostgisGistIndexDropsRows,
        ),
        (
            EngineProfile::PostgisLike,
            "",
            "SELECT ST_DFullyWithin('LINESTRING(0 0,0 1,1 0,0 0)'::geometry,'POLYGON((0 0,0 1,1 0,0 0))'::geometry,100)",
            FaultId::PostgisDFullyWithinSmallCoords,
        ),
    ];

    #[test]
    fn each_listing_fires_exactly_its_fault() {
        let listed = FaultSet::with(
            FaultCatalog::all()
                .into_iter()
                .filter(|f| f.listing.is_some() && f.status != FaultStatus::Duplicate)
                .map(|f| f.id),
        );
        let covered = FaultSet::with(LISTINGS.iter().map(|l| l.3));
        assert_eq!(covered, listed, "one case per listing fault");
        for &(profile, setup, query, fault) in LISTINGS {
            let mut engine = Engine::new(profile);
            engine.execute_script(setup).unwrap();
            engine.execute(query).unwrap();
            assert_eq!(engine.fired_faults(), FaultSet::with([fault]), "{query}");
        }
    }

    #[test]
    fn the_reference_engine_fires_nothing() {
        for &(profile, setup, query, _) in LISTINGS {
            let mut engine = Engine::reference(profile);
            engine.execute_script(setup).unwrap();
            engine.execute(query).unwrap();
            assert_eq!(engine.fired_faults(), FaultSet::none(), "{query}");
        }
    }

    #[test]
    fn info_lookup_matches_listings() {
        assert_eq!(
            FaultCatalog::info(FaultId::GeosCoversPrecisionLoss).listing,
            Some(1)
        );
        assert_eq!(
            FaultCatalog::info(FaultId::MysqlCrossesLargeCoordinates).listing,
            Some(3)
        );
        assert_eq!(
            FaultCatalog::info(FaultId::PostgisGistIndexDropsRows).listing,
            Some(8)
        );
    }
}
