//! Engine profiles modelling the four tested SDBMSs (§5, "Tested SDBMSs").
//!
//! A profile determines (1) which spatial functions exist, (2) how strictly
//! geometries are validated — the sources of the *expected discrepancies*
//! that defeat differential testing (§1, §5.2) — and (3) which seeded faults
//! the stock engine of that profile carries.

use crate::faults::{FaultCatalog, FaultId, FaultKind, FaultSet, FaultStatus, FaultySystem};

/// The four engine profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineProfile {
    /// Models PostGIS (built on the shared GEOS-analog library).
    PostgisLike,
    /// Models MySQL's built-in GIS (its own geometry code).
    MysqlLike,
    /// Models DuckDB Spatial (also built on the GEOS analog).
    DuckdbSpatialLike,
    /// Models SQL Server's spatial types.
    SqlServerLike,
}

impl EngineProfile {
    /// All four profiles.
    pub const ALL: [EngineProfile; 4] = [
        EngineProfile::PostgisLike,
        EngineProfile::MysqlLike,
        EngineProfile::DuckdbSpatialLike,
        EngineProfile::SqlServerLike,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            EngineProfile::PostgisLike => "postgis_like",
            EngineProfile::MysqlLike => "mysql_like",
            EngineProfile::DuckdbSpatialLike => "duckdb_spatial_like",
            EngineProfile::SqlServerLike => "sqlserver_like",
        }
    }

    /// Parses a profile from its [`EngineProfile::name`] form (used by the
    /// `spatter-sdb-server` command line).
    pub fn from_name(name: &str) -> Option<EngineProfile> {
        EngineProfile::ALL.into_iter().find(|p| p.name() == name)
    }

    /// Whether the profile is built on the shared GEOS-analog library and
    /// therefore inherits its faults (PostGIS and DuckDB Spatial share GEOS
    /// in the paper; MySQL and SQL Server have their own implementations).
    pub fn uses_shared_library(&self) -> bool {
        matches!(
            self,
            EngineProfile::PostgisLike | EngineProfile::DuckdbSpatialLike
        )
    }

    /// Whether the profile supports a given `ST_*` function. This encodes the
    /// "solely implemented in one SDBMS" situations the paper highlights:
    /// `ST_Covers` / `ST_CoveredBy` / `ST_DFullyWithin` exist only in the
    /// PostGIS-like and DuckDB-like profiles, `ST_DumpRings` only in
    /// PostGIS-like, while the OGC core is universal.
    pub fn supports_function(&self, name: &str) -> bool {
        const CORE: [&str; 29] = [
            "ST_INTERSECTS",
            "ST_DISJOINT",
            "ST_CONTAINS",
            "ST_WITHIN",
            "ST_CROSSES",
            "ST_OVERLAPS",
            "ST_TOUCHES",
            "ST_EQUALS",
            "ST_RELATE",
            "ST_DISTANCE",
            "ST_DWITHIN",
            "ST_GEOMFROMTEXT",
            "ST_ASTEXT",
            "ST_ISVALID",
            "ST_DIMENSION",
            "ST_NUMGEOMETRIES",
            "ST_GEOMETRYN",
            "ST_ENVELOPE",
            "ST_CONVEXHULL",
            "ST_BOUNDARY",
            "ST_CENTROID",
            "ST_AREA",
            "ST_LENGTH",
            "ST_ISEMPTY",
            "ST_COLLECT",
            "ST_REVERSE",
            "ST_POINTN",
            "ST_SWAPXY",
            "ST_GEOMETRYTYPE",
        ];
        // PostGIS / DuckDB Spatial extensions (shared GEOS heritage).
        const SHARED_LIBRARY: [&str; 2] = ["ST_COVERS", "ST_COVEREDBY"];
        // PostGIS-only extensions.
        const POSTGIS: [&str; 6] = [
            "ST_DFULLYWITHIN",
            "ST_DUMPRINGS",
            "ST_SETPOINT",
            "ST_FORCEPOLYGONCW",
            "ST_COLLECTIONEXTRACT",
            "ST_POLYGONIZE",
        ];
        let listed = |names: &[&str]| names.iter().any(|n| n.eq_ignore_ascii_case(name));
        if listed(&CORE) {
            true
        } else if listed(&SHARED_LIBRARY) {
            self.uses_shared_library()
        } else if listed(&POSTGIS) {
            matches!(self, EngineProfile::PostgisLike)
        } else {
            false
        }
    }

    /// Whether the profile rejects semantically invalid geometries when they
    /// are used in predicates. PostGIS-like and DuckDB-like are strict (they
    /// raise errors for, e.g., collections whose elements intersect,
    /// Listing 4); MySQL-like and SQL-Server-like accept them.
    pub fn strict_validation(&self) -> bool {
        self.uses_shared_library()
    }

    /// The seeded faults a stock engine of this profile carries: every
    /// confirmed/fixed/unconfirmed fault filed against the profile's own
    /// engine, plus the shared-library faults for profiles built on the GEOS
    /// analog. Duplicate reports do not add faults (same root cause).
    pub fn default_faults(&self) -> FaultSet {
        let mut set = FaultSet::none();
        for info in FaultCatalog::all() {
            if info.status == FaultStatus::Duplicate {
                continue;
            }
            let applies = match info.system {
                FaultySystem::Geos => self.uses_shared_library(),
                FaultySystem::PostGis => *self == EngineProfile::PostgisLike,
                FaultySystem::DuckDbSpatial => *self == EngineProfile::DuckdbSpatialLike,
                FaultySystem::MySql => *self == EngineProfile::MysqlLike,
                FaultySystem::SqlServer => *self == EngineProfile::SqlServerLike,
            };
            if applies {
                set.enable(info.id);
            }
        }
        set
    }

    /// The subset of [`EngineProfile::default_faults`] that are logic faults.
    pub fn default_logic_faults(&self) -> Vec<FaultId> {
        self.default_faults()
            .iter()
            .filter(|id| FaultCatalog::info(*id).kind == FaultKind::Logic)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_is_a_shared_library_extension() {
        assert!(EngineProfile::PostgisLike.supports_function("ST_Covers"));
        assert!(EngineProfile::DuckdbSpatialLike.supports_function("st_covers"));
        assert!(!EngineProfile::MysqlLike.supports_function("ST_Covers"));
        assert!(!EngineProfile::SqlServerLike.supports_function("ST_Covers"));
    }

    #[test]
    fn dfullywithin_is_postgis_only() {
        assert!(EngineProfile::PostgisLike.supports_function("ST_DFullyWithin"));
        assert!(!EngineProfile::DuckdbSpatialLike.supports_function("ST_DFullyWithin"));
        assert!(!EngineProfile::MysqlLike.supports_function("ST_DFullyWithin"));
    }

    #[test]
    fn core_functions_are_universal() {
        for profile in EngineProfile::ALL {
            assert!(
                profile.supports_function("ST_Intersects"),
                "{}",
                profile.name()
            );
            assert!(
                profile.supports_function("ST_Crosses"),
                "{}",
                profile.name()
            );
            assert!(
                !profile.supports_function("ST_Buffer"),
                "{}",
                profile.name()
            );
        }
    }

    #[test]
    fn validation_strictness_matches_paper() {
        assert!(EngineProfile::PostgisLike.strict_validation());
        assert!(EngineProfile::DuckdbSpatialLike.strict_validation());
        assert!(!EngineProfile::MysqlLike.strict_validation());
        assert!(!EngineProfile::SqlServerLike.strict_validation());
    }

    #[test]
    fn default_fault_sets_partition_by_system() {
        let postgis = EngineProfile::PostgisLike.default_faults();
        assert!(postgis.is_active(FaultId::GeosCoversPrecisionLoss));
        assert!(postgis.is_active(FaultId::PostgisGistIndexDropsRows));
        assert!(!postgis.is_active(FaultId::MysqlOverlapsAxisOrder));

        let duckdb = EngineProfile::DuckdbSpatialLike.default_faults();
        assert!(duckdb.is_active(FaultId::GeosCoversPrecisionLoss));
        assert!(duckdb.is_active(FaultId::DuckdbCrashGeometryNZero));
        assert!(!duckdb.is_active(FaultId::PostgisGistIndexDropsRows));

        let mysql = EngineProfile::MysqlLike.default_faults();
        assert!(mysql.is_active(FaultId::MysqlCrossesLargeCoordinates));
        assert!(!mysql.is_active(FaultId::GeosCoversPrecisionLoss));

        let sqlserver = EngineProfile::SqlServerLike.default_faults();
        assert!(sqlserver.is_active(FaultId::SqlServerUnconfirmedWithinCollection));
        assert_eq!(sqlserver.len(), 2);
    }

    #[test]
    fn duplicate_reports_do_not_add_faults() {
        let postgis = EngineProfile::PostgisLike.default_faults();
        assert!(!postgis.is_active(FaultId::PostgisDuplicateCoversPrecision));
    }

    #[test]
    fn logic_fault_listing() {
        let mysql_logic = EngineProfile::MysqlLike.default_logic_faults();
        assert_eq!(mysql_logic.len(), 4);
    }
}
