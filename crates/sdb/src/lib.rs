//! # spatter-sdb
//!
//! An in-process spatial SQL engine standing in for the four SDBMSs the paper
//! tests (PostGIS, MySQL GIS, DuckDB Spatial, SQL Server). The engine accepts
//! the statement shapes the paper's listings and query template use
//! (`CREATE TABLE`, `CREATE INDEX … USING GIST`, `INSERT`, `SET`,
//! `SELECT COUNT(*) FROM a JOIN b ON <predicate>`, scalar `SELECT`s with
//! geometry casts and `ST_*` functions) and evaluates them on top of the
//! shared geometry library (`spatter-geom` + `spatter-topo`, the "GEOS
//! analog") and the R-tree index (`spatter-index`, the GiST analog).
//!
//! Four [`profile::EngineProfile`]s model the tested systems: they differ in
//! which functions they support (`ST_Covers` only exists in the PostGIS-like
//! and DuckDB-like profiles), how strictly they validate geometries
//! (Listing 4's expected discrepancy), and which **seeded faults**
//! ([`faults`]) they carry. The fault registry reproduces the paper's bug
//! census — per-system counts of Table 2, the logic/crash split of Table 3,
//! the root-cause classes of §5.2 and the per-listing behaviours — so that
//! the Spatter tester and its baseline oracles can be evaluated against the
//! same detection problem the authors faced.

pub mod ast;
pub mod catalog;
pub mod coverage;
pub mod engine;
pub mod error;
pub mod faults;
pub mod functions;
pub mod lexer;
pub mod parse_cache;
pub mod parser;
pub mod profile;
pub mod server;
pub mod shape;
pub mod value;

pub use engine::{Engine, QueryResult};
pub use error::{SdbError, SdbResult};
pub use faults::{
    FaultCatalog, FaultId, FaultInfo, FaultKind, FaultSet, FaultStatus, FiredLog, TriggerClass,
};
pub use parse_cache::ParseCache;
pub use profile::EngineProfile;
pub use shape::Shape;
pub use value::Value;
