//! The engine-execution abstraction the oracles run through.
//!
//! The paper's evaluation (§5) points the same oracles at several real
//! engines (PostGIS, MySQL GIS, DuckDB Spatial, SQL Server). Mirroring that,
//! every oracle and the campaign runner drive an [`EngineBackend`] — a
//! factory of [`EngineSession`]s — instead of constructing
//! [`spatter_sdb::Engine`] values directly. A session is opened once per
//! scenario and reused across the whole per-iteration query batch, so
//! parsing and catalog setup are amortized instead of re-created per query
//! (engine execution dominates campaign wall time, Figure 7).
//!
//! Two backends ship:
//!
//! * [`InProcessBackend`] wraps the in-process engine and is behaviour- and
//!   determinism-identical to calling it directly (findings, skip counts and
//!   attribution are byte-equal at any worker count). It also carries a
//!   bounded statement parse cache shared between its sessions, so the
//!   identical setup statements that every oracle (and every attribution
//!   re-run) loads are lexed and parsed once per scenario instead of once
//!   per engine instance.
//! * [`StdioBackend`] drives the `spatter-sdb-server` binary over
//!   line-delimited SQL: the sdb-server [`DialectSpec`] of the external
//!   adapter ([`crate::matrix::ExternalBackend`]) plus the seeded faults it
//!   knows, so attribution works across the process boundary. Its sessions
//!   are the adapter's: when the server process dies mid-session (a *real*
//!   crash, not the simulated `ERR crash` reply), the session reports a
//!   [`BackendError::Transport`] failure for that query and transparently
//!   respawns the server — replaying its setup statements — before the next
//!   one, so a campaign shard survives an engine crash instead of losing the
//!   shard. A session does not start a process of its own: it takes an idle
//!   server from a pool the backend shares with its clones and
//!   `without_fault` variants, much as [`InProcessBackend`] shares its
//!   caches, and resets it to a fresh engine with the session's fault set
//!   (the server's `\reset` control line). A new server is spawned only
//!   when no idle one answers the reset.
//!
//! Errors carry a three-way taxonomy ([`BackendError`]) that
//! [`crate::oracles::OracleOutcome`] maps from in exactly one place (its
//! `From<BackendError>` impl): crashes and transport failures are findings,
//! semantic errors make a query inapplicable.

use crate::matrix::external::ServerPool;
use crate::matrix::DialectSpec;
use spatter_sdb::ast::Statement;
use spatter_sdb::parser::parse_statement;
use spatter_sdb::{Engine, EngineProfile, FaultId, FaultSet, SdbError};
use spatter_topo::RelateCache;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// Why a backend operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// The engine crashed (a simulated crash fault, or — for out-of-process
    /// backends — an abnormal reply tagged as a crash).
    Crash(String),
    /// The engine rejected the statement (parse/semantic/validation/
    /// unsupported-function errors). Never a finding: these are the expected
    /// discrepancies of §1.
    Semantic(String),
    /// The transport to the engine broke (the server process died, the pipe
    /// closed, a protocol frame was malformed). Treated like a crash by the
    /// oracles, since the engine stopped answering mid-query.
    Transport(String),
}

impl BackendError {
    /// Whether the error must abort the scenario for this query (crash or
    /// transport) rather than merely making the query inapplicable.
    pub fn is_fatal(&self) -> bool {
        !matches!(self, BackendError::Semantic(_))
    }

    /// The error message.
    pub fn message(&self) -> &str {
        match self {
            BackendError::Crash(m) | BackendError::Semantic(m) | BackendError::Transport(m) => m,
        }
    }
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Crash(m) => write!(f, "engine crash: {m}"),
            BackendError::Semantic(m) => write!(f, "semantic error: {m}"),
            BackendError::Transport(m) => write!(f, "transport failure: {m}"),
        }
    }
}

impl std::error::Error for BackendError {}

/// A plain-data description of how to construct a backend: the serializable
/// counterpart of the [`EngineBackend`] trait objects a campaign actually
/// runs. The distributed campaign subsystem ([`crate::dist`]) ships specs —
/// not backends — over its wire protocol, and every worker process rebuilds
/// an equivalent backend from the spec with [`BackendSpec::build`].
///
/// Backends that cannot be described this way (a future real-engine adapter
/// holding live connections, say) simply report no spec from
/// [`EngineBackend::wire_spec`] and are not usable in distributed campaigns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendSpec {
    /// An [`InProcessBackend`] of the given profile and fault set.
    InProcess {
        /// The engine profile.
        profile: EngineProfile,
        /// The seeded faults the engine carries.
        faults: FaultSet,
    },
    /// A [`StdioBackend`] driving the given server binary.
    Stdio {
        /// Path to the `spatter-sdb-server` binary.
        command: PathBuf,
        /// The engine profile.
        profile: EngineProfile,
        /// The seeded faults the server is launched with.
        faults: FaultSet,
        /// Whether the server is launched with `--hard-crash`.
        hard_crash: bool,
    },
    /// An [`crate::matrix::ExternalBackend`] driving an arbitrary
    /// SQL-speaking subprocess described by a
    /// [`crate::matrix::DialectSpec`].
    External {
        /// The dialect describing how to launch and talk to the engine.
        dialect: crate::matrix::DialectSpec,
    },
}

impl BackendSpec {
    /// Builds the backend this spec describes.
    pub fn build(&self) -> Arc<dyn EngineBackend> {
        self.build_boxed().into()
    }

    /// [`BackendSpec::build`] as a boxed trait object (the form
    /// [`crate::oracles::DifferentialOracle::against`] consumes).
    pub fn build_boxed(&self) -> Box<dyn EngineBackend> {
        match self {
            BackendSpec::InProcess { profile, faults } => {
                Box::new(InProcessBackend::new(*profile, faults.clone()))
            }
            BackendSpec::Stdio {
                command,
                profile,
                faults,
                hard_crash,
            } => Box::new(
                StdioBackend::new(command.clone(), *profile, faults.clone())
                    .with_hard_crash(*hard_crash),
            ),
            BackendSpec::External { dialect } => {
                Box::new(crate::matrix::ExternalBackend::new(dialect.clone()))
            }
        }
    }

    /// The profile of the backend the spec describes.
    pub fn profile(&self) -> EngineProfile {
        match self {
            BackendSpec::InProcess { profile, .. } | BackendSpec::Stdio { profile, .. } => *profile,
            BackendSpec::External { dialect } => dialect.profile,
        }
    }
}

/// One open engine session: a private database that lives for one scenario.
///
/// Object-safe so oracles can hold heterogeneous sessions (`Box<dyn
/// EngineSession>`) without knowing which backend produced them.
pub trait EngineSession {
    /// Loads a batch of setup statements (DDL/DML/SET), stopping at the
    /// first error.
    fn load(&mut self, statements: &[String]) -> Result<(), BackendError>;

    /// Runs a query expected to produce a single scalar count; `Ok(None)`
    /// when the query executed but did not produce one.
    fn run_count(&mut self, sql: &str) -> Result<Option<i64>, BackendError>;

    /// Runs a query and returns the first-column values of its result set,
    /// in engine row order.
    fn run_rows(&mut self, sql: &str) -> Result<Vec<String>, BackendError>;

    /// Cumulative time spent executing statements in the engine (the
    /// Figure 7 measurement). For out-of-process backends this is the
    /// request round-trip time.
    fn engine_time(&self) -> Duration;

    /// The seeded faults that took their divergent branch in this session
    /// so far, or `None` when that is unknown. A fault outside a known set
    /// influenced nothing the session did, so attribution need not re-run
    /// the session's work without it; `None` (the default, right for any
    /// engine that cannot report) makes attribution re-check every fault.
    fn fired_faults(&mut self) -> Option<FaultSet> {
        None
    }
}

/// A factory of engine sessions: one engine configuration (which system,
/// which seeded faults) that oracles can open scenario-scoped sessions
/// against.
pub trait EngineBackend: fmt::Debug + Send + Sync {
    /// The engine profile this backend models. Drives query generation (the
    /// documented `ST_*` surface) and display names; a real-engine adapter
    /// picks the profile that documents its surface.
    fn profile(&self) -> EngineProfile;

    /// Opens a fresh session with an empty database.
    fn open_session(&self) -> Result<Box<dyn EngineSession>, BackendError>;

    /// The seeded faults this backend carries — the candidate set the
    /// campaign's attribution step iterates over. Empty for engines whose
    /// faults are unknown (e.g. a real SDBMS), which disables attribution.
    fn fault_ids(&self) -> Vec<FaultId>;

    /// A variant of this backend with one fault disabled ("the fix
    /// applied"), used by attribution to find the fault responsible for a
    /// finding.
    fn without_fault(&self, fault: FaultId) -> Box<dyn EngineBackend>;

    /// Display name used in finding descriptions.
    fn name(&self) -> String {
        self.profile().name().to_string()
    }

    /// Whether the engine documents a given `ST_*` function.
    fn supports_function(&self, function: &str) -> bool {
        self.profile().supports_function(function)
    }

    /// The serializable [`BackendSpec`] describing this backend, if one
    /// exists. Distributed campaigns ([`crate::dist`]) require it — a worker
    /// process rebuilds the backend from the spec — so backends that cannot
    /// be described as plain data return `None` and are rejected by the
    /// distributed supervisor with a structured error.
    fn wire_spec(&self) -> Option<BackendSpec> {
        None
    }
}

// ---------------------------------------------------------------------------
// In-process backend
// ---------------------------------------------------------------------------

/// Entries kept in the shared parse cache before it is reset; bounds memory
/// over long campaigns (each iteration's INSERTs are unique statements) while
/// still amortizing every within-scenario reload.
const PARSE_CACHE_CAPACITY: usize = 4096;

/// What every session of an [`InProcessBackend`] and of its `without_fault`
/// variants shares: parsed statements, and the relate memo. Both are
/// fault-independent (parsing never consults a fault, and `spatter-topo` has
/// no fault hooks), so sharing them changes no result.
#[derive(Debug, Default)]
struct SharedCaches {
    statements: Mutex<HashMap<String, Arc<Statement>>>,
    /// Filled by the first `open_session`, so building a backend allocates
    /// no memo.
    relate: OnceLock<Arc<RelateCache>>,
}

type ParseCache = Arc<SharedCaches>;

/// Locks the parse cache, recovering it from poisoning: it only holds
/// immutable parsed statements, so a panic on another thread while the lock
/// was held cannot have left it inconsistent, and one panic must not kill
/// every later session.
fn lock_cache(cache: &ParseCache) -> MutexGuard<'_, HashMap<String, Arc<Statement>>> {
    cache
        .statements
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// The default backend: [`spatter_sdb::Engine`] in this process.
#[derive(Debug, Clone)]
pub struct InProcessBackend {
    profile: EngineProfile,
    faults: FaultSet,
    /// Shared across this backend's sessions (and its `without_fault`
    /// attribution variants).
    parse_cache: ParseCache,
}

impl InProcessBackend {
    /// A backend with an explicit fault set.
    pub fn new(profile: EngineProfile, faults: FaultSet) -> Self {
        InProcessBackend {
            profile,
            faults,
            parse_cache: ParseCache::default(),
        }
    }

    /// The stock engine of a profile (its default seeded faults — the
    /// "released version" the paper tested).
    pub fn stock(profile: EngineProfile) -> Self {
        InProcessBackend::new(profile, profile.default_faults())
    }

    /// The fault-free reference engine ("fully patched").
    pub fn reference(profile: EngineProfile) -> Self {
        InProcessBackend::new(profile, FaultSet::none())
    }

    /// The enabled faults.
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// Number of statements currently held by the shared parse cache
    /// (observable so tests can assert the load path parses once).
    pub fn cached_statements(&self) -> usize {
        lock_cache(&self.parse_cache).len()
    }
}

impl EngineBackend for InProcessBackend {
    fn profile(&self) -> EngineProfile {
        self.profile
    }

    fn open_session(&self) -> Result<Box<dyn EngineSession>, BackendError> {
        let relate = self.parse_cache.relate.get_or_init(Arc::default);
        Ok(Box::new(InProcessSession {
            engine: Engine::with_relate_cache(
                self.profile,
                self.faults.clone(),
                Arc::clone(relate),
            ),
            parse_cache: Arc::clone(&self.parse_cache),
        }))
    }

    fn fault_ids(&self) -> Vec<FaultId> {
        self.faults.iter().collect()
    }

    fn without_fault(&self, fault: FaultId) -> Box<dyn EngineBackend> {
        let mut reduced = self.clone();
        reduced.faults.disable(fault);
        Box::new(reduced)
    }

    fn wire_spec(&self) -> Option<BackendSpec> {
        Some(BackendSpec::InProcess {
            profile: self.profile,
            faults: self.faults.clone(),
        })
    }
}

struct InProcessSession {
    engine: Engine,
    parse_cache: ParseCache,
}

impl InProcessSession {
    /// Executes one statement, parsing it at most once per cache lifetime:
    /// every oracle of a suite (and every attribution re-run) loads the same
    /// scenario SQL, so the lexer/parser work is shared instead of repeated
    /// per engine instance. The backend (and thus the cache) is shared by
    /// every worker shard, so the critical section is kept to a hash lookup
    /// plus an `Arc` bump — statements are never cloned or executed under
    /// the lock.
    fn execute_cached(&mut self, sql: &str) -> Result<spatter_sdb::QueryResult, BackendError> {
        let cached = lock_cache(&self.parse_cache).get(sql).cloned();
        let statement = match cached {
            Some(statement) => statement,
            None => {
                let statement = Arc::new(parse_statement(sql).map_err(map_sdb_error)?);
                let mut cache = lock_cache(&self.parse_cache);
                if cache.len() >= PARSE_CACHE_CAPACITY {
                    cache.clear();
                }
                cache.insert(sql.to_string(), Arc::clone(&statement));
                statement
            }
        };
        self.engine
            .execute_parsed(&statement)
            .map_err(map_sdb_error)
    }
}

impl EngineSession for InProcessSession {
    fn load(&mut self, statements: &[String]) -> Result<(), BackendError> {
        for statement in statements {
            self.execute_cached(statement)?;
        }
        Ok(())
    }

    fn run_count(&mut self, sql: &str) -> Result<Option<i64>, BackendError> {
        Ok(self.execute_cached(sql)?.count())
    }

    fn run_rows(&mut self, sql: &str) -> Result<Vec<String>, BackendError> {
        Ok(self
            .execute_cached(sql)?
            .rows
            .iter()
            .filter_map(|row| row.first())
            .map(|value| value.to_string())
            .collect())
    }

    fn engine_time(&self) -> Duration {
        self.engine.execution_stats().0
    }

    fn fired_faults(&mut self) -> Option<FaultSet> {
        Some(self.engine.fired_faults())
    }
}

fn map_sdb_error(error: SdbError) -> BackendError {
    match error {
        SdbError::Crash(message) => BackendError::Crash(message),
        other => BackendError::Semantic(other.to_string()),
    }
}

// ---------------------------------------------------------------------------
// Stdio backend
// ---------------------------------------------------------------------------

/// A backend that drives a `spatter-sdb-server` process over stdio: the
/// sdb-server dialect of [`crate::matrix::ExternalBackend`], plus the fault
/// set its sessions' servers are reset to — which is what lets attribution
/// disable one fault at a time ([`EngineBackend::without_fault`]). Clones
/// and `without_fault` variants share one pool of servers; building a
/// backend spawns none.
#[derive(Debug, Clone)]
pub struct StdioBackend {
    faults: FaultSet,
    hard_crash: bool,
    /// Shared by every clone and `without_fault` variant. Its servers
    /// launch with no faults: a session resets its server to `faults`
    /// before using it, so the launch set never reaches a session.
    pool: Arc<ServerPool>,
}

impl StdioBackend {
    /// A backend spawning `command` with an explicit fault set.
    pub fn new(command: impl Into<PathBuf>, profile: EngineProfile, faults: FaultSet) -> Self {
        let dialect = DialectSpec::sdb_server(command, profile, FaultSet::none(), false);
        StdioBackend {
            faults,
            hard_crash: false,
            pool: Arc::new(ServerPool::new(dialect)),
        }
    }

    /// The stock engine of a profile.
    pub fn stock(command: impl Into<PathBuf>, profile: EngineProfile) -> Self {
        StdioBackend::new(command, profile, profile.default_faults())
    }

    /// Launches the server with `--hard-crash`: simulated crashes terminate
    /// the server process instead of replying, exercising the
    /// transport-failure recovery path.
    pub fn with_hard_crash(mut self, hard_crash: bool) -> Self {
        let dialect =
            DialectSpec::sdb_server(self.command(), self.profile(), FaultSet::none(), hard_crash);
        self.hard_crash = hard_crash;
        self.pool = Arc::new(ServerPool::new(dialect));
        self
    }

    /// The server binary this backend spawns.
    pub fn command(&self) -> &Path {
        &self.pool.dialect().command
    }
}

impl EngineBackend for StdioBackend {
    fn profile(&self) -> EngineProfile {
        self.pool.dialect().profile
    }

    fn open_session(&self) -> Result<Box<dyn EngineSession>, BackendError> {
        self.pool.open_session(&self.faults)
    }

    fn fault_ids(&self) -> Vec<FaultId> {
        self.faults.iter().collect()
    }

    fn without_fault(&self, fault: FaultId) -> Box<dyn EngineBackend> {
        let mut reduced = self.clone();
        reduced.faults.disable(fault);
        Box::new(reduced)
    }

    fn wire_spec(&self) -> Option<BackendSpec> {
        Some(BackendSpec::Stdio {
            command: self.command().to_path_buf(),
            profile: self.profile(),
            faults: self.faults.clone(),
            hard_crash: self.hard_crash,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded_session(backend: &dyn EngineBackend) -> Box<dyn EngineSession> {
        let mut session = backend.open_session().expect("open");
        session
            .load(&[
                "CREATE TABLE t (g geometry)".to_string(),
                "INSERT INTO t (g) VALUES ('POINT(0 0)'), ('POINT(3 4)')".to_string(),
            ])
            .expect("load");
        session
    }

    #[test]
    fn in_process_sessions_run_counts_and_rows() {
        let backend = InProcessBackend::reference(EngineProfile::PostgisLike);
        let mut session = loaded_session(&backend);
        assert_eq!(
            session.run_count("SELECT COUNT(*) FROM t a JOIN t b ON ST_DWithin(a.g, b.g, 5)"),
            Ok(Some(4))
        );
        assert_eq!(
            session.run_rows(
                "SELECT ST_AsText(a.g) FROM t a \
                 ORDER BY ST_Distance(a.g, 'POINT(0 0)'::geometry) LIMIT 1"
            ),
            Ok(vec!["POINT(0 0)".to_string()])
        );
        // A non-count result observed through run_count is None, not an error.
        assert_eq!(
            session.run_count("SELECT ST_AsText(a.g) FROM t a"),
            Ok(None)
        );
        assert!(session.engine_time() > Duration::ZERO);
    }

    #[test]
    fn in_process_errors_follow_the_taxonomy() {
        let backend = InProcessBackend::reference(EngineProfile::PostgisLike);
        let mut session = backend.open_session().unwrap();
        let semantic = session
            .run_count("SELECT COUNT(*) FROM missing a JOIN missing b ON ST_Intersects(a.g, b.g)")
            .unwrap_err();
        assert!(matches!(semantic, BackendError::Semantic(_)));
        assert!(!semantic.is_fatal());

        let backend = InProcessBackend::new(
            EngineProfile::MysqlLike,
            FaultSet::with([FaultId::GeosCrashRelateShortRing]),
        );
        let mut session = backend.open_session().unwrap();
        session
            .load(&[
                "CREATE TABLE t (g geometry)".to_string(),
                "INSERT INTO t (g) VALUES ('POLYGON((0 0,1 1,0 0))'), ('POINT(0 0)')".to_string(),
            ])
            .unwrap();
        let crash = session
            .run_count("SELECT COUNT(*) FROM t a JOIN t b ON ST_Intersects(a.g, b.g)")
            .unwrap_err();
        assert!(matches!(crash, BackendError::Crash(_)));
        assert!(crash.is_fatal());
    }

    #[test]
    fn parse_cache_is_shared_across_sessions_and_fault_variants() {
        let backend = InProcessBackend::stock(EngineProfile::PostgisLike);
        let statements = vec![
            "CREATE TABLE t (g geometry)".to_string(),
            "INSERT INTO t (g) VALUES ('POINT(1 2)')".to_string(),
        ];
        let mut first = backend.open_session().unwrap();
        first.load(&statements).unwrap();
        assert_eq!(backend.cached_statements(), 2);

        // A second session and an attribution variant replay the same SQL
        // without growing the cache: each statement was parsed exactly once.
        let mut second = backend.open_session().unwrap();
        second.load(&statements).unwrap();
        let reduced = backend.without_fault(FaultId::GeosCoversPrecisionLoss);
        let mut third = reduced.open_session().unwrap();
        third.load(&statements).unwrap();
        assert_eq!(backend.cached_statements(), 2);
    }

    #[test]
    fn the_relate_memo_is_made_by_the_first_session_and_shared() {
        let backend = InProcessBackend::stock(EngineProfile::PostgisLike);
        assert!(backend.parse_cache.relate.get().is_none());
        let reduced = backend.without_fault(FaultId::GeosCoversPrecisionLoss);
        let query = "SELECT COUNT(*) FROM t a JOIN t b ON ST_Intersects(a.g, b.g)";
        let mut first = loaded_session(&backend);
        assert_eq!(first.run_count(query), Ok(Some(2)));
        let memo = Arc::clone(
            backend
                .parse_cache
                .relate
                .get()
                .expect("made by the session"),
        );
        let related = memo.len();
        assert!(related > 0);

        // Another session and an attribution variant relate the same pairs
        // through the same memo, adding no entry.
        let mut second = loaded_session(reduced.as_ref());
        assert_eq!(second.run_count(query), Ok(Some(2)));
        assert_eq!(memo.len(), related);
    }

    /// Listing 1: the seeded `GeosCoversPrecisionLoss` drops the pair.
    fn listing1_session(backend: &dyn EngineBackend) -> Box<dyn EngineSession> {
        let mut session = backend.open_session().unwrap();
        session
            .load(&[
                "CREATE TABLE t1 (g geometry)".to_string(),
                "CREATE TABLE t2 (g geometry)".to_string(),
                "INSERT INTO t1 (g) VALUES ('LINESTRING(0 1,2 0)')".to_string(),
                "INSERT INTO t2 (g) VALUES ('POINT(0.2 0.9)')".to_string(),
            ])
            .unwrap();
        session
    }

    const LISTING1_QUERY: &str = "SELECT COUNT(*) FROM t1 JOIN t2 ON ST_Covers(t1.g, t2.g)";

    #[test]
    fn interleaved_sessions_report_only_their_own_fired_faults() {
        let backend = InProcessBackend::stock(EngineProfile::PostgisLike);
        let mut covers = listing1_session(&backend);
        let mut plain = loaded_session(&backend);
        assert_eq!(plain.fired_faults(), Some(FaultSet::none()));
        assert_eq!(covers.run_count(LISTING1_QUERY), Ok(Some(0)));
        assert_eq!(
            plain.run_count("SELECT COUNT(*) FROM t a JOIN t b ON ST_DWithin(a.g, b.g, 5)"),
            Ok(Some(4))
        );
        assert_eq!(
            covers.fired_faults(),
            Some(FaultSet::with([FaultId::GeosCoversPrecisionLoss]))
        );
        assert_eq!(plain.fired_faults(), Some(FaultSet::none()));
    }

    #[test]
    fn a_session_without_the_fault_fires_nothing_on_listing1() {
        let backend = InProcessBackend::stock(EngineProfile::PostgisLike)
            .without_fault(FaultId::GeosCoversPrecisionLoss);
        let mut session = listing1_session(backend.as_ref());
        assert_eq!(session.run_count(LISTING1_QUERY), Ok(Some(1)));
        assert_eq!(session.fired_faults(), Some(FaultSet::none()));
    }

    #[test]
    fn without_fault_disables_exactly_one_fault() {
        let backend = InProcessBackend::stock(EngineProfile::PostgisLike);
        let all = backend.fault_ids();
        let reduced = backend.without_fault(all[0]);
        let reduced_ids = reduced.fault_ids();
        assert_eq!(reduced_ids.len(), all.len() - 1);
        assert!(!reduced_ids.contains(&all[0]));
        // The original is untouched.
        assert_eq!(backend.fault_ids(), all);
    }

    #[test]
    fn wire_specs_round_trip_through_build() {
        let in_process = InProcessBackend::stock(EngineProfile::MysqlLike);
        let spec = in_process.wire_spec().expect("in-process specs exist");
        assert_eq!(
            spec,
            BackendSpec::InProcess {
                profile: EngineProfile::MysqlLike,
                faults: EngineProfile::MysqlLike.default_faults(),
            }
        );
        // Building from the spec reproduces the spec: the description is a
        // fixed point, which is what lets a worker process rebuild an
        // equivalent backend.
        assert_eq!(spec.build().wire_spec(), Some(spec.clone()));
        assert_eq!(spec.profile(), EngineProfile::MysqlLike);

        let stdio = StdioBackend::new(
            "/some/server",
            EngineProfile::PostgisLike,
            FaultSet::with([FaultId::GeosCoversPrecisionLoss]),
        )
        .with_hard_crash(true);
        let spec = stdio.wire_spec().expect("stdio specs exist");
        assert_eq!(spec.build().wire_spec(), Some(spec.clone()));
        assert_eq!(spec.build_boxed().wire_spec(), Some(spec));
    }

    #[test]
    fn backend_trait_objects_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn EngineBackend>();
        assert_send_sync::<InProcessBackend>();
        assert_send_sync::<StdioBackend>();
    }

    #[test]
    fn a_poisoned_parse_cache_does_not_kill_later_sessions() {
        let backend = InProcessBackend::reference(EngineProfile::PostgisLike);
        let cache = Arc::clone(&backend.parse_cache);
        let panicked = std::thread::spawn(move || {
            let _guard = cache.statements.lock().unwrap();
            panic!("a panic while the parse cache is locked");
        })
        .join();
        assert!(panicked.is_err());
        assert!(backend.parse_cache.statements.is_poisoned());

        let mut session = loaded_session(&backend);
        assert_eq!(
            session.run_count("SELECT COUNT(*) FROM t a JOIN t b ON ST_DWithin(a.g, b.g, 5)"),
            Ok(Some(4))
        );
        assert_eq!(backend.cached_statements(), 3);
    }
}
