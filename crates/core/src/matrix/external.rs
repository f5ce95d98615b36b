//! The external-engine adapter: an [`EngineBackend`] over any SQL-speaking
//! subprocess, described entirely by plain data.
//!
//! This module owns the one subprocess session of the workspace: "drive a
//! process over line-delimited SQL" is captured by a [`DialectSpec`] — how
//! to launch the process, how to know it is ready, how statements are
//! terminated, and how replies are parsed ([`ReplyGrammar`]). The
//! differential matrix points the oracle suite at engines the harness does
//! not control (a real PostGIS behind `psql`, say) through it, and
//! [`StdioBackend`](crate::backend::StdioBackend) is the sdb-server dialect
//! plus the seeded faults it knows. Two grammars ship:
//!
//! * [`ReplyGrammar::SdbServer`] — the native `spatter-sdb-server` reply
//!   protocol, reusing the server crate's own parser. An [`ExternalBackend`]
//!   wrapping the server binary runs the exact sessions of a
//!   [`StdioBackend`](crate::backend::StdioBackend) of the same
//!   configuration; it only differs in knowing no faults.
//! * [`ReplyGrammar::Sentinel`] — the `psql`-shaped grammar: after each
//!   statement an echo command is sent whose output (the *done marker*)
//!   delimits the reply; any reply line starting with a configured error
//!   prefix classifies the statement as failed (and optionally as a crash).
//!   [`DialectSpec::postgis_from_env`] builds this dialect from the
//!   `SPATTER_PG_CMD` environment variable — CI ships no PostGIS, so the
//!   real-engine cell is env-gated and absent by default.
//!
//! An external engine's faults are unknown by definition, so
//! [`ExternalBackend::fault_ids`] is empty: campaign attribution is disabled
//! for external cells (real-engine semantics), exactly as documented on
//! [`EngineBackend::fault_ids`]. A dead subprocess surfaces the canonical
//! transport error and is lazily respawned with its setup script replayed.
//!
//! Where a session's processes come from depends on its backend. An
//! [`ExternalBackend`] spawns a new process for every session and kills it
//! when the session ends. A [`StdioBackend`](crate::backend::StdioBackend)
//! takes `spatter-sdb-server` processes from a [`ServerPool`] it shares
//! with its clones and `without_fault` variants: a session sends an idle
//! server the `\reset` control line with its own fault set and uses it only
//! if the reply is exactly `READY <profile>`; otherwise it kills that
//! server and tries the next, spawning one when none is left. When the
//! session ends, a live server goes back to the pool; one lost to a failed
//! request was killed already and is never returned.
//!
//! Sessions speaking [`ReplyGrammar::SdbServer`] also report the server's
//! fired faults ([`EngineSession::fired_faults`]): asked for them, a session
//! sends the server's [`FIRED_REQUEST`] control line and returns the parsed
//! answer. A session whose server died at any point, whose answer does not
//! parse, or that speaks another grammar reports them unknown (`None`).

use crate::backend::{BackendError, BackendSpec, EngineBackend, EngineSession};
use spatter_sdb::server::{
    fault_spec, read_fired, read_frame, read_ready, sanitize_line, Response, FIRED_REQUEST,
    RESET_REQUEST,
};
use spatter_sdb::{EngineProfile, FaultId, FaultSet};
use std::io::{BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How an external engine's replies are parsed back into the backend
/// taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplyGrammar {
    /// The native `spatter-sdb-server` reply protocol (`OK` / `ROWS` /
    /// `ERR`), parsed by the server crate's own [`Response::read_from`].
    SdbServer,
    /// A sentinel-delimited grammar for engines whose shells echo on
    /// request (`psql`-shaped): after every statement, `echo_command` is
    /// sent and reply lines are collected until `done_marker` appears on a
    /// line of its own.
    Sentinel {
        /// The shell command whose output is the done marker (for `psql`:
        /// `\echo SPATTER_DONE`).
        echo_command: String,
        /// The exact line that terminates a reply.
        done_marker: String,
        /// Prefixes classifying a reply line as an error; the flag marks
        /// prefixes that indicate a crashed/broken session rather than a
        /// semantic rejection.
        error_prefixes: Vec<(String, bool)>,
    },
}

/// A plain-data description of an external SQL-speaking engine: how to
/// launch it, how to detect readiness, and how to talk to it. The
/// serializable heart of [`ExternalBackend`] — specs travel over the
/// distributed wire codec so matrix cells can ride the fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DialectSpec {
    /// Display name used in finding descriptions and matrix reports.
    pub name: String,
    /// The engine executable.
    pub command: PathBuf,
    /// Arguments passed at launch.
    pub args: Vec<String>,
    /// The profile documenting the engine's `ST_*` surface (drives query
    /// generation for campaigns using this backend as the engine under
    /// test).
    pub profile: EngineProfile,
    /// When `Some`, startup lines are consumed until one starts with this
    /// prefix; the engine is not spoken to before then. `None` means the
    /// engine is ready as soon as it is spawned.
    pub ready_prefix: Option<String>,
    /// Appended to statements that do not already end with it (empty for
    /// engines that take one bare statement per line).
    pub terminator: String,
    /// The reply grammar.
    pub grammar: ReplyGrammar,
}

impl DialectSpec {
    /// The `spatter-sdb-server` dialect: the launch configuration every
    /// [`crate::backend::StdioBackend`] session uses, and the hermetic
    /// self-test dialect of the matrix — matrix plumbing is exercised with
    /// no external engine installed.
    pub fn sdb_server(
        command: impl Into<PathBuf>,
        profile: EngineProfile,
        faults: FaultSet,
        hard_crash: bool,
    ) -> Self {
        let mut args = vec![
            "--profile".to_string(),
            profile.name().to_string(),
            "--faults".to_string(),
            fault_spec(&faults),
        ];
        if hard_crash {
            args.push("--hard-crash".to_string());
        }
        DialectSpec {
            name: format!("sdb-server:{}", profile.name()),
            command: command.into(),
            args,
            profile,
            ready_prefix: Some("READY".to_string()),
            terminator: String::new(),
            grammar: ReplyGrammar::SdbServer,
        }
    }

    /// The real-PostGIS dialect, gated on the `SPATTER_PG_CMD` environment
    /// variable (a `psql` command line with connection flags, split on
    /// whitespace). Returns `None` when the variable is unset or empty — CI
    /// ships no PostGIS, so the matrix simply has no real-engine cell there.
    pub fn postgis_from_env() -> Option<Self> {
        let raw = std::env::var("SPATTER_PG_CMD").ok()?;
        let mut tokens = raw.split_whitespace().map(str::to_string);
        let command = PathBuf::from(tokens.next()?);
        let mut args: Vec<String> = tokens.collect();
        // Quiet, tuples-only, unaligned, no psqlrc: replies are bare value
        // lines, which is what the sentinel grammar parses.
        args.extend(["-q", "-t", "-A", "-X"].map(str::to_string));
        Some(DialectSpec {
            name: "postgis".to_string(),
            command,
            args,
            profile: EngineProfile::PostgisLike,
            ready_prefix: None,
            terminator: ";".to_string(),
            grammar: ReplyGrammar::Sentinel {
                echo_command: "\\echo SPATTER_DONE".to_string(),
                done_marker: "SPATTER_DONE".to_string(),
                error_prefixes: vec![
                    ("ERROR:".to_string(), false),
                    ("FATAL:".to_string(), true),
                    ("PANIC:".to_string(), true),
                    ("server closed the connection".to_string(), true),
                ],
            },
        })
    }
}

/// An [`EngineBackend`] over the subprocess a [`DialectSpec`] describes.
#[derive(Debug, Clone)]
pub struct ExternalBackend {
    dialect: Arc<DialectSpec>,
}

impl ExternalBackend {
    /// A backend speaking the given dialect.
    pub fn new(dialect: DialectSpec) -> Self {
        ExternalBackend {
            dialect: Arc::new(dialect),
        }
    }

    /// The dialect this backend speaks.
    pub fn dialect(&self) -> &DialectSpec {
        &self.dialect
    }
}

/// Launches the process `dialect` describes and waits for its ready line.
fn spawn(dialect: &DialectSpec) -> Result<ExternalHandle, BackendError> {
    let mut command = Command::new(&dialect.command);
    command
        .args(&dialect.args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    // A binary that does not exist or cannot be executed is a harness
    // misconfiguration (wrong path, unbuilt server), not evidence about
    // the engine under test: surfacing it as a `Transport` error would
    // flood a campaign report with bogus crash findings, so it aborts
    // loudly. Any other failure here — a transient spawn error (EAGAIN,
    // fd exhaustion under process churn) or an engine dying before its
    // ready line (OOM-killed, signalled) — goes through the canonical
    // transport error so finding descriptions stay byte-identical across
    // worker counts and reruns, and the respawn path gets to retry.
    let mut child = match command.spawn() {
        Ok(child) => child,
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::NotFound | std::io::ErrorKind::PermissionDenied
            ) =>
        {
            panic!(
                "cannot spawn engine {}: {e} — backend misconfigured \
                 (build the engine binary and check the command path)",
                dialect.command.display()
            )
        }
        Err(_) => return Err(transport_lost()),
    };
    let stdin = child.stdin.take().expect("stdin piped");
    let stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut handle = ExternalHandle {
        child,
        stdin,
        stdout,
    };
    if let Some(prefix) = &dialect.ready_prefix {
        loop {
            match read_frame(&mut handle.stdout) {
                Ok(Some(line)) if line.starts_with(prefix.as_str()) => break,
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => {
                    handle.shutdown();
                    return Err(transport_lost());
                }
            }
        }
    }
    Ok(handle)
}

impl EngineBackend for ExternalBackend {
    fn profile(&self) -> EngineProfile {
        self.dialect.profile
    }

    fn open_session(&self) -> Result<Box<dyn EngineSession>, BackendError> {
        ExternalSession::open(Servers::Spawn(Arc::clone(&self.dialect)))
    }

    /// Empty: an external engine's faults are unknown, so campaign
    /// attribution is a no-op for cells driven through this adapter.
    fn fault_ids(&self) -> Vec<FaultId> {
        Vec::new()
    }

    /// With no known faults there is nothing to disable; attribution never
    /// calls this (it iterates [`EngineBackend::fault_ids`]), but the
    /// contract still wants an equivalent backend.
    fn without_fault(&self, _fault: FaultId) -> Box<dyn EngineBackend> {
        Box::new(self.clone())
    }

    fn name(&self) -> String {
        self.dialect.name.clone()
    }

    fn wire_spec(&self) -> Option<BackendSpec> {
        Some(BackendSpec::External {
            dialect: DialectSpec::clone(&self.dialect),
        })
    }
}

/// The `spatter-sdb-server` processes of one
/// [`StdioBackend`](crate::backend::StdioBackend), shared by all its clones
/// and `without_fault` variants (the fault set travels with the `\reset`).
/// It spawns nothing until a session needs a server and keeps every live
/// server that comes back, so it never holds more servers than were once in
/// use at the same time (an AEI check holds two sessions per worker thread:
/// the original and the transformed database). It kills and reaps every
/// idle server when the last backend holding it drops.
#[derive(Debug)]
pub(crate) struct ServerPool {
    /// How to launch a server: built once, for every session.
    dialect: DialectSpec,
    /// Live servers no session holds, each answered its last request.
    idle: Mutex<Vec<ExternalHandle>>,
}

impl ServerPool {
    /// An empty pool of servers launched as `dialect` says (an sdb-server
    /// dialect, see [`DialectSpec::sdb_server`]).
    pub(crate) fn new(dialect: DialectSpec) -> Self {
        ServerPool {
            dialect,
            idle: Mutex::new(Vec::new()),
        }
    }

    /// How the pool launches its servers.
    pub(crate) fn dialect(&self) -> &DialectSpec {
        &self.dialect
    }

    /// Opens a session whose servers come from this pool, each reset to an
    /// engine with `faults` before the session uses it.
    pub(crate) fn open_session(
        self: &Arc<Self>,
        faults: &FaultSet,
    ) -> Result<Box<dyn EngineSession>, BackendError> {
        ExternalSession::open(Servers::Pool {
            pool: Arc::clone(self),
            reset: format!("{RESET_REQUEST} {}", fault_spec(faults)),
        })
    }

    /// The number of idle servers.
    #[cfg(test)]
    fn idle(&self) -> usize {
        self.lock().len()
    }

    /// Locks the idle list, recovering it from poisoning: a panic elsewhere
    /// cannot leave a `Vec` of handles inconsistent.
    fn lock(&self) -> MutexGuard<'_, Vec<ExternalHandle>> {
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A server reset with `reset`: the first idle one that answers the
    /// reset exactly, or else a new one. Idle servers that fail the reset
    /// are killed on the way. The lock is held only to pop, never across
    /// the reset's I/O.
    fn take(&self, reset: &str) -> Result<ExternalHandle, BackendError> {
        loop {
            let idle = self.lock().pop();
            let Some(mut handle) = idle else { break };
            if handle.reset(reset, self.dialect.profile) {
                return Ok(handle);
            }
        }
        let mut handle = spawn(&self.dialect)?;
        if handle.reset(reset, self.dialect.profile) {
            Ok(handle)
        } else {
            Err(transport_lost())
        }
    }

    /// Keeps a live server for a later session.
    fn give_back(&self, handle: ExternalHandle) {
        self.lock().push(handle);
    }
}

/// One live subprocess: pipes plus the child handle.
#[derive(Debug)]
struct ExternalHandle {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl ExternalHandle {
    /// Sends `line` and its newline in one write.
    fn send_line(&mut self, line: &str) -> Result<(), BackendError> {
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        frame.push(b'\n');
        self.stdin.write_all(&frame).map_err(|_| transport_lost())
    }

    /// Sends a `\reset` line; whether the reply is exactly the `READY`
    /// frame of `profile`.
    fn reset(&mut self, line: &str, profile: EngineProfile) -> bool {
        self.send_line(line).is_ok() && read_ready(&mut self.stdout, profile)
    }

    /// One request/response round trip under the dialect's grammar. Any I/O
    /// or framing failure is the canonical transport error; the caller
    /// discards the handle.
    fn request(&mut self, dialect: &DialectSpec, sql: &str) -> Result<Response, BackendError> {
        let mut line = sanitize_line(sql);
        if line.trim().is_empty() {
            // Engines ignore blank input without replying (the sdb server
            // documents this; a bare terminator is a no-op for psql too), so
            // blocking for a reply would hang. Answer locally with the same
            // reply the in-process engine gives an empty statement.
            return Ok(Response::Error {
                crash: false,
                message: "parse error: empty statement".into(),
            });
        }
        if !dialect.terminator.is_empty() && !line.trim_end().ends_with(&dialect.terminator) {
            line.push_str(&dialect.terminator);
        }
        self.send_line(&line)?;
        match &dialect.grammar {
            ReplyGrammar::SdbServer => {
                Response::read_from(&mut self.stdout).map_err(|_| transport_lost())
            }
            ReplyGrammar::Sentinel {
                echo_command,
                done_marker,
                error_prefixes,
            } => {
                self.send_line(echo_command)?;
                let mut rows = Vec::new();
                let mut error: Option<(bool, String)> = None;
                loop {
                    let Ok(Some(reply)) = read_frame(&mut self.stdout) else {
                        return Err(transport_lost());
                    };
                    if reply == *done_marker {
                        break;
                    }
                    if error.is_none() {
                        if let Some((_, crash)) = error_prefixes
                            .iter()
                            .find(|(prefix, _)| reply.starts_with(prefix.as_str()))
                        {
                            error = Some((*crash, reply.clone()));
                            continue;
                        }
                    }
                    rows.push(reply);
                }
                match error {
                    Some((crash, message)) => Ok(Response::Error { crash, message }),
                    // A single numeric line is how count queries come back
                    // through tuples-only shells; anything else is a plain
                    // row set with no scalar count.
                    None => {
                        let count = match rows.as_slice() {
                            [single] => single.trim().parse::<i64>().ok(),
                            _ => None,
                        };
                        Ok(Response::Rows { rows, count })
                    }
                }
            }
        }
    }

    fn shutdown(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ExternalHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The canonical transport-failure error. The message is deliberately
/// constant: it feeds finding descriptions, which must be byte-identical
/// across worker counts regardless of whether the failure surfaced as a
/// broken pipe, an EOF, or a half-written frame.
fn transport_lost() -> BackendError {
    BackendError::Transport("engine process terminated".into())
}

/// Where a session's processes come from.
enum Servers {
    /// A new process each time, killed when the session is done with it.
    Spawn(Arc<DialectSpec>),
    /// `spatter-sdb-server` processes of a pool, each reset with the line
    /// `reset` before use; a live one goes back when the session ends.
    Pool {
        pool: Arc<ServerPool>,
        reset: String,
    },
}

impl Servers {
    fn dialect(&self) -> &DialectSpec {
        match self {
            Servers::Spawn(dialect) => dialect,
            Servers::Pool { pool, .. } => &pool.dialect,
        }
    }

    fn server(&self) -> Result<ExternalHandle, BackendError> {
        match self {
            Servers::Spawn(dialect) => spawn(dialect),
            Servers::Pool { pool, reset } => pool.take(reset),
        }
    }
}

/// A session over one subprocess: the one session behind both
/// [`ExternalBackend`] and [`StdioBackend`](crate::backend::StdioBackend).
/// It remembers its setup script so that when the process dies the next
/// request can respawn it and replay the setup — the query that hit the
/// dead process still reports its transport failure, but the shard keeps
/// its session instead of losing every remaining query. The script is
/// recorded statement by statement *before* each send and recording stops
/// at the first failure, so a respawned process replays exactly what the
/// dead one was asked to execute.
struct ExternalSession {
    servers: Servers,
    handle: Option<ExternalHandle>,
    setup: Vec<String>,
    engine_time: Duration,
    /// Whether a server process of this session died: its fired faults
    /// died with it.
    lost_process: bool,
}

impl ExternalSession {
    fn open(servers: Servers) -> Result<Box<dyn EngineSession>, BackendError> {
        let handle = servers.server()?;
        Ok(Box::new(ExternalSession {
            servers,
            handle: Some(handle),
            setup: Vec::new(),
            engine_time: Duration::ZERO,
            lost_process: false,
        }))
    }

    fn request(&mut self, sql: &str) -> Result<Response, BackendError> {
        let started = Instant::now();
        let result = self.request_inner(sql);
        self.engine_time += started.elapsed();
        result
    }

    fn request_inner(&mut self, sql: &str) -> Result<Response, BackendError> {
        if self.handle.is_none() {
            let mut handle = self.servers.server()?;
            for statement in &self.setup {
                handle.request(self.servers.dialect(), statement)?;
            }
            self.handle = Some(handle);
        }
        let handle = self.handle.as_mut().expect("respawned above");
        match handle.request(self.servers.dialect(), sql) {
            Ok(response) => Ok(response),
            Err(error) => {
                if let Some(mut dead) = self.handle.take() {
                    dead.shutdown();
                }
                self.lost_process = true;
                Err(error)
            }
        }
    }

    fn check(response: Response) -> Result<Response, BackendError> {
        match response {
            Response::Error {
                crash: true,
                message,
            } => Err(BackendError::Crash(message)),
            Response::Error {
                crash: false,
                message,
            } => Err(BackendError::Semantic(message)),
            other => Ok(other),
        }
    }
}

impl EngineSession for ExternalSession {
    fn load(&mut self, statements: &[String]) -> Result<(), BackendError> {
        for statement in statements {
            self.setup.push(statement.clone());
            Self::check(self.request(statement)?)?;
        }
        Ok(())
    }

    fn run_count(&mut self, sql: &str) -> Result<Option<i64>, BackendError> {
        match Self::check(self.request(sql)?)? {
            Response::Rows { count, .. } => Ok(count),
            _ => Ok(None),
        }
    }

    fn run_rows(&mut self, sql: &str) -> Result<Vec<String>, BackendError> {
        match Self::check(self.request(sql)?)? {
            Response::Rows { rows, .. } => Ok(rows),
            Response::None | Response::Effect(_) => Ok(Vec::new()),
            Response::Error { .. } => unreachable!("check() filtered errors"),
        }
    }

    fn engine_time(&self) -> Duration {
        self.engine_time
    }

    /// The faults the session's server fired, or `None` when that is not
    /// known: the dialect is not the sdb-server's, a server died (or never
    /// respawned), or its reply was lost or malformed.
    fn fired_faults(&mut self) -> Option<FaultSet> {
        if self.lost_process || self.servers.dialect().grammar != ReplyGrammar::SdbServer {
            return None;
        }
        let handle = self.handle.as_mut()?;
        let fired = handle
            .send_line(FIRED_REQUEST)
            .ok()
            .and_then(|()| read_fired(&mut handle.stdout));
        if fired.is_none() {
            // A server that did not answer in step is never pooled: drop it
            // (killing it), and the next request respawns one.
            self.handle = None;
            self.lost_process = true;
        }
        fired
    }
}

impl Drop for ExternalSession {
    /// A pooled session's live server goes back to its pool; any other
    /// handle is killed with the session.
    fn drop(&mut self) {
        if let (Servers::Pool { pool, .. }, Some(handle)) = (&self.servers, self.handle.take()) {
            pool.give_back(handle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sdb_server_dialect_mirrors_the_stdio_launch_configuration() {
        let spec = DialectSpec::sdb_server(
            "/bin/server",
            EngineProfile::MysqlLike,
            FaultSet::none(),
            true,
        );
        assert_eq!(
            spec.args,
            vec![
                "--profile",
                "mysql_like",
                "--faults",
                "none",
                "--hard-crash"
            ]
        );
        assert_eq!(spec.ready_prefix.as_deref(), Some("READY"));
        assert_eq!(spec.grammar, ReplyGrammar::SdbServer);
        assert!(spec.terminator.is_empty());
        let without = DialectSpec::sdb_server(
            "/bin/server",
            EngineProfile::MysqlLike,
            EngineProfile::MysqlLike.default_faults(),
            false,
        );
        assert!(!without.args.contains(&"--hard-crash".to_string()));
        assert!(!without.args.contains(&"none".to_string()));
    }

    #[test]
    fn external_backends_report_no_faults_and_a_wire_spec() {
        let dialect = DialectSpec::sdb_server(
            "/bin/server",
            EngineProfile::PostgisLike,
            FaultSet::none(),
            false,
        );
        let backend = ExternalBackend::new(dialect.clone());
        assert!(backend.fault_ids().is_empty());
        assert_eq!(backend.name(), "sdb-server:postgis_like");
        assert_eq!(backend.profile(), EngineProfile::PostgisLike);
        assert_eq!(backend.wire_spec(), Some(BackendSpec::External { dialect }));
        // without_fault yields an equivalent backend, never panics.
        let same = backend.without_fault(FaultId::GeosCoversPrecisionLoss);
        assert_eq!(same.wire_spec(), backend.wire_spec());
    }

    /// A pool of stand-in servers: each says `READY <reply>` at start and
    /// in answer to every line it reads.
    fn echo_pool(reply: &str) -> Arc<ServerPool> {
        let script =
            format!("echo 'READY {reply}'; while read -r line; do echo 'READY {reply}'; done");
        Arc::new(ServerPool::new(DialectSpec {
            name: "echo".to_string(),
            command: PathBuf::from("sh"),
            args: vec!["-c".to_string(), script],
            profile: EngineProfile::PostgisLike,
            ready_prefix: Some("READY".to_string()),
            terminator: String::new(),
            grammar: ReplyGrammar::SdbServer,
        }))
    }

    #[test]
    fn the_pool_reuses_every_live_server_that_comes_back() {
        let pool = echo_pool("postgis_like");
        assert_eq!(pool.idle(), 0, "building a pool spawns nothing");
        let sessions: Vec<_> = (0..3)
            .map(|_| pool.open_session(&FaultSet::none()).expect("open"))
            .collect();
        assert_eq!(pool.idle(), 0);
        drop(sessions);
        assert_eq!(pool.idle(), 3);
        let reused = pool.open_session(&FaultSet::none()).expect("open");
        assert_eq!(pool.idle(), 2);
        drop(reused);
        assert_eq!(pool.idle(), 3);
    }

    #[test]
    fn a_server_that_answers_fired_out_of_step_is_not_pooled() {
        // The stand-in answers `\fired` with a READY line, not a FIRED frame.
        let pool = echo_pool("postgis_like");
        let mut session = pool.open_session(&FaultSet::none()).expect("open");
        assert_eq!(session.fired_faults(), None);
        drop(session);
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn a_dead_idle_server_is_replaced_without_an_error() {
        let pool = echo_pool("postgis_like");
        drop(pool.open_session(&FaultSet::none()).expect("open"));
        {
            let mut idle = pool.lock();
            let dead = &mut idle[0].child;
            dead.kill().expect("kill");
            dead.wait().expect("reap");
        }
        let session = pool.open_session(&FaultSet::none()).expect("a new server");
        assert_eq!(pool.idle(), 0, "the dead server was dropped");
        drop(session);
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn a_server_that_answers_the_reset_with_another_frame_is_not_used() {
        // Its launch line passes the ready prefix, but its reset reply names
        // another profile: neither an idle nor a new such server is used.
        let pool = echo_pool("mysql_like");
        let open = pool.open_session(&FaultSet::none()).map(|_| ());
        assert_eq!(open, Err(transport_lost()));
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn a_missing_engine_binary_is_a_misconfiguration_panic() {
        // A binary that cannot be spawned at all is harness misconfiguration,
        // not an engine crash: it must abort instead of flooding a campaign
        // report with bogus per-scenario crash findings. Both subprocess
        // backends reach the one spawn path.
        let command = "/nonexistent/spatter-sdb-server";
        let backends: [Box<dyn EngineBackend>; 2] = [
            Box::new(crate::backend::StdioBackend::stock(
                command,
                EngineProfile::PostgisLike,
            )),
            Box::new(ExternalBackend::new(DialectSpec::sdb_server(
                command,
                EngineProfile::PostgisLike,
                FaultSet::none(),
                false,
            ))),
        ];
        for backend in backends {
            let open = std::panic::AssertUnwindSafe(|| backend.open_session().map(|_| ()));
            let panic = std::panic::catch_unwind(open).expect_err("opening a session must panic");
            let message = panic
                .downcast_ref::<String>()
                .expect("formatted panic message");
            assert!(message.contains("backend misconfigured"), "{message}");
        }
    }
}
