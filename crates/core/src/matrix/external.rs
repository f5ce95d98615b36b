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

use crate::backend::{BackendError, BackendSpec, EngineBackend, EngineSession};
use spatter_sdb::server::{sanitize_line, Response};
use spatter_sdb::{EngineProfile, FaultId, FaultSet};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
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
            if faults.is_empty() {
                "none".to_string()
            } else {
                faults.to_names()
            },
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
    dialect: DialectSpec,
}

impl ExternalBackend {
    /// A backend speaking the given dialect.
    pub fn new(dialect: DialectSpec) -> Self {
        ExternalBackend { dialect }
    }

    /// The dialect this backend speaks.
    pub fn dialect(&self) -> &DialectSpec {
        &self.dialect
    }

    fn spawn(&self) -> Result<ExternalHandle, BackendError> {
        let mut command = Command::new(&self.dialect.command);
        command
            .args(&self.dialect.args)
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
                    self.dialect.command.display()
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
        if let Some(prefix) = &self.dialect.ready_prefix {
            loop {
                match handle.read_line() {
                    Some(line) if line.starts_with(prefix.as_str()) => break,
                    Some(_) => continue,
                    None => {
                        handle.shutdown();
                        return Err(transport_lost());
                    }
                }
            }
        }
        Ok(handle)
    }
}

impl EngineBackend for ExternalBackend {
    fn profile(&self) -> EngineProfile {
        self.dialect.profile
    }

    fn open_session(&self) -> Result<Box<dyn EngineSession>, BackendError> {
        let handle = self.spawn()?;
        Ok(Box::new(ExternalSession {
            backend: self.clone(),
            handle: Some(handle),
            setup: Vec::new(),
            engine_time: Duration::ZERO,
        }))
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
            dialect: self.dialect.clone(),
        })
    }
}

/// One live subprocess: pipes plus the child handle.
struct ExternalHandle {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl ExternalHandle {
    /// Reads one line, `None` on EOF or I/O failure (both mean the process
    /// is gone for our purposes).
    fn read_line(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) | Err(_) => None,
            Ok(_) => {
                while line.ends_with('\n') || line.ends_with('\r') {
                    line.pop();
                }
                Some(line)
            }
        }
    }

    fn send_line(&mut self, line: &str) -> Result<(), BackendError> {
        writeln!(self.stdin, "{line}")
            .and_then(|()| self.stdin.flush())
            .map_err(|_| transport_lost())
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
                    let Some(reply) = self.read_line() else {
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
    backend: ExternalBackend,
    handle: Option<ExternalHandle>,
    setup: Vec<String>,
    engine_time: Duration,
}

impl ExternalSession {
    fn request(&mut self, sql: &str) -> Result<Response, BackendError> {
        let started = Instant::now();
        let result = self.request_inner(sql);
        self.engine_time += started.elapsed();
        result
    }

    fn request_inner(&mut self, sql: &str) -> Result<Response, BackendError> {
        if self.handle.is_none() {
            let mut handle = self.backend.spawn()?;
            for statement in &self.setup {
                handle.request(&self.backend.dialect, statement)?;
            }
            self.handle = Some(handle);
        }
        let handle = self.handle.as_mut().expect("respawned above");
        match handle.request(&self.backend.dialect, sql) {
            Ok(response) => Ok(response),
            Err(error) => {
                if let Some(mut dead) = self.handle.take() {
                    dead.shutdown();
                }
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
