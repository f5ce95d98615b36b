//! The SQL-over-stdio server: the wire protocol and serve loop behind the
//! `spatter-sdb-server` binary.
//!
//! The server turns the in-process [`Engine`] into something that looks like
//! a real, separate SDBMS process: line-delimited SQL statements arrive on
//! stdin and tagged result/error lines leave on stdout. The
//! `spatter_core::backend::StdioBackend` drives it as an out-of-process
//! engine, which (1) proves the `EngineBackend` abstraction supports engines
//! the tester does not link against, and (2) lets a testing campaign survive
//! an engine crash by respawning the process instead of losing the shard.
//!
//! # Protocol
//!
//! One statement per input line (the SQL dialect never contains newlines —
//! WKT literals are single-line). Responses:
//!
//! ```text
//! READY <profile>          -- handshake at startup, and the reply to a reset
//! OK                       -- statement executed, no rows, no mutation effect
//! OK UPDATE <n>            -- UPDATE touched n rows
//! OK DELETE <n>            -- DELETE removed n rows
//! OK DROP-INDEX            -- DROP INDEX removed an index
//! OK DROP-TABLE            -- DROP TABLE removed a table
//! ROWS <n> <count|->       -- result set header, followed by n lines:
//! ROW <first-column-text>
//! ERR crash <message>      -- a (simulated) engine crash
//! ERR error <message>      -- any non-crash engine error
//! ```
//!
//! The `OK <kind> [<n>]` grammar is pinned: `<kind>` is one of the four
//! tokens above, `<n>` is a decimal row count present exactly for `UPDATE`
//! and `DELETE`, and setup statements that carry no mutation effect
//! (`CREATE ...`, `INSERT`, `SET`) keep replying bare `OK`, so pre-mutation
//! clients and servers interoperate on load-once workloads. Replies are
//! newline-terminated frames; a frame truncated anywhere before its final
//! newline decodes as a transport error, never as a shorter valid reply
//! (`OK UPDATE 3` cut to `OK` must not read as a bare success). A reply
//! that fits the server's 8 KiB output buffer leaves it in one write,
//! however many lines it has.
//!
//! Only the first column of each row is transmitted: the oracle layer
//! observes either a `COUNT(*)` scalar or the `ST_AsText` column of a KNN
//! result, so this is lossless for every query template while keeping the
//! framing trivial. The header's second field carries the server-side
//! [`QueryResult::count`] (`-` when the result is not a single scalar
//! count), so clients observe exactly the count semantics of the in-process
//! engine instead of re-deriving them from the transmitted columns.
//!
//! In `--hard-crash` mode a simulated crash terminates the server process
//! (exit code 101) instead of replying `ERR crash`, modelling a real DBMS
//! backend dying mid-session; the client sees the transport fail and must
//! reopen.
//!
//! # Control lines
//!
//! A line starting with a backslash is a request to the server, never SQL
//! (the dialect has no backslash). Two control lines exist:
//!
//! ```text
//! \fired                   -- request: the seeded faults fired so far
//! FIRED <n> <names|->      -- reply: n distinct FaultId names, comma-separated
//!                             (`-` when n is 0)
//! \reset <faults>          -- request: a fresh engine with these faults
//!                             (`stock`, `none` or a FaultId list, as --faults)
//! READY <profile>          -- reply: the fresh engine is in place
//! ERR error <message>      -- reply: a bad spec; the engine is unchanged
//! ```
//!
//! The `\fired` reply is the server engine's [`Engine::fired_faults`]: every
//! seeded fault that took its divergent branch since the engine was built,
//! listed in [`FaultId`] order, e.g. `FIRED 0 -` or
//! `FIRED 2 GeosCoversPrecisionLoss,PostgisGistIndexDropsRows`. A client
//! asks once per session whose fired set it needs (fault attribution, via
//! `EngineSession::fired_faults`); [`read_fired`] accepts exactly the one encoding of a set
//! and rejects everything else — a wrong count, an unknown, repeated or
//! out-of-order name, a stray token, a missing newline — so a damaged reply
//! reads as "unknown", never as a smaller set.
//!
//! `\reset` lets a client reuse one process for many sessions, the way
//! SQL-based testers give each run a fresh database rather than a fresh
//! server. The server drops its engine — tables, indexes, `SET` switches,
//! fired faults — and builds a new one of its profile with the given fault
//! set. The new engine keeps the process's relate memo
//! ([`RelateCache`]): the memo is bit-exact and fault-independent, so a
//! warm memo changes no answer. [`read_ready`] accepts only the exact
//! `READY <profile>` frame, so a client can tell a good reset from a dead
//! or confused server.

use crate::engine::{Engine, ExecutionResult, QueryResult};
use crate::error::SdbError;
use crate::faults::{FaultId, FaultSet};
use crate::profile::EngineProfile;
use spatter_topo::RelateCache;
use std::io::{BufRead, BufWriter, Write};
use std::sync::Arc;

/// The exit code of a `--hard-crash` termination (chosen to match a Rust
/// panic so supervisors treat it as abnormal).
pub const HARD_CRASH_EXIT_CODE: i32 = 101;

/// Configuration of one server process.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The engine profile to run.
    pub profile: EngineProfile,
    /// The seeded faults the engine carries.
    pub faults: FaultSet,
    /// Whether a simulated crash exits the process instead of replying
    /// `ERR crash`.
    pub hard_crash: bool,
}

impl ServerConfig {
    /// Parses the `spatter-sdb-server` command line (the arguments after the
    /// program name):
    ///
    /// ```text
    /// --profile <name>       postgis_like | mysql_like | ... (default postgis_like)
    /// --faults <spec>        "stock", "none", or a comma-separated FaultId list
    ///                        (default stock)
    /// --hard-crash           exit the process on simulated crashes
    /// ```
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Result<ServerConfig, String> {
        let mut profile = EngineProfile::PostgisLike;
        let mut faults_spec = "stock".to_string();
        let mut hard_crash = false;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--profile" => {
                    let name = args.next().ok_or("--profile requires a value")?;
                    profile = EngineProfile::from_name(&name)
                        .ok_or_else(|| format!("unknown profile {name}"))?;
                }
                "--faults" => {
                    faults_spec = args.next().ok_or("--faults requires a value")?;
                }
                "--hard-crash" => hard_crash = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(ServerConfig {
            profile,
            faults: parse_fault_spec(profile, &faults_spec)?,
            hard_crash,
        })
    }
}

/// Parses a fault-set spec, as `--faults` and `\reset` take it: `stock`
/// (the profile's default faults), `none`, or a comma-separated [`FaultId`]
/// list.
pub fn parse_fault_spec(profile: EngineProfile, spec: &str) -> Result<FaultSet, String> {
    match spec {
        "stock" => Ok(profile.default_faults()),
        "none" => Ok(FaultSet::none()),
        list => FaultSet::parse_names(list),
    }
}

/// The spec [`parse_fault_spec`] reads back as exactly `faults`: `none`, or
/// the names of the faults.
pub fn fault_spec(faults: &FaultSet) -> String {
    if faults.is_empty() {
        "none".to_string()
    } else {
        faults.to_names()
    }
}

/// One framed server response (everything after the `READY` handshake).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The statement executed and produced no result rows.
    None,
    /// The statement executed and reported a mutation effect
    /// (`OK UPDATE <n>` and friends).
    Effect(ExecutionResult),
    /// A result set.
    Rows {
        /// The first-column values, in engine row order.
        rows: Vec<String>,
        /// [`QueryResult::count`] evaluated server-side (`None` unless the
        /// result is a single scalar count), so remote clients inherit the
        /// in-process count semantics exactly.
        count: Option<i64>,
    },
    /// The statement failed; `crash` distinguishes simulated engine crashes
    /// from ordinary (semantic/parse/execution) errors.
    Error {
        /// Whether the failure models an engine crash.
        crash: bool,
        /// The error message.
        message: String,
    },
}

impl Response {
    /// Builds the response for an engine execution result.
    pub fn from_result(result: &Result<QueryResult, SdbError>) -> Response {
        match result {
            Ok(result) if result.columns.is_empty() && result.rows.is_empty() => {
                match result.effect {
                    Some(effect) => Response::Effect(effect),
                    None => Response::None,
                }
            }
            Ok(result) => Response::Rows {
                rows: result
                    .rows
                    .iter()
                    .map(|row| {
                        row.first()
                            .map(|value| value.to_string())
                            .unwrap_or_default()
                    })
                    .collect(),
                count: result.count(),
            },
            Err(error) => Response::Error {
                crash: error.is_crash(),
                message: error.to_string(),
            },
        }
    }

    /// Writes the response in wire form.
    pub fn write_to(&self, output: &mut impl Write) -> std::io::Result<()> {
        match self {
            Response::None => writeln!(output, "OK")?,
            Response::Effect(effect) => match effect {
                ExecutionResult::Update { rows_updated } => {
                    writeln!(output, "OK UPDATE {rows_updated}")?
                }
                ExecutionResult::Delete { rows_deleted } => {
                    writeln!(output, "OK DELETE {rows_deleted}")?
                }
                ExecutionResult::DropIndex => writeln!(output, "OK DROP-INDEX")?,
                ExecutionResult::DropTable => writeln!(output, "OK DROP-TABLE")?,
            },
            Response::Rows { rows, count } => {
                let count = count.map_or("-".to_string(), |c| c.to_string());
                writeln!(output, "ROWS {} {count}", rows.len())?;
                for row in rows {
                    writeln!(output, "ROW {}", sanitize_line(row))?;
                }
            }
            Response::Error { crash, message } => {
                let kind = if *crash { "crash" } else { "error" };
                writeln!(output, "ERR {kind} {}", sanitize_line(message))?;
            }
        }
        output.flush()
    }

    /// Reads one response in wire form. An `Err` means the transport broke
    /// (EOF or I/O failure), not that the statement failed.
    pub fn read_from(input: &mut impl BufRead) -> std::io::Result<Response> {
        let header = read_reply_frame(input)?;
        if header == "OK" {
            return Ok(Response::None);
        }
        if let Some(rest) = header.strip_prefix("OK ") {
            let (kind, count) = rest.split_once(' ').unwrap_or((rest, ""));
            let rows = || {
                count
                    .parse::<usize>()
                    .map_err(|_| protocol_error(&format!("bad OK row count: {header}")))
            };
            let effect = match kind {
                "UPDATE" => ExecutionResult::Update {
                    rows_updated: rows()?,
                },
                "DELETE" => ExecutionResult::Delete {
                    rows_deleted: rows()?,
                },
                "DROP-INDEX" if count.is_empty() => ExecutionResult::DropIndex,
                "DROP-TABLE" if count.is_empty() => ExecutionResult::DropTable,
                _ => return Err(protocol_error(&format!("bad OK reply: {header}"))),
            };
            return Ok(Response::Effect(effect));
        }
        if let Some(rest) = header.strip_prefix("ROWS ") {
            let (n, count) = rest
                .split_once(' ')
                .ok_or_else(|| protocol_error(&format!("bad ROWS header: {header}")))?;
            let n: usize = n
                .parse()
                .map_err(|_| protocol_error(&format!("bad ROWS header: {header}")))?;
            let count: Option<i64> = match count {
                "-" => None,
                value => Some(
                    value
                        .parse()
                        .map_err(|_| protocol_error(&format!("bad ROWS count: {header}")))?,
                ),
            };
            // `n` is untrusted: a capacity hint of `ROWS 10^15` would abort
            // the process on allocation before the first row is read.
            let mut rows = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let line = read_reply_frame(input)?;
                let row = line
                    .strip_prefix("ROW ")
                    .ok_or_else(|| protocol_error(&format!("expected ROW line, got {line}")))?;
                rows.push(row.to_string());
            }
            return Ok(Response::Rows { rows, count });
        }
        if let Some(rest) = header.strip_prefix("ERR ") {
            let (kind, message) = rest.split_once(' ').unwrap_or((rest, ""));
            return Ok(Response::Error {
                crash: kind == "crash",
                message: message.to_string(),
            });
        }
        Err(protocol_error(&format!("unrecognised response: {header}")))
    }
}

/// One reply frame; a closed stream is a transport error here.
fn read_reply_frame(input: &mut impl BufRead) -> std::io::Result<String> {
    read_frame(input)?.ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the stream",
        )
    })
}

/// Reads one newline-terminated frame of a line protocol, without its
/// CR/LF: `Ok(None)` at a clean end of stream, and an `UnexpectedEof`
/// error for a last line with no newline. A frame cut mid-write must never
/// decode as a shorter valid one (`OK UPDATE 3` cut to `OK`, a probe count
/// `156` cut to `15`). The one reader of every peer line that feeds a
/// report: server replies, external-engine replies and campaign-worker
/// messages. It goes through the reader's own [`BufRead::read_line`], so
/// wrappers that observe lines keep seeing every frame.
pub fn read_frame<R: BufRead + ?Sized>(input: &mut R) -> std::io::Result<Option<String>> {
    let mut line = String::new();
    if input.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    if !line.ends_with('\n') {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("truncated frame: {line}"),
        ));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(Some(line))
}

fn protocol_error(message: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message.to_string())
}

/// Flattens embedded newlines to spaces so a value occupies exactly one wire
/// frame. Used by the server for response payloads and by stdio clients for
/// outgoing SQL: a multi-line statement (legal whitespace for the in-process
/// parser) would otherwise desynchronize the line-delimited protocol and
/// misattribute every subsequent response. Newlines are plain whitespace in
/// the SQL dialect (string literals hold single-line WKT), so flattening
/// preserves meaning.
pub fn sanitize_line(text: &str) -> String {
    if text.contains(['\n', '\r']) {
        text.replace(['\n', '\r'], " ")
    } else {
        text.to_string()
    }
}

/// The control line requesting the fired-faults reply (see the module
/// docs).
pub const FIRED_REQUEST: &str = "\\fired";

/// Writes the fired-faults reply for `faults` in wire form.
pub fn write_fired(faults: &FaultSet, output: &mut impl Write) -> std::io::Result<()> {
    let names = if faults.is_empty() {
        "-".to_string()
    } else {
        faults.to_names()
    };
    writeln!(output, "FIRED {} {names}", faults.len())?;
    output.flush()
}

/// Reads one fired-faults reply frame. `None` for anything but the exact
/// encoding [`write_fired`] produces, or a broken stream: the caller must
/// then treat the fired set as unknown.
pub fn read_fired(input: &mut impl BufRead) -> Option<FaultSet> {
    parse_fired(&read_frame(input).ok()??)
}

/// Decodes one fired-faults reply line (without its newline).
fn parse_fired(line: &str) -> Option<FaultSet> {
    let mut fields = line.strip_prefix("FIRED ")?.split(' ');
    let (count, names) = (fields.next()?, fields.next()?);
    if fields.next().is_some() {
        return None;
    }
    let count: usize = count.parse().ok()?;
    let names: Vec<&str> = match names {
        "-" => Vec::new(),
        list => list.split(',').collect(),
    };
    let faults: Vec<FaultId> = names
        .iter()
        .map(|name| FaultId::from_name(name))
        .collect::<Option<_>>()?;
    // Strictly ascending: one encoding per set, no repeats.
    let canonical = faults.windows(2).all(|pair| pair[0] < pair[1]);
    (canonical && faults.len() == count).then(|| FaultSet::with(faults))
}

/// The control line that replaces the server's engine (see the module
/// docs); the fault spec follows after one space.
pub const RESET_REQUEST: &str = "\\reset";

/// Writes the handshake frame, which is also the reply to a good reset.
pub fn write_ready(profile: EngineProfile, output: &mut impl Write) -> std::io::Result<()> {
    writeln!(output, "READY {}", profile.name())?;
    output.flush()
}

/// Reads one frame and tells whether it is exactly the one [`write_ready`]
/// writes for `profile`. Anything else — another profile, an `ERR` reply,
/// a stray token, a missing newline, a closed stream — is `false`: the
/// client must then not trust the server.
pub fn read_ready(input: &mut impl BufRead, profile: EngineProfile) -> bool {
    matches!(
        read_frame(input),
        Ok(Some(frame)) if frame.strip_prefix("READY ") == Some(profile.name())
    )
}

/// One server process between input lines: its engine, and the relate memo
/// every engine it builds shares.
struct Server {
    hard_crash: bool,
    relate: Arc<RelateCache>,
    engine: Engine,
}

impl Server {
    fn new(config: &ServerConfig) -> Server {
        let relate = Arc::new(RelateCache::default());
        Server {
            hard_crash: config.hard_crash,
            engine: Engine::with_relate_cache(
                config.profile,
                config.faults.clone(),
                Arc::clone(&relate),
            ),
            relate,
        }
    }

    /// Answers one input line. `Ok(false)` means a simulated crash in
    /// `--hard-crash` mode: the process must end without a reply.
    fn answer(&mut self, line: &str, output: &mut impl Write) -> std::io::Result<bool> {
        let sql = line.trim();
        if sql.is_empty() {
            return Ok(true);
        }
        if sql == FIRED_REQUEST {
            write_fired(&self.engine.fired_faults(), output)?;
            return Ok(true);
        }
        if let Some(spec) = sql.strip_prefix(RESET_REQUEST) {
            match self.reset(spec) {
                Ok(()) => write_ready(self.engine.profile(), output)?,
                Err(message) => Response::Error {
                    crash: false,
                    message,
                }
                .write_to(output)?,
            }
            return Ok(true);
        }
        let result = self.engine.execute(sql);
        if self.hard_crash && matches!(&result, Err(error) if error.is_crash()) {
            return Ok(false);
        }
        Response::from_result(&result).write_to(output)?;
        Ok(true)
    }

    /// Replaces the engine with a fresh one carrying the faults `spec`
    /// (what follows `\reset`) names; on a bad spec the engine stays.
    fn reset(&mut self, spec: &str) -> Result<(), String> {
        let spec = spec
            .strip_prefix(' ')
            .ok_or_else(|| format!("usage: {RESET_REQUEST} <stock|none|FaultId,...>"))?;
        let profile = self.engine.profile();
        let faults = parse_fault_spec(profile, spec)?;
        self.engine = Engine::with_relate_cache(profile, faults, Arc::clone(&self.relate));
        Ok(())
    }
}

/// Runs the serve loop over an engine until the input stream ends. A reply
/// goes out in one write when it fits the buffer: `output` is buffered
/// here and flushed once per reply. In `hard_crash` mode a simulated crash
/// terminates the whole process with [`HARD_CRASH_EXIT_CODE`] — the
/// response is intentionally never written, exactly like a real backend
/// dying before it can answer.
pub fn serve(
    config: &ServerConfig,
    input: impl BufRead,
    output: impl Write,
) -> std::io::Result<()> {
    let mut output = BufWriter::new(output);
    let mut server = Server::new(config);
    write_ready(config.profile, &mut output)?;
    for line in input.lines() {
        if !server.answer(&line?, &mut output)? {
            std::process::exit(HARD_CRASH_EXIT_CODE);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultId;
    use std::io::BufReader;
    use std::time::Duration;

    fn run(config: &ServerConfig, script: &str) -> Vec<String> {
        let mut output = Vec::new();
        serve(config, BufReader::new(script.as_bytes()), &mut output).unwrap();
        String::from_utf8(output)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    fn reference_config() -> ServerConfig {
        ServerConfig {
            profile: EngineProfile::PostgisLike,
            faults: FaultSet::none(),
            hard_crash: false,
        }
    }

    #[test]
    fn serves_ddl_counts_and_rows() {
        let lines = run(
            &reference_config(),
            "CREATE TABLE t (g geometry)\n\
             INSERT INTO t (g) VALUES ('POINT(0 0)'), ('POINT(3 4)')\n\
             SELECT COUNT(*) FROM t a JOIN t b ON ST_DWithin(a.g, b.g, 5)\n\
             SELECT ST_AsText(a.g) FROM t a ORDER BY ST_Distance(a.g, 'POINT(0 0)'::geometry) LIMIT 1\n",
        );
        assert_eq!(
            lines,
            vec![
                "READY postgis_like",
                "OK",
                "OK",
                "ROWS 1 4",
                "ROW 4",
                "ROWS 1 -",
                "ROW POINT(0 0)",
            ]
        );
    }

    #[test]
    fn serves_errors_with_their_kind() {
        let lines = run(
            &reference_config(),
            "SELECT COUNT(*) FROM missing a JOIN missing b ON ST_Intersects(a.g, b.g)\n\
             NOT EVEN SQL\n",
        );
        assert!(lines[1].starts_with("ERR error "), "{:?}", lines[1]);
        assert!(lines[2].starts_with("ERR error "), "{:?}", lines[2]);
    }

    #[test]
    fn soft_crash_is_reported_not_fatal() {
        let config = ServerConfig {
            profile: EngineProfile::MysqlLike,
            faults: FaultSet::with([FaultId::GeosCrashRelateShortRing]),
            hard_crash: false,
        };
        let lines = run(
            &config,
            "CREATE TABLE t (g geometry)\n\
             INSERT INTO t (g) VALUES ('POLYGON((0 0,1 1,0 0))'), ('POINT(0 0)')\n\
             SELECT COUNT(*) FROM t a JOIN t b ON ST_Intersects(a.g, b.g)\n\
             SELECT COUNT(*) FROM t a JOIN t b ON ST_DWithin(a.g, b.g, 100)\n",
        );
        assert!(lines[3].starts_with("ERR crash "), "{:?}", lines[3]);
        // The engine object survives a simulated crash: later statements run.
        assert_eq!(lines[4], "ROWS 1 4");
    }

    #[test]
    fn serves_mutation_effects_with_pinned_grammar() {
        let lines = run(
            &reference_config(),
            "CREATE TABLE t (id int, g geometry)\n\
             INSERT INTO t (id, g) VALUES (1, 'POINT(0 0)'), (2, 'POINT(3 4)')\n\
             CREATE INDEX idx_t ON t USING GIST (g)\n\
             UPDATE t SET g = 'POINT(9 9)'::geometry WHERE id = 2\n\
             DELETE FROM t WHERE id = 1\n\
             DELETE FROM t WHERE id = 1\n\
             DROP INDEX idx_t\n\
             DROP TABLE t\n",
        );
        assert_eq!(
            lines,
            vec![
                "READY postgis_like",
                // Setup statements carry no effect: bare OK, as before.
                "OK",
                "OK",
                "OK",
                "OK UPDATE 1",
                "OK DELETE 1",
                "OK DELETE 0",
                "OK DROP-INDEX",
                "OK DROP-TABLE",
            ]
        );
    }

    #[test]
    fn every_truncated_reply_prefix_is_a_transport_error() {
        // A reply frame cut anywhere before its final newline must decode as
        // a transport error — never as a shorter valid reply ("OK UPDATE 3"
        // cut to "OK" is the dangerous case) and never as a wrong row set.
        let cases = [
            Response::None,
            Response::Effect(ExecutionResult::Update { rows_updated: 3 }),
            Response::Effect(ExecutionResult::Delete { rows_deleted: 12 }),
            Response::Effect(ExecutionResult::DropIndex),
            Response::Effect(ExecutionResult::DropTable),
            Response::Rows {
                rows: vec!["POINT(0 0)".into(), "7".into()],
                count: None,
            },
            Response::Error {
                crash: true,
                message: "engine crash: boom".into(),
            },
        ];
        for case in &cases {
            let mut wire = Vec::new();
            case.write_to(&mut wire).unwrap();
            for cut in 0..wire.len() {
                let mut reader = BufReader::new(&wire[..cut]);
                let decoded = Response::read_from(&mut reader);
                assert!(
                    decoded.is_err(),
                    "prefix {:?} of {case:?} decoded as {decoded:?}",
                    String::from_utf8_lossy(&wire[..cut]),
                );
            }
            let mut reader = BufReader::new(wire.as_slice());
            assert_eq!(&Response::read_from(&mut reader).unwrap(), case);
        }
    }

    #[test]
    fn an_absurd_row_count_is_an_error_not_an_allocation_abort() {
        // The row count is a capacity hint from an untrusted peer; trusting
        // it used to abort the whole process before reading a single row.
        for reply in [
            "ROWS 1000000000000000 -\n",
            "ROWS 18446744073709551615 -\nROW 1\n",
        ] {
            let mut reader = BufReader::new(reply.as_bytes());
            assert!(Response::read_from(&mut reader).is_err(), "{reply:?}");
        }
    }

    #[test]
    fn frames_are_complete_lines_or_errors() {
        let mut reader = BufReader::new("one\r\ntwo\n\nthree".as_bytes());
        assert_eq!(read_frame(&mut reader).unwrap().as_deref(), Some("one"));
        assert_eq!(read_frame(&mut reader).unwrap().as_deref(), Some("two"));
        assert_eq!(read_frame(&mut reader).unwrap().as_deref(), Some(""));
        let cut = read_frame(&mut reader).unwrap_err();
        assert_eq!(cut.kind(), std::io::ErrorKind::UnexpectedEof);
        assert_eq!(read_frame(&mut reader).unwrap(), None);
    }

    #[test]
    fn malformed_ok_replies_are_rejected() {
        for line in [
            "OK UPDATE\n",
            "OK UPDATE x\n",
            "OK UPDATE -1\n",
            "OK DELETE\n",
            "OK DROP-INDEX 3\n",
            "OK DROP-TABLE 0\n",
            "OK TRUNCATE 5\n",
            "OK \n",
        ] {
            let mut reader = BufReader::new(line.as_bytes());
            assert!(Response::read_from(&mut reader).is_err(), "{line:?}");
        }
    }

    #[test]
    fn responses_round_trip_through_the_wire_form() {
        let cases = [
            Response::None,
            Response::Effect(ExecutionResult::Update { rows_updated: 0 }),
            Response::Effect(ExecutionResult::Update { rows_updated: 41 }),
            Response::Effect(ExecutionResult::Delete { rows_deleted: 1 }),
            Response::Effect(ExecutionResult::DropIndex),
            Response::Effect(ExecutionResult::DropTable),
            Response::Rows {
                rows: vec![],
                count: None,
            },
            Response::Rows {
                rows: vec!["POINT(0 0)".into(), String::new(), "7".into()],
                count: None,
            },
            Response::Rows {
                rows: vec!["5".into()],
                count: Some(5),
            },
            Response::Error {
                crash: true,
                message: "engine crash: boom".into(),
            },
            Response::Error {
                crash: false,
                message: "semantic error: no such table".into(),
            },
        ];
        for case in cases {
            let mut wire = Vec::new();
            case.write_to(&mut wire).unwrap();
            let mut reader = BufReader::new(wire.as_slice());
            assert_eq!(Response::read_from(&mut reader).unwrap(), case);
        }
    }

    #[test]
    fn fired_request_reports_the_faults_fired_so_far() {
        let config = ServerConfig {
            profile: EngineProfile::PostgisLike,
            faults: EngineProfile::PostgisLike.default_faults(),
            hard_crash: false,
        };
        let lines = run(
            &config,
            "\\fired\n\
             SELECT ST_Distance('MULTIPOINT((1 0),(0 0))'::geometry, 'MULTIPOINT((-2 0),EMPTY)'::geometry)\n\
             \\fired\n\
             SELECT ST_Within('POINT(0 0)'::geometry, 'GEOMETRYCOLLECTION(POINT(0 0),LINESTRING(0 0,1 0))'::geometry)\n\
             \\fired\n",
        );
        assert_eq!(
            lines,
            vec![
                "READY postgis_like",
                "FIRED 0 -",
                "ROWS 1 3",
                "ROW 3",
                "FIRED 1 GeosEmptyDistanceRecursion",
                "ROWS 1 0",
                "ROW f",
                "FIRED 2 GeosMixedBoundaryLastOneWins,GeosEmptyDistanceRecursion",
            ]
        );
    }

    #[test]
    fn fired_reply_grammar_is_pinned() {
        let two = FaultSet::with([
            FaultId::GeosCoversPrecisionLoss,
            FaultId::PostgisGistIndexDropsRows,
        ]);
        for set in [FaultSet::none(), two.clone()] {
            let mut wire = Vec::new();
            write_fired(&set, &mut wire).unwrap();
            let line = String::from_utf8(wire).unwrap();
            assert_eq!(parse_fired(line.trim_end_matches('\n')), Some(set));
        }
        assert_eq!(parse_fired("FIRED 0 -"), Some(FaultSet::none()));
        assert_eq!(
            parse_fired("FIRED 2 GeosCoversPrecisionLoss,PostgisGistIndexDropsRows"),
            Some(two)
        );
        let mut reader = BufReader::new("FIRED 0 -\nFIRED 0 -".as_bytes());
        assert_eq!(read_fired(&mut reader), Some(FaultSet::none()));
        assert_eq!(read_fired(&mut reader), None, "no newline: truncated");
        assert_eq!(read_fired(&mut reader), None, "end of stream");
        for bad in [
            "",
            "FIRED",
            "FIRED ",
            "FIRED 0",
            "FIRED 0 ",
            "FIRED 1 -",
            "FIRED 0 GeosCoversPrecisionLoss",
            "FIRED 2 GeosCoversPrecisionLoss",
            "FIRED 1 GeosCoversPrecisionLoss,",
            "FIRED 2 GeosCoversPrecisionLoss,GeosCoversPrecisionLoss",
            "FIRED 2 PostgisGistIndexDropsRows,GeosCoversPrecisionLoss",
            "FIRED 1 NoSuchFault",
            "FIRED -1 -",
            "FIRED x -",
            "FIRED 0 - extra",
            "FIRED  0 -",
            "fired 0 -",
            "OK",
            "ERR error parse error",
        ] {
            assert_eq!(parse_fired(bad), None, "{bad:?}");
        }
    }

    /// A sink that counts the `write` calls it gets.
    #[derive(Default)]
    struct CountingSink {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    const LISTING1_SETUP: [&str; 4] = [
        "CREATE TABLE t1 (g geometry)",
        "CREATE TABLE t2 (g geometry)",
        "INSERT INTO t1 (g) VALUES ('LINESTRING(0 1,2 0)')",
        "INSERT INTO t2 (g) VALUES ('POINT(0.2 0.9)')",
    ];
    const LISTING1_QUERY: &str = "SELECT COUNT(*) FROM t1 JOIN t2 ON ST_Covers(t1.g, t2.g)";
    /// Relates Listing 1's pair (the seeded fault answers `ST_Covers`
    /// without relating it).
    const RELATING_QUERY: &str = "SELECT COUNT(*) FROM t1 JOIN t2 ON ST_Intersects(t1.g, t2.g)";

    /// A stock server that has a table, an index, both plan switches off,
    /// a fired fault and a filled relate memo.
    fn used_server() -> Server {
        let mut server = Server::new(&ServerConfig {
            profile: EngineProfile::PostgisLike,
            faults: EngineProfile::PostgisLike.default_faults(),
            hard_crash: false,
        });
        let mut sink = Vec::new();
        for line in LISTING1_SETUP.into_iter().chain([
            RELATING_QUERY,
            "CREATE INDEX i2 ON t2 USING GIST (g)",
            "SET enable_seqscan = false",
            "SET enable_prepared = false",
            LISTING1_QUERY,
        ]) {
            assert!(server.answer(line, &mut sink).unwrap());
        }
        assert!(String::from_utf8(sink)
            .unwrap()
            .ends_with("ROWS 1 0\nROW 0\n"));
        assert!(server
            .engine
            .fired_faults()
            .is_active(FaultId::GeosCoversPrecisionLoss));
        assert!(!server.relate.is_empty());
        server
    }

    #[test]
    fn every_reset_spec_gives_a_fresh_engine_on_the_same_memo() {
        let listed = FaultSet::with([
            FaultId::GeosCoversPrecisionLoss,
            FaultId::PostgisGistIndexDropsRows,
        ]);
        for (spec, faults) in [
            ("stock", EngineProfile::PostgisLike.default_faults()),
            ("none", FaultSet::none()),
            ("GeosCoversPrecisionLoss,PostgisGistIndexDropsRows", listed),
        ] {
            let mut server = used_server();
            let related = server.relate.len();
            let mut reply = Vec::new();
            assert!(server
                .answer(&format!("{RESET_REQUEST} {spec}"), &mut reply)
                .unwrap());
            assert_eq!(reply, b"READY postgis_like\n", "{spec}");
            let engine = &server.engine;
            assert_eq!(engine.faults(), &faults, "{spec}");
            assert!(engine.database().table_names().is_empty(), "{spec}");
            assert!(engine.database().indexes().next().is_none(), "{spec}");
            assert!(engine.seqscan_enabled() && engine.prepared_enabled());
            assert!(engine.fired_faults().is_empty(), "{spec}");
            assert_eq!(engine.execution_stats(), (Duration::ZERO, 0));

            // The fresh engine relates Listing 1 through the memo the old
            // one filled: every pair is a hit, no entry is added.
            let mut sink = Vec::new();
            for line in LISTING1_SETUP
                .into_iter()
                .chain([RELATING_QUERY, LISTING1_QUERY])
            {
                assert!(server.answer(line, &mut sink).unwrap());
            }
            let expected = if faults.is_active(FaultId::GeosCoversPrecisionLoss) {
                "ROWS 1 0\nROW 0\n"
            } else {
                "ROWS 1 1\nROW 1\n"
            };
            assert!(String::from_utf8(sink).unwrap().ends_with(expected));
            assert_eq!(server.relate.len(), related, "{spec}");
        }
    }

    #[test]
    fn a_bad_reset_spec_is_an_error_and_keeps_the_engine() {
        for line in [
            "\\reset Bogus",
            "\\reset stock,Bogus",
            "\\reset",
            "\\resetstock",
            "\\reset  stock",
        ] {
            let mut server = used_server();
            let fired = server.engine.fired_faults();
            let mut reply = Vec::new();
            assert!(server.answer(line, &mut reply).unwrap());
            let reply = String::from_utf8(reply).unwrap();
            assert!(reply.starts_with("ERR error "), "{line:?}: {reply:?}");
            assert_eq!(reply.lines().count(), 1, "{line:?}");
            let engine = &server.engine;
            assert_eq!(engine.database().table_names().len(), 2, "{line:?}");
            assert!(!engine.seqscan_enabled() && !engine.prepared_enabled());
            assert_eq!(engine.fired_faults(), fired, "{line:?}");
        }
    }

    #[test]
    fn reset_replies_on_the_wire() {
        let lines = run(
            &reference_config(),
            "CREATE TABLE t (g geometry)\n\
             \\reset stock\n\
             \\fired\n\
             SELECT COUNT(*) FROM t a JOIN t b ON ST_Intersects(a.g, b.g)\n\
             \\reset NoSuchFault\n\
             CREATE TABLE t (g geometry)\n",
        );
        assert_eq!(lines.len(), 7, "{lines:?}");
        assert_eq!(
            lines[..4],
            [
                "READY postgis_like",
                "OK",
                "READY postgis_like",
                "FIRED 0 -"
            ]
        );
        assert!(lines[4].starts_with("ERR error "), "{:?}", lines[4]);
        assert_eq!(lines[5], "ERR error unknown fault NoSuchFault");
        // The failed reset kept the (empty) engine the good one built.
        assert_eq!(lines[6], "OK");
    }

    #[test]
    fn read_ready_accepts_only_the_exact_frame() {
        for profile in [EngineProfile::PostgisLike, EngineProfile::MysqlLike] {
            let mut wire = Vec::new();
            write_ready(profile, &mut wire).unwrap();
            assert!(read_ready(&mut BufReader::new(wire.as_slice()), profile));
        }
        let postgis = EngineProfile::PostgisLike;
        for bad in [
            "",
            "READY postgis_like",
            "READY mysql_like\n",
            "READY\n",
            "READY \n",
            "READY  postgis_like\n",
            "READY postgis_like \n",
            "READY postgis_likeX\n",
            "ready postgis_like\n",
            "OK\n",
            "ERR error unknown fault Bogus\n",
        ] {
            assert!(
                !read_ready(&mut BufReader::new(bad.as_bytes()), postgis),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn every_reply_leaves_in_one_write() {
        let mut sink = CountingSink::default();
        serve(
            &reference_config(),
            BufReader::new(
                "CREATE TABLE t (g geometry)\n\
                 INSERT INTO t (g) VALUES ('POINT(0 0)'), ('POINT(3 4)'), ('POINT(1 1)')\n\
                 SELECT ST_AsText(a.g) FROM t a ORDER BY ST_Distance(a.g, 'POINT(0 0)'::geometry) LIMIT 3\n\
                 \\fired\n\
                 \\reset stock\n\
                 NOT EVEN SQL\n"
                    .as_bytes(),
            ),
            &mut sink,
        )
        .unwrap();
        let text = String::from_utf8(sink.bytes).unwrap();
        // READY, OK, OK, ROWS (four lines), FIRED, READY, ERR.
        assert_eq!(text.lines().count(), 10, "{text}");
        assert_eq!(sink.writes, 7, "{text}");
    }

    #[test]
    fn a_hard_crash_writes_nothing_for_the_crashing_statement() {
        let mut server = Server::new(&ServerConfig {
            profile: EngineProfile::MysqlLike,
            faults: FaultSet::with([FaultId::GeosCrashRelateShortRing]),
            hard_crash: true,
        });
        let mut sink = CountingSink::default();
        for line in [
            "CREATE TABLE t (g geometry)",
            "INSERT INTO t (g) VALUES ('POLYGON((0 0,1 1,0 0))'), ('POINT(0 0)')",
        ] {
            assert!(server.answer(line, &mut sink).unwrap());
        }
        assert_eq!(sink.writes, 2);
        let mut crash = CountingSink::default();
        let survive = server
            .answer(
                "SELECT COUNT(*) FROM t a JOIN t b ON ST_Intersects(a.g, b.g)",
                &mut crash,
            )
            .unwrap();
        assert!(!survive, "the process must end");
        assert_eq!((crash.writes, crash.bytes.len()), (0, 0));
    }

    #[test]
    fn config_parses_profile_faults_and_mode() {
        let config = ServerConfig::from_args(
            [
                "--profile",
                "mysql_like",
                "--faults",
                "none",
                "--hard-crash",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(config.profile, EngineProfile::MysqlLike);
        assert!(config.faults.is_empty());
        assert!(config.hard_crash);

        let config = ServerConfig::from_args([] as [String; 0]).unwrap();
        assert_eq!(config.profile, EngineProfile::PostgisLike);
        assert_eq!(config.faults, EngineProfile::PostgisLike.default_faults());

        let config =
            ServerConfig::from_args(["--faults", "GeosCoversPrecisionLoss"].map(String::from))
                .unwrap();
        assert!(config.faults.is_active(FaultId::GeosCoversPrecisionLoss));
        assert_eq!(config.faults.len(), 1);

        assert!(ServerConfig::from_args(["--profile", "oracle"].map(String::from)).is_err());
        assert!(ServerConfig::from_args(["--faults", "Bogus"].map(String::from)).is_err());
        assert!(ServerConfig::from_args(["--bogus"].map(String::from)).is_err());
    }
}
