//! The versioned, line-delimited wire codec of the distributed campaign
//! subsystem.
//!
//! Supervisor and worker processes exchange single-line messages over
//! stdio, exactly like the `spatter-sdb-server` SQL protocol one layer
//! below — but the payloads here are whole campaign structures:
//! [`CampaignConfig`] (with its backend rendered as a
//! [`crate::backend::BackendSpec`] and its oracle suite inline), the frozen
//! guidance [`CoverageSnapshot`], and per-iteration [`IterationRecord`]s
//! with their [`Finding`]s and probe-coverage deltas. This module holds the
//! field layouts only. Tokens, escapes, and the structured [`CodecError`]s
//! that decoding returns on truncated, malformed or alien input (never a
//! panic) come from [`crate::codec`].
//!
//! # Versioning
//!
//! Every worker opens its stream with a `hello <version>` handshake
//! ([`encode_handshake`]); the supervisor rejects any version other than
//! its own [`WIRE_VERSION`] with [`CodecError::VersionMismatch`]. The
//! protocol is spoken between binaries of one build in practice, so
//! version equality — not negotiation — is the contract.
//!
//! # Exactness
//!
//! The distributed merge must be byte-identical to the in-process one, so
//! nothing on the wire may lose precision: `f64`s travel as their IEEE-754
//! bit patterns ([`f64::to_bits`]), durations as integer nanoseconds, and
//! probes travel by name, in tally order, and decode to their [`Probe`] in
//! the static probe table (an unknown name is a structured error).

use crate::backend::BackendSpec;
use crate::campaign::{CampaignConfig, Finding};
use crate::codec::{CodecError, Marker, TokenReader, TokenWriter};
use crate::generator::GeneratorConfig;
use crate::matrix::{DialectSpec, ReplyGrammar};
use crate::runner::{IterationRecord, OracleKind};
use spatter_sdb::{EngineProfile, FaultId, FaultSet};
use spatter_topo::coverage::{CoverageSnapshot, Probe};
use std::path::PathBuf;

/// The wire protocol version. Bumped whenever any message layout changes;
/// supervisor and worker must agree exactly. Version 2 added the replay
/// frame (four per-iteration state hashes) to every record message.
/// Version 3 added the epoch-barrier guidance exchange: the campaign's
/// `guidance_epoch` field and the supervisor's `epoch <snapshot>` broadcast.
/// Version 4 added the mutation-workload marker (`no-mutations` /
/// `mutations <statements_per_run> <index_churn>`) to the campaign layout.
/// Version 5 added the external-adapter backend spec (`external <dialect>`),
/// the divergence-side token on findings, and the per-query outcome digest
/// stream on record replay frames — the matrix subsystem's additions, so
/// matrix cells can ride the fabric. Version 6 dropped the two coverage
/// fractions from record messages: the supervisor computes them from the
/// records' probe deltas when it merges. Version 7 added the attribution
/// time to record messages.
pub const WIRE_VERSION: u32 = 7;

const EPOCH: Marker = Marker {
    absent: "no-epoch",
    present: "epoch",
    expected: "guidance epoch marker",
};
const MUTATIONS: Marker = Marker {
    absent: "no-mutations",
    present: "mutations",
    expected: "mutation marker",
};
const READY: Marker = Marker {
    absent: "no-ready",
    present: "ready",
    expected: "dialect ready marker",
};
const SNAPSHOT: Marker = Marker {
    absent: "unguided",
    present: "guided",
    expected: "guidance snapshot marker",
};

// ---------------------------------------------------------------------------
// Field layouts
// ---------------------------------------------------------------------------

fn read_profile(reader: &mut TokenReader) -> Result<EngineProfile, CodecError> {
    let token = reader.next()?;
    EngineProfile::from_name(token).ok_or_else(|| CodecError::UnknownProfile(token.to_string()))
}

fn write_faults(writer: &mut TokenWriter, faults: &FaultSet) {
    if faults.is_empty() {
        writer.push_raw("none");
    } else {
        // Comma-separated FaultId names: identifier characters only, so the
        // list is a single whitespace-free token by construction.
        writer.push_raw(&faults.to_names());
    }
}

fn read_faults(reader: &mut TokenReader) -> Result<FaultSet, CodecError> {
    let token = reader.next()?;
    if token == "none" {
        return Ok(FaultSet::none());
    }
    FaultSet::parse_names(token).map_err(|_| CodecError::UnknownFault(token.to_string()))
}

fn write_backend_spec(writer: &mut TokenWriter, spec: &BackendSpec) {
    match spec {
        BackendSpec::InProcess { profile, faults } => {
            writer.push_raw("in-process");
            writer.push_raw(profile.name());
            write_faults(writer, faults);
        }
        BackendSpec::Stdio {
            command,
            profile,
            faults,
            hard_crash,
        } => {
            writer.push_raw("stdio");
            writer.push_str(&command.to_string_lossy());
            writer.push_raw(profile.name());
            write_faults(writer, faults);
            writer.push_bool(*hard_crash);
        }
        BackendSpec::External { dialect } => {
            writer.push_raw("external");
            write_dialect(writer, dialect);
        }
    }
}

fn read_backend_spec(reader: &mut TokenReader) -> Result<BackendSpec, CodecError> {
    match reader.next()? {
        "in-process" => Ok(BackendSpec::InProcess {
            profile: read_profile(reader)?,
            faults: read_faults(reader)?,
        }),
        "stdio" => Ok(BackendSpec::Stdio {
            command: PathBuf::from(reader.next_str()?),
            profile: read_profile(reader)?,
            faults: read_faults(reader)?,
            hard_crash: reader.next_bool("hard-crash flag")?,
        }),
        "external" => Ok(BackendSpec::External {
            dialect: read_dialect(reader)?,
        }),
        other => Err(reader.malformed("backend spec kind", other)),
    }
}

fn write_dialect(writer: &mut TokenWriter, dialect: &DialectSpec) {
    writer.push_str(&dialect.name);
    writer.push_str(&dialect.command.to_string_lossy());
    writer.push_num(dialect.args.len());
    for arg in &dialect.args {
        writer.push_str(arg);
    }
    writer.push_raw(dialect.profile.name());
    writer.push_option(
        &READY,
        dialect.ready_prefix.as_deref(),
        TokenWriter::push_str,
    );
    writer.push_str(&dialect.terminator);
    match &dialect.grammar {
        ReplyGrammar::SdbServer => writer.push_raw("sdb-server"),
        ReplyGrammar::Sentinel {
            echo_command,
            done_marker,
            error_prefixes,
        } => {
            writer.push_raw("sentinel");
            writer.push_str(echo_command);
            writer.push_str(done_marker);
            writer.push_num(error_prefixes.len());
            for (prefix, crash) in error_prefixes {
                writer.push_str(prefix);
                writer.push_bool(*crash);
            }
        }
    }
}

fn read_dialect(reader: &mut TokenReader) -> Result<DialectSpec, CodecError> {
    let name = reader.next_str()?;
    let command = PathBuf::from(reader.next_str()?);
    let n_args: usize = reader.next_num("dialect arg count")?;
    let mut args = Vec::with_capacity(n_args.min(64));
    for _ in 0..n_args {
        args.push(reader.next_str()?);
    }
    let profile = read_profile(reader)?;
    let ready_prefix = reader.next_option(&READY, TokenReader::next_str)?;
    let terminator = reader.next_str()?;
    let grammar = match reader.next()? {
        "sdb-server" => ReplyGrammar::SdbServer,
        "sentinel" => {
            let echo_command = reader.next_str()?;
            let done_marker = reader.next_str()?;
            let n_prefixes: usize = reader.next_num("error prefix count")?;
            let mut error_prefixes = Vec::with_capacity(n_prefixes.min(64));
            for _ in 0..n_prefixes {
                let prefix = reader.next_str()?;
                let crash = reader.next_bool("error prefix crash flag")?;
                error_prefixes.push((prefix, crash));
            }
            ReplyGrammar::Sentinel {
                echo_command,
                done_marker,
                error_prefixes,
            }
        }
        other => return Err(reader.malformed("dialect reply grammar", other)),
    };
    Ok(DialectSpec {
        name,
        command,
        args,
        profile,
        ready_prefix,
        terminator,
        grammar,
    })
}

fn write_oracle(writer: &mut TokenWriter, oracle: &OracleKind) {
    match oracle {
        OracleKind::Aei => writer.push_raw("aei"),
        OracleKind::Differential(profile) => {
            writer.push_raw("differential");
            writer.push_raw(profile.name());
        }
        OracleKind::DifferentialTwin(spec) => {
            writer.push_raw("twin");
            write_backend_spec(writer, spec);
        }
        OracleKind::Index => writer.push_raw("index"),
        OracleKind::Tlp => writer.push_raw("tlp"),
    }
}

fn read_oracle(reader: &mut TokenReader) -> Result<OracleKind, CodecError> {
    match reader.next()? {
        "aei" => Ok(OracleKind::Aei),
        "differential" => Ok(OracleKind::Differential(read_profile(reader)?)),
        "twin" => Ok(OracleKind::DifferentialTwin(read_backend_spec(reader)?)),
        "index" => Ok(OracleKind::Index),
        "tlp" => Ok(OracleKind::Tlp),
        other => Err(reader.malformed("oracle kind", other)),
    }
}

fn write_campaign(writer: &mut TokenWriter, config: &CampaignConfig) -> Result<(), CodecError> {
    let spec = config
        .backend
        .wire_spec()
        .ok_or_else(|| CodecError::UnsupportedBackend(config.backend.name()))?;
    write_backend_spec(writer, &spec);
    writer.push_num(config.generator.num_geometries);
    writer.push_num(config.generator.num_tables);
    writer.push_keyword(config.generator.strategy);
    writer.push_num(config.generator.coordinate_range);
    writer.push_f64(config.generator.random_shape_probability);
    writer.push_num(config.queries_per_run);
    writer.push_keyword(config.affine);
    writer.push_num(config.iterations);
    match config.time_budget {
        None => writer.push_raw("unbounded"),
        Some(budget) => writer.push_duration(budget),
    }
    writer.push_bool(config.attribute_findings);
    writer.push_keyword(config.guidance);
    writer.push_option(&EPOCH, config.guidance_epoch, TokenWriter::push_num);
    writer.push_option(
        &MUTATIONS,
        config.mutations.as_ref(),
        |writer, mutations| {
            writer.push_num(mutations.statements_per_run);
            writer.push_bool(mutations.index_churn);
        },
    );
    writer.push_num(config.oracles.len());
    for oracle in &config.oracles {
        write_oracle(writer, oracle);
    }
    writer.push_num(config.seed);
    Ok(())
}

fn read_campaign(reader: &mut TokenReader) -> Result<CampaignConfig, CodecError> {
    let backend = read_backend_spec(reader)?.build();
    let generator = GeneratorConfig {
        num_geometries: reader.next_num("num_geometries")?,
        num_tables: reader.next_num("num_tables")?,
        strategy: reader.next_keyword()?,
        coordinate_range: reader.next_num("coordinate_range")?,
        random_shape_probability: reader.next_f64("random_shape_probability")?,
    };
    let queries_per_run = reader.next_num("queries_per_run")?;
    let affine = reader.next_keyword()?;
    let iterations = reader.next_num("iterations")?;
    let time_budget = if reader.eat("unbounded") {
        None
    } else {
        Some(reader.next_duration("time budget nanos")?)
    };
    let attribute_findings = reader.next_bool("attribute_findings")?;
    let guidance = reader.next_keyword()?;
    let guidance_epoch =
        reader.next_option(&EPOCH, |reader| reader.next_num("guidance epoch length"))?;
    let mutations = reader.next_option(&MUTATIONS, |reader| {
        Ok(crate::mutation::MutationConfig {
            statements_per_run: reader.next_num("mutation statements per run")?,
            index_churn: reader.next_bool("mutation index churn")?,
        })
    })?;
    let n_oracles: usize = reader.next_num("oracle count")?;
    if n_oracles == 0 {
        return Err(reader.malformed("non-empty oracle suite", "0 oracles"));
    }
    let mut oracles = Vec::with_capacity(n_oracles.min(64));
    for _ in 0..n_oracles {
        oracles.push(read_oracle(reader)?);
    }
    Ok(CampaignConfig {
        backend,
        generator,
        queries_per_run,
        affine,
        iterations,
        time_budget,
        attribute_findings,
        guidance,
        guidance_epoch,
        mutations,
        oracles,
        seed: reader.next_num("seed")?,
    })
}

fn write_snapshot(writer: &mut TokenWriter, snapshot: &CoverageSnapshot) {
    let entries: Vec<(Probe, u64)> = snapshot.entries().collect();
    write_tally(writer, &entries);
}

/// A probe tally by name, in its own (probe = name) order.
fn write_tally(writer: &mut TokenWriter, tally: &[(Probe, u64)]) {
    writer.push_num(tally.len());
    for (probe, count) in tally {
        writer.push_str(probe.name());
        writer.push_num(*count);
    }
}

/// A probe tally as [`write_tally`] wrote it. Each name is looked up in the
/// static probe table; an unknown name is a structured error, because the
/// probe tables of supervisor and worker builds must agree.
fn read_tally(
    reader: &mut TokenReader,
    expected: &'static str,
) -> Result<Vec<(Probe, u64)>, CodecError> {
    let n: usize = reader.next_num(expected)?;
    let mut tally = Vec::with_capacity(n.min(256));
    for _ in 0..n {
        let name = reader.next_str()?;
        let probe = Probe::from_name(&name).ok_or(CodecError::UnknownProbe(name))?;
        tally.push((probe, reader.next_num("probe count")?));
    }
    Ok(tally)
}

fn read_snapshot(reader: &mut TokenReader) -> Result<CoverageSnapshot, CodecError> {
    let mut snapshot = CoverageSnapshot::new();
    snapshot.absorb(&read_tally(reader, "snapshot entry count")?);
    Ok(snapshot)
}

fn write_finding(writer: &mut TokenWriter, finding: &Finding) {
    writer.push_keyword(finding.kind);
    writer.push_keyword(finding.side);
    writer.push_str(&finding.description);
    writer.push_num(finding.iteration);
    writer.push_duration(finding.elapsed);
    writer.push_num(finding.attributed_faults.len());
    for fault in &finding.attributed_faults {
        writer.push_raw(&fault.name());
    }
}

fn read_finding(reader: &mut TokenReader) -> Result<Finding, CodecError> {
    let kind = reader.next_keyword()?;
    let side = reader.next_keyword()?;
    let description = reader.next_str()?;
    let iteration = reader.next_num("finding iteration")?;
    let elapsed = reader.next_duration("finding elapsed")?;
    let n_faults: usize = reader.next_num("attributed fault count")?;
    let mut attributed_faults = Vec::with_capacity(n_faults.min(64));
    for _ in 0..n_faults {
        let token = reader.next()?;
        let fault =
            FaultId::from_name(token).ok_or_else(|| CodecError::UnknownFault(token.to_string()))?;
        attributed_faults.push(fault);
    }
    Ok(Finding {
        kind,
        side,
        description,
        iteration,
        elapsed,
        attributed_faults,
    })
}

fn write_record(writer: &mut TokenWriter, record: &IterationRecord) {
    writer.push_num(record.iteration);
    // The replay frame ships verbatim (its iteration field is the record's):
    // the supervisor records worker-computed hashes, never recomputes them,
    // so replay artifacts are byte-identical across fleet shapes by
    // construction.
    writer.push_num(record.replay.sub_seed);
    writer.push_num(record.replay.setup_hash);
    writer.push_num(record.replay.outcome_hash);
    writer.push_num(record.replay.probe_hash);
    writer.push_num(record.replay.query_digests.len());
    for digest in &record.replay.query_digests {
        writer.push_num(*digest);
    }
    writer.push_duration(record.generation_time);
    writer.push_duration(record.engine_time);
    writer.push_duration(record.attribute_time);
    writer.push_duration(record.finished);
    writer.push_num(record.skipped);
    writer.push_num(record.findings.len());
    for finding in &record.findings {
        write_finding(writer, finding);
    }
    write_tally(writer, &record.probe_delta);
}

fn read_record(reader: &mut TokenReader) -> Result<IterationRecord, CodecError> {
    let iteration = reader.next_num("record iteration")?;
    let mut replay = crate::replay::ReplayFrame {
        iteration,
        sub_seed: reader.next_num("replay sub-seed")?,
        setup_hash: reader.next_num("replay setup hash")?,
        outcome_hash: reader.next_num("replay outcome hash")?,
        probe_hash: reader.next_num("replay probe hash")?,
        query_digests: Vec::new(),
    };
    let n_digests: usize = reader.next_num("query digest count")?;
    replay.query_digests.reserve(n_digests.min(1 << 20));
    for _ in 0..n_digests {
        replay.query_digests.push(reader.next_num("query digest")?);
    }
    let generation_time = reader.next_duration("generation time")?;
    let engine_time = reader.next_duration("engine time")?;
    let attribute_time = reader.next_duration("attribute time")?;
    let finished = reader.next_duration("finish time")?;
    let skipped = reader.next_num("skip count")?;
    let n_findings: usize = reader.next_num("finding count")?;
    let mut findings = Vec::with_capacity(n_findings.min(64));
    for _ in 0..n_findings {
        findings.push(read_finding(reader)?);
    }
    let probe_delta = read_tally(reader, "probe delta count")?;
    Ok(IterationRecord {
        iteration,
        findings,
        generation_time,
        engine_time,
        attribute_time,
        finished,
        skipped,
        probe_delta,
        replay,
    })
}

// ---------------------------------------------------------------------------
// Protocol messages
// ---------------------------------------------------------------------------

/// The worker's first line on stdout.
pub fn encode_handshake() -> String {
    format!("hello {WIRE_VERSION}")
}

/// Validates a worker handshake, rejecting any foreign protocol version.
pub fn decode_handshake(line: &str) -> Result<(), CodecError> {
    let mut reader = TokenReader::new(line);
    reader.header("hello", WIRE_VERSION)?;
    reader.finish()
}

/// A supervisor-to-worker message.
#[derive(Debug, Clone)]
pub enum ToWorker {
    /// The campaign, the worker's thread count, and (for guided campaigns)
    /// the frozen warm-up snapshot. Sent exactly once per worker process.
    Config {
        /// Worker threads the worker shards its leases over.
        threads: usize,
        /// The campaign configuration.
        campaign: CampaignConfig,
        /// The frozen guidance snapshot ([`crate::guidance::GuidanceMode::ColdProbe`] only).
        snapshot: Option<CoverageSnapshot>,
    },
    /// A lease over the iteration range `start .. start + len`.
    Lease {
        /// Lease id, echoed back by the worker's records and `done`.
        id: u64,
        /// First iteration index of the lease.
        start: usize,
        /// Number of iterations.
        len: usize,
    },
    /// An epoch-barrier guidance refresh: the cumulative coverage snapshot
    /// of every iteration before the new epoch window, merged in index
    /// order. The worker swaps its [`crate::guidance::Guidance`] before
    /// executing any later lease — stdin ordering guarantees the swap
    /// happens before any new-window iteration.
    Epoch {
        /// The refreshed cumulative snapshot.
        snapshot: CoverageSnapshot,
    },
    /// Clean shutdown.
    Exit,
}

/// Encodes the one-off worker configuration message. Fails with
/// [`CodecError::UnsupportedBackend`] when the campaign's backend has no
/// [`BackendSpec`].
pub fn encode_config_message(
    threads: usize,
    campaign: &CampaignConfig,
    snapshot: Option<&CoverageSnapshot>,
) -> Result<String, CodecError> {
    let mut writer = TokenWriter::new();
    writer.push_raw("config");
    writer.push_num(threads);
    write_campaign(&mut writer, campaign)?;
    writer.push_option(&SNAPSHOT, snapshot, write_snapshot);
    Ok(writer.finish())
}

/// Encodes a lease grant.
pub fn encode_lease_message(id: u64, start: usize, len: usize) -> String {
    format!("lease {id} {start} {len}")
}

/// Encodes an epoch-barrier guidance refresh.
pub fn encode_epoch_message(snapshot: &CoverageSnapshot) -> String {
    let mut writer = TokenWriter::new();
    writer.push_raw("epoch");
    write_snapshot(&mut writer, snapshot);
    writer.finish()
}

/// Encodes the shutdown message.
pub fn encode_exit_message() -> String {
    "exit".to_string()
}

/// Decodes any supervisor-to-worker line.
pub fn decode_to_worker(line: &str) -> Result<ToWorker, CodecError> {
    let mut reader = TokenReader::new(line);
    let message = match reader.next()? {
        "config" => ToWorker::Config {
            threads: reader.next_num("worker threads")?,
            campaign: read_campaign(&mut reader)?,
            snapshot: reader.next_option(&SNAPSHOT, read_snapshot)?,
        },
        "lease" => ToWorker::Lease {
            id: reader.next_num("lease id")?,
            start: reader.next_num("lease start")?,
            len: reader.next_num("lease length")?,
        },
        "epoch" => ToWorker::Epoch {
            snapshot: read_snapshot(&mut reader)?,
        },
        "exit" => ToWorker::Exit,
        other => return Err(reader.malformed("supervisor message", other)),
    };
    reader.finish()?;
    Ok(message)
}

/// A worker-to-supervisor message (after the handshake).
#[derive(Debug, Clone)]
pub enum FromWorker {
    /// The configuration was accepted; leases may follow.
    Configured,
    /// One completed iteration of a lease.
    Record {
        /// The lease the iteration belongs to.
        lease: u64,
        /// The iteration's record.
        record: IterationRecord,
    },
    /// Every iteration of the lease has been executed (its records — minus
    /// any the time budget cut off — were already streamed).
    Done {
        /// The finished lease.
        lease: u64,
    },
}

/// Encodes the configuration acknowledgement.
pub fn encode_configured_message() -> String {
    "configured".to_string()
}

/// Encodes one streamed iteration record.
pub fn encode_record_message(lease: u64, record: &IterationRecord) -> String {
    let mut writer = TokenWriter::new();
    writer.push_raw("record");
    writer.push_num(lease);
    write_record(&mut writer, record);
    writer.finish()
}

/// Encodes a lease completion.
pub fn encode_done_message(lease: u64) -> String {
    format!("done {lease}")
}

/// Decodes any worker-to-supervisor line (after the handshake).
pub fn decode_from_worker(line: &str) -> Result<FromWorker, CodecError> {
    let mut reader = TokenReader::new(line);
    let message = match reader.next()? {
        "configured" => FromWorker::Configured,
        "record" => FromWorker::Record {
            lease: reader.next_num("lease id")?,
            record: read_record(&mut reader)?,
        },
        "done" => FromWorker::Done {
            lease: reader.next_num("lease id")?,
        },
        other => return Err(reader.malformed("worker message", other)),
    };
    reader.finish()?;
    Ok(message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::FindingKind;
    use crate::generator::GenerationStrategy;
    use crate::guidance::GuidanceMode;
    use crate::rng::{seq::IndexedRandom, RngExt, SeedableRng, StdRng};
    use crate::transform::AffineStrategy;
    use spatter_sdb::FaultId;
    use spatter_topo::coverage::TOPO_PROBES;
    use spatter_topo::probe;
    use std::sync::Arc;
    use std::time::Duration;

    // -- random structure generators (the in-tree rng stands in for a
    //    property-testing crate: the workspace is std-only) ----------------

    fn random_string(rng: &mut StdRng) -> String {
        let len = rng.random_range(0..12usize);
        (0..len)
            .map(|_| {
                *[
                    'a', 'Z', '0', ' ', '%', '\t', '\n', '\r', '|', 'é', '→', '"', '\\',
                ]
                .choose(rng)
                .expect("non-empty")
            })
            .collect()
    }

    fn random_finding(rng: &mut StdRng) -> Finding {
        let all_faults: Vec<FaultId> = spatter_sdb::EngineProfile::PostgisLike
            .default_faults()
            .iter()
            .collect();
        let n_faults = rng.random_range(0..3usize);
        Finding {
            kind: if rng.random_bool(0.5) {
                FindingKind::Logic
            } else {
                FindingKind::Crash
            },
            side: *[
                crate::oracles::DivergenceSide::Left,
                crate::oracles::DivergenceSide::Right,
                crate::oracles::DivergenceSide::Both,
            ]
            .choose(rng)
            .expect("non-empty"),
            description: random_string(rng),
            iteration: rng.random_range(0..10_000usize),
            elapsed: Duration::from_nanos(rng.next_u64() >> 16),
            attributed_faults: (0..n_faults)
                .filter_map(|_| all_faults.choose(rng).copied())
                .collect(),
        }
    }

    fn random_record(rng: &mut StdRng) -> IterationRecord {
        let n_findings = rng.random_range(0..4usize);
        let n_probes = rng.random_range(0..6usize);
        let iteration = rng.random_range(0..100_000usize);
        IterationRecord {
            iteration,
            findings: (0..n_findings).map(|_| random_finding(rng)).collect(),
            generation_time: Duration::from_nanos(rng.next_u64() >> 16),
            engine_time: Duration::from_nanos(rng.next_u64() >> 16),
            attribute_time: Duration::from_nanos(rng.next_u64() >> 16),
            finished: Duration::from_nanos(rng.next_u64() >> 16),
            skipped: rng.random_range(0..50usize),
            probe_delta: (0..n_probes)
                .filter_map(|_| {
                    let probe = Probe::from_name(TOPO_PROBES.choose(rng)?)?;
                    Some((probe, rng.next_u64() >> 32))
                })
                .collect(),
            replay: crate::replay::ReplayFrame {
                iteration,
                sub_seed: rng.next_u64(),
                setup_hash: rng.next_u64(),
                outcome_hash: rng.next_u64(),
                probe_hash: rng.next_u64(),
                query_digests: (0..rng.random_range(0..5usize))
                    .map(|_| rng.next_u64())
                    .collect(),
            },
        }
    }

    fn random_campaign(rng: &mut StdRng) -> CampaignConfig {
        let profile = *[
            EngineProfile::PostgisLike,
            EngineProfile::MysqlLike,
            EngineProfile::DuckdbSpatialLike,
            EngineProfile::SqlServerLike,
        ]
        .choose(rng)
        .expect("non-empty");
        let backend_spec = match rng.random_range(0..4u32) {
            0 => BackendSpec::InProcess {
                profile,
                faults: profile.default_faults(),
            },
            1 => BackendSpec::Stdio {
                command: PathBuf::from(format!("/tmp/server dir/bin-{}", rng.next_u64() % 100)),
                profile,
                faults: FaultSet::none(),
                hard_crash: rng.random_bool(0.5),
            },
            2 => BackendSpec::External {
                dialect: crate::matrix::DialectSpec::sdb_server(
                    format!("/tmp/server dir/bin-{}", rng.next_u64() % 100),
                    profile,
                    FaultSet::none(),
                    rng.random_bool(0.5),
                ),
            },
            _ => BackendSpec::External {
                dialect: crate::matrix::DialectSpec {
                    name: random_string(rng),
                    command: PathBuf::from("/usr/bin/psql"),
                    args: (0..rng.random_range(0..4usize))
                        .map(|_| random_string(rng))
                        .collect(),
                    profile,
                    ready_prefix: if rng.random_bool(0.5) {
                        Some(random_string(rng))
                    } else {
                        None
                    },
                    terminator: ";".to_string(),
                    grammar: crate::matrix::ReplyGrammar::Sentinel {
                        echo_command: "\\echo SPATTER_DONE".to_string(),
                        done_marker: "SPATTER_DONE".to_string(),
                        error_prefixes: vec![
                            ("ERROR:".to_string(), false),
                            (random_string(rng), rng.random_bool(0.5)),
                        ],
                    },
                },
            },
        };
        let n_oracles = rng.random_range(1..4usize);
        let oracles = (0..n_oracles)
            .map(|_| match rng.random_range(0..5u32) {
                0 => OracleKind::Aei,
                1 => OracleKind::Differential(profile),
                2 => OracleKind::DifferentialTwin(backend_spec.clone()),
                3 => OracleKind::Index,
                _ => OracleKind::Tlp,
            })
            .collect();
        CampaignConfig {
            backend: backend_spec.build(),
            generator: GeneratorConfig {
                num_geometries: rng.random_range(1..40usize),
                num_tables: rng.random_range(1..5usize),
                strategy: if rng.random_bool(0.5) {
                    GenerationStrategy::GeometryAware
                } else {
                    GenerationStrategy::RandomShapeOnly
                },
                coordinate_range: rng.random_range(1..200i64),
                random_shape_probability: (rng.random_range(0..1001u64)) as f64 / 1000.0,
            },
            queries_per_run: rng.random_range(1..100usize),
            affine: *[
                AffineStrategy::CanonicalizationOnly,
                AffineStrategy::GeneralInteger,
                AffineStrategy::SimilarityInteger,
            ]
            .choose(rng)
            .expect("non-empty"),
            iterations: rng.random_range(0..10_000usize),
            time_budget: if rng.random_bool(0.3) {
                Some(Duration::from_nanos(rng.next_u64() >> 16))
            } else {
                None
            },
            attribute_findings: rng.random_bool(0.5),
            guidance: if rng.random_bool(0.5) {
                GuidanceMode::ColdProbe
            } else {
                GuidanceMode::Off
            },
            guidance_epoch: if rng.random_bool(0.3) {
                Some(rng.random_range(1..64usize))
            } else {
                None
            },
            mutations: if rng.random_bool(0.5) {
                Some(crate::mutation::MutationConfig {
                    statements_per_run: rng.random_range(1..32usize),
                    index_churn: rng.random_bool(0.5),
                })
            } else {
                None
            },
            oracles,
            seed: rng.next_u64(),
        }
    }

    fn assert_records_equal(a: &IterationRecord, b: &IterationRecord) {
        assert_eq!(a.iteration, b.iteration);
        assert_eq!(a.replay, b.replay);
        assert_eq!(a.generation_time, b.generation_time);
        assert_eq!(a.engine_time, b.engine_time);
        assert_eq!(a.attribute_time, b.attribute_time);
        assert_eq!(a.finished, b.finished);
        assert_eq!(a.skipped, b.skipped);
        assert_eq!(a.probe_delta, b.probe_delta);
        assert_eq!(a.findings.len(), b.findings.len());
        for (fa, fb) in a.findings.iter().zip(&b.findings) {
            assert_eq!(fa.kind, fb.kind);
            assert_eq!(fa.side, fb.side);
            assert_eq!(fa.description, fb.description);
            assert_eq!(fa.iteration, fb.iteration);
            assert_eq!(fa.elapsed, fb.elapsed);
            assert_eq!(fa.attributed_faults, fb.attributed_faults);
        }
    }

    /// Round-trips a record through a `record` message.
    fn round_trip_record(record: &IterationRecord) -> (String, IterationRecord) {
        let line = encode_record_message(7, record);
        match decode_from_worker(&line).expect("round trip") {
            FromWorker::Record { lease: 7, record } => (line, record),
            other => panic!("expected record 7, got {other:?}"),
        }
    }

    /// Round-trips a campaign through a `config` message.
    fn round_trip_campaign(config: &CampaignConfig) -> (String, CampaignConfig) {
        let line = encode_config_message(1, config, None).expect("encode");
        match decode_to_worker(&line).expect("decode") {
            ToWorker::Config { campaign, .. } => (line, campaign),
            other => panic!("expected config, got {other:?}"),
        }
    }

    /// The exotic corners of the IEEE-754 space: every one of these must
    /// cross the wire (and feed replay hashing) with its exact bit pattern —
    /// signed zeros distinct, NaN payloads unchanged, no canonicalization.
    const EXOTIC_F64_BITS: [u64; 10] = [
        0x0000_0000_0000_0000, // +0.0
        0x8000_0000_0000_0000, // -0.0
        0x7ff0_0000_0000_0000, // +inf
        0xfff0_0000_0000_0000, // -inf
        0x7ff8_0000_0000_0000, // canonical quiet NaN
        0x7ff8_dead_beef_cafe, // quiet NaN with payload
        0xfff8_0000_0000_0001, // negative quiet NaN with payload
        0x7ff0_0000_0000_0001, // signalling NaN
        0x0000_0000_0000_0001, // smallest subnormal
        0x800f_ffff_ffff_ffff, // largest negative subnormal
    ];

    #[test]
    fn exotic_f64_bit_patterns_round_trip_bit_exactly() {
        let mut rng = StdRng::seed_from_u64(0xf64);
        // A campaign's f64 field crosses the wire bit for bit.
        for &bits in &EXOTIC_F64_BITS {
            let mut config = random_campaign(&mut rng);
            config.generator.random_shape_probability = f64::from_bits(bits);
            let (line, decoded) = round_trip_campaign(&config);
            assert_eq!(decoded.generator.random_shape_probability.to_bits(), bits);
            // Re-encoding the decoded campaign is the identity: no stage of
            // the codec canonicalizes.
            assert_eq!(
                encode_config_message(1, &decoded, None).expect("encode"),
                line
            );
        }
        // And the replay hasher distinguishes every distinct pattern.
        let digests: Vec<u64> = EXOTIC_F64_BITS
            .iter()
            .map(|&bits| {
                let mut hasher = crate::replay::ReplayHasher::new();
                hasher.write_f64(f64::from_bits(bits));
                hasher.finish()
            })
            .collect();
        for i in 0..digests.len() {
            for j in i + 1..digests.len() {
                assert_ne!(
                    digests[i], digests[j],
                    "bit patterns {:#x} and {:#x} must hash apart",
                    EXOTIC_F64_BITS[i], EXOTIC_F64_BITS[j]
                );
            }
        }
    }

    #[test]
    fn records_round_trip_for_random_inputs() {
        let mut rng = StdRng::seed_from_u64(0xd157);
        for _ in 0..200 {
            let record = random_record(&mut rng);
            let (_, decoded) = round_trip_record(&record);
            assert_records_equal(&record, &decoded);
        }
    }

    #[test]
    fn campaigns_round_trip_for_random_inputs() {
        // CampaignConfig holds a live backend, so equality is checked on
        // the re-encoded line: encode is injective over the spec'd fields.
        let mut rng = StdRng::seed_from_u64(0xca3f41);
        for _ in 0..100 {
            let config = random_campaign(&mut rng);
            let (line, decoded) = round_trip_campaign(&config);
            assert_eq!(
                encode_config_message(1, &decoded, None).expect("re-encode"),
                line
            );
            assert_eq!(decoded.oracles, config.oracles);
            assert_eq!(decoded.generator, config.generator);
            assert_eq!(decoded.mutations, config.mutations);
            assert_eq!(decoded.backend.wire_spec(), config.backend.wire_spec());
        }
    }

    #[test]
    fn snapshots_round_trip_by_probe_name() {
        let mut snapshot = CoverageSnapshot::new();
        snapshot.absorb(&[
            (probe!("topo.predicate.intersects"), 41),
            (probe!("topo.distance.dwithin"), 1),
            (probe!("topo.relate.noding"), u64::MAX / 2),
        ]);
        // Entries travel by name, in probe (= name) order.
        assert_eq!(
            encode_epoch_message(&snapshot),
            format!(
                "epoch 3 topo.distance.dwithin 1 topo.predicate.intersects 41 \
                 topo.relate.noding {}",
                u64::MAX / 2
            )
        );
        let decoded = match decode_to_worker(&encode_epoch_message(&snapshot)) {
            Ok(ToWorker::Epoch { snapshot }) => snapshot,
            other => panic!("expected epoch, got {other:?}"),
        };
        assert_eq!(decoded, snapshot);
        assert_eq!(decoded.count(probe!("topo.predicate.intersects")), 41);
    }

    #[test]
    fn unknown_probes_and_faults_are_structured_errors() {
        assert!(matches!(
            decode_to_worker("epoch 1 not.a.probe 3"),
            Err(CodecError::UnknownProbe(name)) if name == "not.a.probe"
        ));
        let mut writer = TokenWriter::new();
        write_faults(&mut writer, &FaultSet::none());
        assert_eq!(writer.finish(), "none");
        let mut reader = TokenReader::new("NoSuchFault,AlsoNot");
        assert!(matches!(
            read_faults(&mut reader),
            Err(CodecError::UnknownFault(_))
        ));
        let mut reader = TokenReader::new("klingon_like");
        assert!(matches!(
            read_profile(&mut reader),
            Err(CodecError::UnknownProfile(_))
        ));
    }

    #[test]
    fn truncated_and_garbage_input_never_panics() {
        // Every token prefix of a valid line is a structured decode error —
        // the codec never panics and never silently succeeds on partial
        // input.
        let mut rng = StdRng::seed_from_u64(7);
        let record = random_record(&mut rng);
        let line = encode_record_message(0, &record);
        let tokens: Vec<&str> = line.split(' ').collect();
        for keep in 0..tokens.len() {
            let result = decode_from_worker(&tokens[..keep].join(" "));
            assert!(result.is_err(), "prefix of {keep} tokens must not decode");
        }
        // Trailing garbage after a valid message is rejected too.
        assert!(matches!(
            decode_from_worker(&format!("{line} surprise")),
            Err(CodecError::TrailingInput { .. })
        ));

        // Arbitrary garbage lines decode to errors across every entry point.
        for garbage in [
            "",
            "   ",
            "lease",
            "record 1 2 3",
            "ROWS 4 4",
            "config -3 x",
            "%zz %q",
            "done done",
            "hello world",
            "\u{1F980} claws",
            "record 0 18446744073709551616",
            "epoch 1 topo.centroid%+9 1",
        ] {
            assert!(decode_to_worker(garbage).is_err());
            assert!(decode_from_worker(garbage).is_err());
            assert!(decode_handshake(garbage).is_err());
        }
    }

    #[test]
    fn handshake_rejects_version_mismatch() {
        assert_eq!(decode_handshake(&encode_handshake()), Ok(()));
        assert_eq!(
            decode_handshake("hello 999"),
            Err(CodecError::VersionMismatch {
                magic: "hello",
                ours: WIRE_VERSION,
                theirs: 999
            })
        );
        assert!(decode_handshake("hello").is_err());
        assert_eq!(
            decode_handshake("goodbye 1"),
            Err(CodecError::MissingHeader { magic: "hello" })
        );
        assert!(matches!(
            decode_handshake(&format!("hello {WIRE_VERSION} extra")),
            Err(CodecError::TrailingInput { .. })
        ));
    }

    #[test]
    fn unencodable_backends_are_rejected_with_a_structured_error() {
        #[derive(Debug)]
        struct Opaque;
        impl crate::backend::EngineBackend for Opaque {
            fn profile(&self) -> EngineProfile {
                EngineProfile::PostgisLike
            }
            fn open_session(
                &self,
            ) -> Result<Box<dyn crate::backend::EngineSession>, crate::backend::BackendError>
            {
                unimplemented!("never opened in this test")
            }
            fn fault_ids(&self) -> Vec<spatter_sdb::FaultId> {
                Vec::new()
            }
            fn without_fault(
                &self,
                _: spatter_sdb::FaultId,
            ) -> Box<dyn crate::backend::EngineBackend> {
                Box::new(Opaque)
            }
        }
        let config = CampaignConfig::default().with_backend(Arc::new(Opaque));
        assert!(matches!(
            encode_config_message(1, &config, None),
            Err(CodecError::UnsupportedBackend(_))
        ));
    }

    #[test]
    fn protocol_messages_round_trip() {
        let config = CampaignConfig::default();
        let mut snapshot = CoverageSnapshot::new();
        snapshot.absorb(&[(probe!("topo.centroid"), 2)]);
        let line = encode_config_message(3, &config, Some(&snapshot)).expect("encode");
        match decode_to_worker(&line).expect("decode") {
            ToWorker::Config {
                threads,
                campaign,
                snapshot: decoded,
            } => {
                assert_eq!(threads, 3);
                assert_eq!(decoded, Some(snapshot.clone()));
                assert_eq!(campaign.oracles, config.oracles);
            }
            other => panic!("expected config, got {other:?}"),
        }

        match decode_to_worker(&encode_lease_message(9, 100, 4)).expect("decode") {
            ToWorker::Lease { id, start, len } => assert_eq!((id, start, len), (9, 100, 4)),
            other => panic!("expected lease, got {other:?}"),
        }
        match decode_to_worker(&encode_epoch_message(&snapshot)).expect("decode") {
            ToWorker::Epoch { snapshot: decoded } => assert_eq!(decoded, snapshot),
            other => panic!("expected epoch, got {other:?}"),
        }
        assert!(matches!(
            decode_to_worker(&encode_exit_message()),
            Ok(ToWorker::Exit)
        ));

        assert!(matches!(
            decode_from_worker(&encode_configured_message()),
            Ok(FromWorker::Configured)
        ));
        let mut rng = StdRng::seed_from_u64(3);
        let record = random_record(&mut rng);
        match decode_from_worker(&encode_record_message(7, &record)).expect("decode") {
            FromWorker::Record { lease, record: r } => {
                assert_eq!(lease, 7);
                assert_records_equal(&record, &r);
            }
            other => panic!("expected record, got {other:?}"),
        }
        assert!(matches!(
            decode_from_worker(&encode_done_message(7)),
            Ok(FromWorker::Done { lease: 7 })
        ));
    }
}
