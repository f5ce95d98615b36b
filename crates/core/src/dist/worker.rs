//! The campaign worker process: the serve loop behind the
//! `spatter-campaign-worker` binary.
//!
//! A worker is one shared-nothing campaign executor. It announces itself
//! with the wire handshake, receives its [`CampaignConfig`] (backend spec,
//! oracle suite, optional frozen guidance snapshot) exactly once, and then
//! executes iteration leases. The worker owns only the protocol: each
//! `lease` line is served by the runner's one claim loop
//! (`CampaignRunner::run_range`) over the worker's own thread pool, and
//! every finished [`IterationRecord`](crate::runner::IterationRecord) is
//! streamed back as a `record` line the moment it completes. Records are
//! streamed (rather than batched per lease) so that when the process dies
//! mid-lease the supervisor only re-leases the iterations it never
//! received; everything already streamed is acknowledged work.
//!
//! Workers never read coverage state from anywhere but their own
//! iterations: the guidance snapshot arrives over the wire (in the
//! configuration, then in every `epoch` refresh the supervisor's schedule
//! releases), and every guided decision is the same pure function of
//! `(snapshot, seed, iteration)` the in-process runner computes — which is
//! why a distributed campaign merges byte-identically to a single-process
//! one.

use crate::codec::CodecError;
use crate::dist::wire::{self, ToWorker};
use crate::guidance::Guidance;
use crate::runner::CampaignRunner;
use std::fmt;
use std::io::{BufRead, Write};
use std::ops::ControlFlow;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Why a worker's serve loop stopped abnormally.
#[derive(Debug)]
pub enum WorkerError {
    /// A supervisor line could not be decoded.
    Wire(CodecError),
    /// The stdio transport to the supervisor failed.
    Io(std::io::Error),
    /// A message arrived in the wrong state (e.g. a lease before the
    /// configuration, or a second configuration).
    Protocol(String),
}

impl fmt::Display for WorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerError::Wire(e) => write!(f, "wire error: {e}"),
            WorkerError::Io(e) => write!(f, "transport error: {e}"),
            WorkerError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for WorkerError {}

impl From<CodecError> for WorkerError {
    fn from(e: CodecError) -> Self {
        WorkerError::Wire(e)
    }
}

impl From<std::io::Error> for WorkerError {
    fn from(e: std::io::Error) -> Self {
        WorkerError::Io(e)
    }
}

/// The configured half of a worker: the runner (owning the rebuilt backend)
/// plus the guidance rebuilt from the shipped snapshot and the thread count
/// its leases are sharded over.
struct WorkerState {
    runner: CampaignRunner,
    guidance: Option<Guidance>,
    threads: usize,
    /// The worker's own campaign clock, started when the configuration
    /// arrives. Only wall-clock fields (excluded from the determinism
    /// fingerprint) observe it.
    start: Instant,
}

/// Runs the worker serve loop until the supervisor sends `exit` or closes
/// the stream. Clean EOF is a normal shutdown (the supervisor went away);
/// malformed input is an error so a version- or build-skewed pairing fails
/// loudly instead of corrupting a campaign.
pub fn serve(input: impl BufRead, mut output: impl Write + Send) -> Result<(), WorkerError> {
    writeln!(output, "{}", wire::encode_handshake())?;
    output.flush()?;

    let mut state: Option<WorkerState> = None;
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        match wire::decode_to_worker(&line)? {
            ToWorker::Config {
                threads,
                campaign,
                snapshot,
            } => {
                if state.is_some() {
                    return Err(WorkerError::Protocol(
                        "received a second configuration".to_string(),
                    ));
                }
                state = Some(WorkerState {
                    runner: CampaignRunner::new(campaign),
                    guidance: snapshot.as_ref().map(Guidance::from_snapshot),
                    threads: threads.max(1),
                    start: Instant::now(),
                });
                writeln!(output, "{}", wire::encode_configured_message())?;
                output.flush()?;
            }
            ToWorker::Lease { id, start, len } => {
                let state = state.as_ref().ok_or_else(|| {
                    WorkerError::Protocol("received a lease before the configuration".to_string())
                })?;
                run_lease(state, id, start, len, &mut output)?;
            }
            ToWorker::Epoch { snapshot } => {
                // The epoch-barrier guidance refresh. Stdin ordering puts
                // this line before any lease of the new window, so every
                // later iteration is generated under the refreshed
                // cumulative snapshot — the same pure function of the seed
                // the in-process epoch loop computes.
                let state = state.as_mut().ok_or_else(|| {
                    WorkerError::Protocol(
                        "received an epoch refresh before the configuration".to_string(),
                    )
                })?;
                state.guidance = Some(Guidance::from_snapshot(&snapshot));
            }
            ToWorker::Exit => return Ok(()),
        }
    }
    Ok(())
}

/// Executes one lease with the runner's claim loop, streaming each
/// iteration's record as soon as it finishes and closing with `done`. The
/// encoded record is written under a mutex so concurrent threads cannot
/// interleave partial lines; after a write fails, no thread streams again.
fn run_lease(
    state: &WorkerState,
    lease: u64,
    start: usize,
    len: usize,
    output: &mut (impl Write + Send),
) -> Result<(), WorkerError> {
    let sink = Mutex::new((output, None::<std::io::Error>));
    let range = start..start.saturating_add(len);
    let guidance = state.guidance.as_ref();
    state
        .runner
        .run_range(range, state.start, guidance, state.threads, |record| {
            let line = wire::encode_record_message(lease, &record);
            // A panic on another thread while it held the sink leaves at
            // worst a recorded transport error behind; keep serving.
            let mut guard = sink.lock().unwrap_or_else(PoisonError::into_inner);
            if guard.1.is_some() {
                return ControlFlow::Break(());
            }
            if let Err(e) = writeln!(guard.0, "{line}").and_then(|()| guard.0.flush()) {
                guard.1 = Some(e);
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        });

    let (output, error) = sink.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some(error) = error {
        return Err(WorkerError::Io(error));
    }
    writeln!(output, "{}", wire::encode_done_message(lease))?;
    output.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignConfig, CampaignReport};
    use crate::dist::wire::FromWorker;
    use crate::generator::{GenerationStrategy, GeneratorConfig};
    use crate::schedule::Schedule;
    use crate::transform::AffineStrategy;
    use spatter_sdb::EngineProfile;
    use std::io::BufReader;
    use std::time::Duration;

    fn config(seed: u64, iterations: usize) -> CampaignConfig {
        CampaignConfig {
            generator: GeneratorConfig {
                num_geometries: 8,
                num_tables: 2,
                strategy: GenerationStrategy::GeometryAware,
                coordinate_range: 30,
                random_shape_probability: 0.5,
            },
            queries_per_run: 10,
            affine: AffineStrategy::GeneralInteger,
            iterations,
            seed,
            ..CampaignConfig::stock(EngineProfile::PostgisLike)
        }
    }

    /// Drives the serve loop in-process over string transcripts — the
    /// fast-feedback twin of the subprocess tests in
    /// `tests/distributed_campaign.rs`.
    fn converse(script: &[String]) -> Vec<String> {
        let input = script.join("\n");
        let mut output = Vec::new();
        serve(BufReader::new(input.as_bytes()), &mut output).expect("serve");
        String::from_utf8(output)
            .expect("utf8 output")
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn worker_executes_leases_identically_to_the_runner() {
        let campaign = config(3, 6);
        let script = vec![
            wire::encode_config_message(2, &campaign, None).unwrap(),
            wire::encode_lease_message(0, 0, 3),
            wire::encode_lease_message(1, 3, 3),
            wire::encode_exit_message(),
        ];
        let lines = converse(&script);
        assert!(wire::decode_handshake(&lines[0]).is_ok());
        assert!(matches!(
            wire::decode_from_worker(&lines[1]),
            Ok(FromWorker::Configured)
        ));

        let mut records = Vec::new();
        let mut done = Vec::new();
        for line in &lines[2..] {
            match wire::decode_from_worker(line).expect("worker line") {
                FromWorker::Record { record, .. } => records.push(record),
                FromWorker::Done { lease } => done.push(lease),
                FromWorker::Configured => panic!("second configured"),
            }
        }
        assert_eq!(done, vec![0, 1]);
        assert_eq!(records.len(), 6);

        // The streamed records merge into exactly the report the in-process
        // runner produces for the same campaign — and carry, verbatim, the
        // same replay frames an in-process recorder collects.
        let recorder = std::sync::Arc::new(crate::replay::ReplayRecorder::new());
        let reference: CampaignReport = CampaignRunner::new(config(3, 6))
            .with_replay_sink(recorder.clone())
            .run();
        let frames: std::collections::BTreeMap<_, _> = recorder
            .frames()
            .into_iter()
            .map(|frame| (frame.iteration, frame))
            .collect();
        for record in &records {
            assert_eq!(
                Some(&record.replay),
                frames.get(&record.iteration),
                "iteration {} replay frame differs from the in-process runner's",
                record.iteration
            );
        }
        let mut schedule = Schedule::new(&campaign, Instant::now(), |_| {
            unreachable!("an unguided campaign has no warm-up")
        });
        for record in records {
            schedule.complete(record);
        }
        let via_worker = schedule.into_report(Duration::from_secs(1));
        assert_eq!(
            via_worker.determinism_fingerprint(),
            reference.determinism_fingerprint()
        );
    }

    #[test]
    fn lease_before_config_is_a_protocol_error() {
        let input = wire::encode_lease_message(0, 0, 1);
        let mut output = Vec::new();
        let error = serve(BufReader::new(input.as_bytes()), &mut output)
            .expect_err("lease before config must fail");
        assert!(matches!(error, WorkerError::Protocol(_)), "{error}");
    }

    #[test]
    fn second_config_is_a_protocol_error() {
        let campaign = config(1, 1);
        let config_line = wire::encode_config_message(1, &campaign, None).unwrap();
        let input = format!("{config_line}\n{config_line}\n");
        let mut output = Vec::new();
        let error = serve(BufReader::new(input.as_bytes()), &mut output)
            .expect_err("second config must fail");
        assert!(matches!(error, WorkerError::Protocol(_)), "{error}");
    }

    #[test]
    fn garbage_input_is_a_wire_error_not_a_panic() {
        for garbage in ["??? what", "lease one two three", "config"] {
            let mut output = Vec::new();
            let error = serve(BufReader::new(garbage.as_bytes()), &mut output)
                .expect_err("garbage must fail");
            assert!(matches!(error, WorkerError::Wire(_)), "{error}");
        }
    }

    #[test]
    fn eof_without_exit_is_a_clean_shutdown() {
        let campaign = config(1, 1);
        let input = wire::encode_config_message(1, &campaign, None).unwrap();
        let mut output = Vec::new();
        serve(BufReader::new(input.as_bytes()), &mut output).expect("EOF is clean");
    }
}
