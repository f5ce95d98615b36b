//! Multi-process distributed campaigns: shared-nothing worker processes
//! supervised over a line-delimited wire protocol.
//!
//! A [`DistRunner`] supervisor connects K `spatter-campaign-worker`
//! executors (child processes over stdio pipes, or remote peers over TCP
//! through the [`crate::fabric`] transport layer — the supervisor event
//! loop cannot tell the difference). Each worker serves leased iteration
//! ranges with the runner's claim loop and streams its
//! [`IterationRecord`](crate::runner::IterationRecord)s back over the
//! [`wire`] codec.
//!
//! # Who owns what
//!
//! The supervisor owns only what belongs to leases: the pending queue,
//! lease grants, reclaiming a dead worker's leases, respawns, and adaptive
//! lease sizing. Everything about *which iteration runs under which
//! guidance* belongs to the campaign's `Schedule` (`crate::schedule`), the
//! same one the in-process [`CampaignRunner`] drives: the supervisor runs
//! the warm-up through it, ships the warm-up snapshot in the configuration
//! line, leases only the windows it releases, broadcasts each later
//! window's snapshot as an `epoch` line (replayed to respawned workers),
//! and hands every streamed record to it for the first-wins,
//! index-ordered merge.
//!
//! # Determinism
//!
//! Every iteration is a pure function of `(campaign seed, iteration
//! index)` and the guidance the schedule gave its window, so *where* an
//! iteration executes can never change what it produces. A distributed
//! campaign is therefore **byte-identical** (findings, attribution, skip
//! counts, probe coverage — [`CampaignReport::determinism_fingerprint`])
//! to the single-process runner for any transport and any processes ×
//! threads split, guided and epoch-guided campaigns included.
//!
//! # Crash survival and elastic leases
//!
//! Work is distributed as small chunked *leases* rather than static
//! per-worker ranges: a fast worker simply takes more leases, so one
//! finding-heavy (attribution-heavy) range cannot straggle the campaign
//! behind an idle fleet. With [`LeasePolicy::Adaptive`] lease length is
//! additionally sized per worker from an EWMA of its observed
//! per-iteration cost, so a slow worker is granted short leases (little to
//! reclaim, little tail latency) while fast workers get long ones (less
//! protocol chatter). Workers stream each record as it completes; when a
//! worker dies (crash, OOM-kill, the supervisor's own fault injection in
//! tests) the supervisor reclaims exactly the *unacknowledged* iterations
//! of its outstanding leases, re-enqueues them for the surviving workers,
//! captures the dead worker's stderr tail into [`SlotDiagnostics`], and
//! respawns the slot — the distributed equivalent of `StdioBackend`'s
//! respawn-and-replay.

pub mod wire;
pub mod worker;

use crate::campaign::{CampaignConfig, CampaignReport};
use crate::codec::CodecError;
use crate::dist::wire::FromWorker;
use crate::fabric::{ChannelControl, StdioTransport, Transport};
use crate::replay::ReplaySink;
use crate::runner::CampaignRunner;
use crate::schedule::Schedule;
use spatter_sdb::server::read_frame;
use std::collections::VecDeque;
use std::fmt;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Maximum leases a worker holds at once. Two keeps the pipe primed — the
/// worker starts the next lease the instant it finishes one — while keeping
/// the re-lease window after a crash small.
const LEASES_IN_FLIGHT: usize = 2;

/// EWMA weight of the newest per-iteration cost observation under
/// [`LeasePolicy::Adaptive`].
const EWMA_ALPHA: f64 = 0.3;

/// How lease lengths are chosen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeasePolicy {
    /// Every lease is [`DistConfig::lease_chunk`] iterations.
    Fixed,
    /// Lease length is sized per worker from an EWMA of the wall time the
    /// supervisor observes between that worker's records: slow workers get
    /// leases near `min` (small reclaim window, small tail), fast workers
    /// up to `max` (less protocol chatter). Until a worker has delivered
    /// two records it is granted `min`. Lease *sizing* is wall-clock
    /// driven, but which iteration lands where never changes what it
    /// produces — the merged report stays byte-identical to any other
    /// policy or fleet shape.
    Adaptive {
        /// Smallest lease ever granted (clamped to at least 1).
        min: usize,
        /// Largest lease ever granted.
        max: usize,
        /// Wall time one lease should take; length ≈ `target / ewma_cost`.
        target: Duration,
    },
}

/// Configuration of the distributed supervisor (everything that is about
/// *how* to run the campaign across processes; the campaign itself lives in
/// [`CampaignConfig`]).
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Path to the `spatter-campaign-worker` binary (used by the default
    /// stdio transport; ignored when [`DistRunner::with_transport`]
    /// supplies another transport that does not spawn it).
    pub worker_command: PathBuf,
    /// Number of worker processes (clamped to at least 1).
    pub processes: usize,
    /// Worker threads per process; the total parallelism is
    /// `processes × threads_per_worker`.
    pub threads_per_worker: usize,
    /// Iterations per lease under [`LeasePolicy::Fixed`]. Small leases
    /// steal better (an attribution-heavy chunk is re-leasable in small
    /// pieces); large leases amortize protocol chatter.
    pub lease_chunk: usize,
    /// The lease sizing policy.
    pub lease_policy: LeasePolicy,
    /// Total worker respawns the campaign tolerates before giving up.
    pub max_respawns: usize,
    /// Extra command-line arguments for specific worker slots, passed to
    /// the transport's spawner (e.g. `--iteration-delay-ms` to make one
    /// slot a deliberate straggler in tests).
    pub worker_slot_args: Vec<(usize, Vec<String>)>,
    /// Test-only fault injection: kill worker process `.0` as soon as it
    /// has delivered `.1` records. The campaign must still complete, and
    /// byte-identically — this is how the crash-recovery tests make a
    /// worker die mid-lease deterministically.
    pub kill_worker_after_records: Option<(usize, usize)>,
}

impl DistConfig {
    /// A supervisor configuration for a worker binary, with 2 processes ×
    /// 2 threads and small fixed leases.
    pub fn new(worker_command: impl Into<PathBuf>) -> Self {
        DistConfig {
            worker_command: worker_command.into(),
            processes: 2,
            threads_per_worker: 2,
            lease_chunk: 2,
            lease_policy: LeasePolicy::Fixed,
            max_respawns: 3,
            worker_slot_args: Vec::new(),
            kill_worker_after_records: None,
        }
    }

    /// Sets the worker process count.
    pub fn with_processes(mut self, processes: usize) -> Self {
        self.processes = processes.max(1);
        self
    }

    /// Sets the per-process thread count.
    pub fn with_threads_per_worker(mut self, threads: usize) -> Self {
        self.threads_per_worker = threads.max(1);
        self
    }

    /// Sets the fixed lease chunk size (and selects [`LeasePolicy::Fixed`]).
    pub fn with_lease_chunk(mut self, chunk: usize) -> Self {
        self.lease_chunk = chunk.max(1);
        self.lease_policy = LeasePolicy::Fixed;
        self
    }

    /// Selects [`LeasePolicy::Adaptive`] lease sizing.
    pub fn with_adaptive_leases(mut self, min: usize, max: usize, target: Duration) -> Self {
        let min = min.max(1);
        self.lease_policy = LeasePolicy::Adaptive {
            min,
            max: max.max(min),
            target,
        };
        self
    }

    /// Appends extra arguments for one worker slot (see
    /// [`DistConfig::worker_slot_args`]).
    pub fn with_worker_slot_args(mut self, slot: usize, args: Vec<String>) -> Self {
        self.worker_slot_args.push((slot, args));
        self
    }

    /// Sets the respawn budget.
    pub fn with_max_respawns(mut self, respawns: usize) -> Self {
        self.max_respawns = respawns;
        self
    }

    /// Arms the test-only kill switch (see the field docs).
    pub fn with_kill_worker_after_records(mut self, worker: usize, records: usize) -> Self {
        self.kill_worker_after_records = Some((worker, records));
        self
    }
}

/// What the supervisor knows about one dead worker incarnation: its slot,
/// its generation, and the tail of its captured stderr — the lines that
/// explain the death, which used to be inherited and lost.
#[derive(Debug, Clone)]
pub struct SlotDiagnostics {
    /// The worker slot index.
    pub worker: usize,
    /// The incarnation (0 for the initial spawn, +1 per respawn).
    pub generation: u64,
    /// The last captured stderr lines, oldest first. Empty for remote
    /// peers whose stderr the supervisor cannot observe.
    pub stderr_tail: Vec<String>,
}

impl fmt::Display for SlotDiagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker {} (generation {})", self.worker, self.generation)?;
        if self.stderr_tail.is_empty() {
            write!(f, ": no stderr captured")
        } else {
            write!(f, " stderr tail:")?;
            for line in &self.stderr_tail {
                write!(f, "\n    {line}")?;
            }
            Ok(())
        }
    }
}

/// Why a distributed campaign failed. (Individual worker *crashes* are not
/// failures — they are recovered; these are the unrecoverable ends.)
#[derive(Debug)]
pub enum DistError {
    /// A value could not be encoded for — or decoded from — the wire.
    Wire(CodecError),
    /// Spawning or talking to a worker failed at the transport level and
    /// recovery was impossible.
    Io(std::io::Error),
    /// A worker violated the protocol (e.g. an unparsable line); its slot
    /// is treated as dead, and this error surfaces only when recovery is
    /// exhausted too.
    Protocol {
        /// The worker slot index.
        worker: usize,
        /// What went wrong.
        message: String,
    },
    /// A worker could not be brought up (died before, during or right
    /// after the handshake), with its captured stderr tail.
    WorkerFailed {
        /// The worker slot index.
        worker: usize,
        /// What went wrong.
        message: String,
        /// The worker's captured stderr tail, oldest first.
        stderr_tail: Vec<String>,
    },
    /// Workers kept dying and the respawn budget ran out with iterations
    /// still unexecuted.
    RespawnsExhausted {
        /// Iterations that were never acknowledged.
        lost_iterations: usize,
        /// Per-incarnation diagnostics of every worker death the
        /// supervisor observed, in death order.
        diagnostics: Vec<SlotDiagnostics>,
    },
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Wire(e) => write!(f, "wire error: {e}"),
            DistError::Io(e) => write!(f, "worker transport error: {e}"),
            DistError::Protocol { worker, message } => {
                write!(f, "worker {worker} protocol error: {message}")
            }
            DistError::WorkerFailed {
                worker,
                message,
                stderr_tail,
            } => {
                write!(f, "worker {worker} failed to come up: {message}")?;
                for line in stderr_tail {
                    write!(f, "\n    stderr: {line}")?;
                }
                Ok(())
            }
            DistError::RespawnsExhausted {
                lost_iterations,
                diagnostics,
            } => {
                write!(
                    f,
                    "worker respawn budget exhausted with {lost_iterations} iterations unexecuted"
                )?;
                for diagnostic in diagnostics {
                    write!(f, "\n  {diagnostic}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for DistError {}

impl From<CodecError> for DistError {
    fn from(e: CodecError) -> Self {
        DistError::Wire(e)
    }
}

impl From<std::io::Error> for DistError {
    fn from(e: std::io::Error) -> Self {
        DistError::Io(e)
    }
}

/// Observability counters of one distributed run.
#[derive(Debug, Clone, Default)]
pub struct DistStats {
    /// Worker processes spawned in total (initial fleet + respawns).
    pub spawns: usize,
    /// Respawns after worker deaths.
    pub respawns: usize,
    /// Leases granted (including re-leases of reclaimed work).
    pub leases_granted: usize,
    /// Adaptive-lease grants whose length differed from the same slot's
    /// previous grant — how often [`LeasePolicy::Adaptive`] actually
    /// resized. Always 0 under [`LeasePolicy::Fixed`].
    pub leases_resized: usize,
    /// Iteration records received from workers.
    pub records_received: usize,
    /// Records delivered by each worker slot (across its incarnations).
    pub records_per_slot: Vec<usize>,
    /// Records for an iteration that was already complete (re-executed
    /// after a partial lease was reclaimed; merged first-wins).
    pub duplicate_records: usize,
    /// Epoch-barrier guidance broadcasts sent (see
    /// [`CampaignConfig::guidance_epoch`]).
    pub guidance_epochs: usize,
    /// Time spent decoding worker record lines.
    pub decode_time: Duration,
    /// Time spent in the final index-ordered merge.
    pub merge_time: Duration,
}

/// The distributed campaign supervisor. `DistRunner::new(campaign,
/// dist).run()` is the multi-process counterpart of
/// `CampaignRunner::new(campaign).with_workers(n).run()`.
pub struct DistRunner {
    campaign: CampaignConfig,
    dist: DistConfig,
    replay_sink: Option<Arc<dyn ReplaySink>>,
    transport: Option<Box<dyn Transport>>,
}

impl DistRunner {
    /// Creates a supervisor for a campaign, reaching workers over the
    /// default stdio transport (child processes of
    /// [`DistConfig::worker_command`]).
    pub fn new(campaign: CampaignConfig, dist: DistConfig) -> Self {
        DistRunner {
            campaign,
            dist,
            replay_sink: None,
            transport: None,
        }
    }

    /// Replaces the worker transport — e.g. [`crate::fabric::TcpTransport`]
    /// to drive workers over sockets. The supervisor's event loop, lease
    /// protocol and merge are transport-agnostic, so the campaign report is
    /// byte-identical on any transport.
    pub fn with_transport(mut self, transport: Box<dyn Transport>) -> Self {
        self.transport = Some(transport);
        self
    }

    /// Attaches a replay sink, the multi-process counterpart of
    /// [`CampaignRunner::with_replay_sink`]. Warm-up frames are delivered
    /// from the supervisor's own warm-up runner; leased frames arrive
    /// inside the workers' record messages and are delivered verbatim —
    /// never recomputed — as each iteration completes (first-wins, like the
    /// record merge).
    pub fn with_replay_sink(mut self, sink: Arc<dyn ReplaySink>) -> Self {
        self.replay_sink = Some(sink);
        self
    }

    /// Runs the distributed campaign and merges every worker's records into
    /// one report, byte-identical to the in-process runner's.
    ///
    /// A `time_budget` is enforced by the supervisor at *lease* granularity:
    /// workers receive a budget-erased configuration and always execute a
    /// granted lease to completion, while the supervisor stops granting new
    /// leases once the budget (measured on its own campaign clock, like the
    /// in-process runner's) expires. Budgeted campaigns therefore stop near
    /// the deadline with every executed iteration fully recorded — never
    /// with silently half-executed leases — but, exactly as with the
    /// thread-sharded runner, *which* iterations fit the budget is wall-
    /// clock dependent; the byte-identity contract is for
    /// iteration-bounded campaigns.
    pub fn run(&self) -> Result<CampaignReport, DistError> {
        self.run_with_stats().map(|(report, _)| report)
    }

    /// [`DistRunner::run`], also returning the supervisor's counters.
    pub fn run_with_stats(&self) -> Result<(CampaignReport, DistStats), DistError> {
        let start = Instant::now();

        // The schedule runs the guidance warm-up here on the supervisor,
        // like the in-process runner's calling thread: its records are part
        // of the campaign, and its snapshot is what every worker receives.
        let mut runner = CampaignRunner::new(self.campaign.clone());
        if let Some(sink) = &self.replay_sink {
            runner = runner.with_replay_sink(Arc::clone(sink));
        }
        let mut schedule = Schedule::new(&self.campaign, start, |iteration| {
            runner.run_iteration(iteration, start, None)
        });
        let first_window = schedule.next_window();

        // Workers get the budget *erased*: a worker that hit the budget
        // mid-lease would drop the lease's tail while still reporting it
        // done, silently losing iterations. The supervisor instead enforces
        // the budget by not granting leases past the deadline (see `run`).
        let worker_campaign = CampaignConfig {
            time_budget: None,
            ..self.campaign.clone()
        };
        let config_line = wire::encode_config_message(
            self.dist.threads_per_worker.max(1),
            &worker_campaign,
            schedule.snapshot(),
        )?;

        let owned_transport: Box<dyn Transport>;
        let transport: &dyn Transport = match &self.transport {
            Some(transport) => transport.as_ref(),
            None => {
                let mut stdio = StdioTransport::new(&self.dist.worker_command);
                for (slot, args) in &self.dist.worker_slot_args {
                    stdio = stdio.with_slot_args(*slot, args.clone());
                }
                owned_transport = Box::new(stdio);
                owned_transport.as_ref()
            }
        };

        let mut stats = DistStats::default();
        if let Some(window) = first_window {
            let mut supervisor = Supervisor {
                dist: &self.dist,
                transport,
                config_line,
                slots: Vec::new(),
                pending: VecDeque::from([(window.start, window.len())]),
                schedule: &mut schedule,
                next_lease: 0,
                stats: &mut stats,
                kill_armed: self.dist.kill_worker_after_records,
                replay_sink: self.replay_sink.as_deref(),
                epoch_line: None,
                diagnostics: Vec::new(),
            };
            supervisor.run()?;
        }

        stats.duplicate_records = schedule.duplicates();
        let merge_start = Instant::now();
        let report = schedule.into_report(start.elapsed());
        stats.merge_time = merge_start.elapsed();
        Ok((report, stats))
    }
}

/// Cuts the next lease of at most `len` iterations off the front of the
/// pending queue, leaving the remainder of a partially consumed range at
/// the front.
fn take_lease(pending: &mut VecDeque<(usize, usize)>, len: usize) -> Option<(usize, usize)> {
    let (start, available) = pending.pop_front()?;
    let take = len.max(1).min(available);
    if take < available {
        pending.push_front((start + take, available - take));
    }
    Some((start, take))
}

/// One granted, not-yet-finished lease.
#[derive(Debug, Clone)]
struct LeaseInfo {
    id: u64,
    start: usize,
    len: usize,
}

/// What a worker's reader thread forwards to the supervisor loop.
enum WorkerEvent {
    /// One protocol line from the worker.
    Line(String),
    /// The worker's stream closed (process death, socket shutdown, or
    /// clean exit).
    Closed,
}

/// A worker slot: the current incarnation of worker index `i`. Respawns
/// bump `generation` so events from a dead incarnation's reader thread are
/// recognizably stale.
struct WorkerSlot {
    writer: Box<dyn Write + Send>,
    control: Box<dyn ChannelControl>,
    generation: u64,
    outstanding: Vec<LeaseInfo>,
    records_delivered: usize,
    alive: bool,
    exiting: bool,
    /// EWMA of the wall time between this worker's records, the cost
    /// signal of [`LeasePolicy::Adaptive`].
    ewma_cost: Option<f64>,
    last_record_at: Option<Instant>,
    /// The length of this slot's previous lease grant, for the
    /// `leases_resized` stat.
    last_lease_len: Option<usize>,
}

/// The supervisor's event loop state (borrowed from
/// [`DistRunner::run_with_stats`] so the stats and schedule outlive it).
struct Supervisor<'a> {
    dist: &'a DistConfig,
    transport: &'a dyn Transport,
    config_line: String,
    slots: Vec<WorkerSlot>,
    pending: VecDeque<(usize, usize)>,
    /// The campaign's schedule: released windows, the time budget, and the
    /// completed records.
    schedule: &'a mut Schedule,
    next_lease: u64,
    stats: &'a mut DistStats,
    /// The armed kill switch; disarmed after firing so the respawned worker
    /// is not killed again.
    kill_armed: Option<(usize, usize)>,
    /// Where worker-computed replay frames are delivered (first-wins, like
    /// the record merge). The supervisor never recomputes a frame: what the
    /// executing worker hashed is what the artifact records.
    replay_sink: Option<&'a dyn ReplaySink>,
    /// The latest epoch broadcast line, replayed to respawned workers right
    /// after their handshake so a fresh incarnation never runs a
    /// current-window iteration under the stale warm-up snapshot.
    epoch_line: Option<String>,
    /// Diagnostics of every worker death observed, in death order.
    diagnostics: Vec<SlotDiagnostics>,
}

impl Supervisor<'_> {
    fn run(&mut self) -> Result<(), DistError> {
        let (events_tx, events_rx) = mpsc::channel::<(usize, u64, WorkerEvent)>();

        // Initial fleet: never more processes than pending iterations. A
        // slot whose worker keeps dying before configuration consumes
        // respawn budget instead of aborting the campaign, and a
        // partially-spawned fleet still drains the whole queue — the hard
        // failure is only when not a single worker comes up.
        let queued: usize = self.pending.iter().map(|(_, len)| len).sum();
        let fleet = self.dist.processes.max(1).min(queued.max(1));
        self.stats.records_per_slot = vec![0; fleet];
        for index in 0..fleet {
            match self.spawn_recovering(index, 0, &events_tx) {
                Ok(slot) => self.slots.push(slot),
                Err(error) => {
                    if self.slots.is_empty() {
                        return Err(error);
                    }
                    eprintln!(
                        "spatter-dist: continuing with a fleet of {}: {error}",
                        self.slots.len()
                    );
                    break;
                }
            }
        }
        self.dispatch(&events_tx)?;

        while !self.finished() {
            let (index, generation, event) = events_rx.recv().map_err(|_| DistError::Protocol {
                worker: usize::MAX,
                message: "all worker channels closed with work outstanding".to_string(),
            })?;
            if self.slots[index].generation != generation || !self.slots[index].alive {
                continue; // stale event from a replaced incarnation
            }
            match event {
                WorkerEvent::Closed => self.handle_death(index, &events_tx)?,
                WorkerEvent::Line(line) => {
                    let decode_start = Instant::now();
                    let message = wire::decode_from_worker(&line);
                    self.stats.decode_time += decode_start.elapsed();
                    match message {
                        Ok(FromWorker::Record { record, .. }) => {
                            let now = Instant::now();
                            self.stats.records_received += 1;
                            self.stats.records_per_slot[index] += 1;
                            let slot = &mut self.slots[index];
                            slot.records_delivered += 1;
                            let delivered = slot.records_delivered;
                            if let Some(previous) = slot.last_record_at.replace(now) {
                                let cost = now.duration_since(previous).as_secs_f64();
                                slot.ewma_cost = Some(match slot.ewma_cost {
                                    Some(ewma) => (1.0 - EWMA_ALPHA) * ewma + EWMA_ALPHA * cost,
                                    None => cost,
                                });
                            }
                            if let Some(record) = self.schedule.complete(record) {
                                if let Some(sink) = self.replay_sink {
                                    sink.record_frame(&record.replay);
                                }
                                self.release_windows(&events_tx)?;
                            }
                            if let Some((victim, after)) = self.kill_armed {
                                if victim == index && delivered >= after {
                                    // Fault injection: a hard, unannounced
                                    // kill; the reader thread will report
                                    // the death like any real crash.
                                    self.kill_armed = None;
                                    self.slots[index].control.kill();
                                }
                            }
                        }
                        Ok(FromWorker::Done { lease }) => {
                            self.slots[index].outstanding.retain(|l| l.id != lease);
                            self.dispatch(&events_tx)?;
                            self.maybe_retire(index);
                        }
                        Ok(FromWorker::Configured) => {
                            // Already consumed during the spawn handshake;
                            // a second one is protocol noise — treat the
                            // worker as broken.
                            self.fail_worker(index, "unexpected configured", &events_tx)?;
                        }
                        Err(error) => {
                            self.fail_worker(index, &error.to_string(), &events_tx)?;
                        }
                    }
                }
            }
        }

        // Clean shutdown: every live slot gets an exit line (write failures
        // are irrelevant because all work is already merged), then every
        // slot is reaped, which lets the workers exit together and reap
        // their own engine servers first.
        for slot in self.slots.iter_mut().filter(|slot| slot.alive) {
            let _ = writeln!(slot.writer, "{}", wire::encode_exit_message());
            let _ = slot.writer.flush();
        }
        for slot in &mut self.slots {
            let _ = slot.control.reap();
        }
        Ok(())
    }

    /// All leases finished and nothing pending. (A window barrier cannot
    /// be waiting here: the schedule releases the next window the moment
    /// the last record of the current one arrives, pushing it into
    /// `pending` before `finished` is next consulted.)
    fn finished(&self) -> bool {
        self.pending.is_empty() && self.slots.iter().all(|s| s.outstanding.is_empty())
    }

    /// Queues every window the schedule's barrier releases. Each carries a
    /// refreshed cumulative snapshot, broadcast to the fleet before the
    /// window is leased — stdin ordering guarantees every worker swaps its
    /// guidance before its first lease of the new window.
    fn release_windows(
        &mut self,
        events_tx: &mpsc::Sender<(usize, u64, WorkerEvent)>,
    ) -> Result<(), DistError> {
        while let Some(window) = self.schedule.next_window() {
            if let Some(snapshot) = self.schedule.snapshot() {
                let line = wire::encode_epoch_message(snapshot);
                self.stats.guidance_epochs += 1;
                let mut dead = Vec::new();
                for (index, slot) in self.slots.iter_mut().enumerate() {
                    if !slot.alive || slot.exiting {
                        continue;
                    }
                    let sent = writeln!(slot.writer, "{line}").and_then(|()| slot.writer.flush());
                    if sent.is_err() {
                        dead.push(index);
                    }
                }
                self.epoch_line = Some(line);
                for index in dead {
                    self.handle_death(index, events_tx)?;
                }
            }
            self.pending.push_back((window.start, window.len()));
            self.dispatch(events_tx)?;
        }
        Ok(())
    }

    /// Connects (or reconnects) a worker through the transport and performs
    /// the synchronous handshake + configuration exchange before handing
    /// its read half to a reader thread.
    fn spawn_worker(
        &mut self,
        index: usize,
        generation: u64,
        events_tx: &mpsc::Sender<(usize, u64, WorkerEvent)>,
    ) -> Result<WorkerSlot, DistError> {
        let channel = self.transport.connect(index)?;
        self.stats.spawns += 1;
        let crate::fabric::WorkerChannel {
            mut writer,
            mut reader,
            mut control,
        } = channel;

        // A worker dying mid-handshake must be reaped here: the caller only
        // ever sees the error, so an unreaped child would leak as a zombie
        // across every retry — and its stderr tail is the diagnosis.
        let setup =
            Self::handshake(&mut writer, &mut reader, &self.config_line, index).and_then(|()| {
                control.handshake_complete();
                // A fresh incarnation joining mid-campaign must catch up to
                // the current epoch before its first lease: the config line
                // only carries the warm-up snapshot.
                if let Some(epoch_line) = &self.epoch_line {
                    writeln!(writer, "{epoch_line}")?;
                    writer.flush()?;
                }
                Ok(())
            });
        if let Err(error) = setup {
            control.kill();
            let stderr_tail = control.reap();
            return Err(DistError::WorkerFailed {
                worker: index,
                message: error.to_string(),
                stderr_tail,
            });
        }

        // Only complete frames are forwarded: a worker dying mid-write
        // leaves a cut last line, which may still decode (a probe count
        // `156` cut to `15`) and must count as the death it is instead.
        let tx = events_tx.clone();
        std::thread::spawn(move || {
            while let Ok(Some(line)) = read_frame(&mut reader) {
                if tx
                    .send((index, generation, WorkerEvent::Line(line)))
                    .is_err()
                {
                    return;
                }
            }
            let _ = tx.send((index, generation, WorkerEvent::Closed));
        });

        Ok(WorkerSlot {
            writer,
            control,
            generation,
            outstanding: Vec::new(),
            records_delivered: 0,
            alive: true,
            exiting: false,
            ewma_cost: None,
            last_record_at: None,
            last_lease_len: None,
        })
    }

    /// The synchronous spawn-time exchange: worker hello, configuration,
    /// configured acknowledgement. Split out of [`Supervisor::spawn_worker`]
    /// so every failure funnels through one reaping error path.
    fn handshake(
        writer: &mut (impl Write + ?Sized),
        reader: &mut (impl BufRead + ?Sized),
        config_line: &str,
        index: usize,
    ) -> Result<(), DistError> {
        let mut read = || {
            read_frame(reader)?.ok_or_else(|| DistError::Protocol {
                worker: index,
                message: "worker closed its stream during the handshake".to_string(),
            })
        };
        wire::decode_handshake(&read()?)?;
        writeln!(writer, "{config_line}")?;
        writer.flush()?;
        match wire::decode_from_worker(&read()?) {
            Ok(FromWorker::Configured) => Ok(()),
            other => Err(DistError::Protocol {
                worker: index,
                message: format!("expected configured, got {other:?}"),
            }),
        }
    }

    /// [`Supervisor::spawn_worker`] with the same recovery policy a
    /// mid-campaign death gets: each failed spawn attempt (died before the
    /// channel came up, died mid-handshake, unparsable hello) consumes one
    /// respawn from the budget and is retried, so a transiently flaky
    /// worker binary delays the campaign instead of aborting it.
    fn spawn_recovering(
        &mut self,
        index: usize,
        first_generation: u64,
        events_tx: &mpsc::Sender<(usize, u64, WorkerEvent)>,
    ) -> Result<WorkerSlot, DistError> {
        let mut generation = first_generation;
        loop {
            match self.spawn_worker(index, generation, events_tx) {
                Ok(slot) => return Ok(slot),
                Err(error) => {
                    if let DistError::WorkerFailed { stderr_tail, .. } = &error {
                        self.diagnostics.push(SlotDiagnostics {
                            worker: index,
                            generation,
                            stderr_tail: stderr_tail.clone(),
                        });
                    }
                    if self.stats.respawns >= self.dist.max_respawns {
                        return Err(error);
                    }
                    self.stats.respawns += 1;
                    generation += 1;
                    eprintln!("spatter-dist: worker {index} failed to start, retrying: {error}");
                }
            }
        }
    }

    /// The lease length a grant to `index` should have under the policy.
    fn lease_len_for(&self, index: usize) -> usize {
        match &self.dist.lease_policy {
            LeasePolicy::Fixed => self.dist.lease_chunk.max(1),
            LeasePolicy::Adaptive { min, max, target } => {
                let min = (*min).max(1);
                let max = (*max).max(min);
                match self.slots[index].ewma_cost {
                    None => min,
                    Some(cost) if cost <= f64::EPSILON => max,
                    Some(cost) => {
                        let ideal = (target.as_secs_f64() / cost) as usize;
                        ideal.clamp(min, max)
                    }
                }
            }
        }
    }

    /// Grants pending leases to every worker with spare in-flight capacity.
    fn dispatch(
        &mut self,
        events_tx: &mpsc::Sender<(usize, u64, WorkerEvent)>,
    ) -> Result<(), DistError> {
        // Budget enforcement: past the deadline the remaining queue is
        // dropped (exactly like the in-process workers ceasing to claim
        // iterations), and the in-flight leases drain to completion.
        if self.schedule.expired() {
            self.pending.clear();
        }
        loop {
            if self.pending.is_empty() {
                return Ok(());
            }
            let Some(index) = self
                .slots
                .iter()
                .position(|s| s.alive && !s.exiting && s.outstanding.len() < LEASES_IN_FLIGHT)
            else {
                return Ok(());
            };
            let lease_len = self.lease_len_for(index);
            let (start, len) = take_lease(&mut self.pending, lease_len).expect("checked non-empty");
            let id = self.next_lease;
            self.next_lease += 1;
            self.stats.leases_granted += 1;
            // A grant whose adaptive length differs from the slot's previous
            // grant is a resize (queue-tail truncation is not).
            if matches!(self.dist.lease_policy, LeasePolicy::Adaptive { .. })
                && self.slots[index]
                    .last_lease_len
                    .is_some_and(|previous| previous != lease_len)
            {
                self.stats.leases_resized += 1;
            }
            self.slots[index].last_lease_len = Some(lease_len);
            let line = wire::encode_lease_message(id, start, len);
            let slot = &mut self.slots[index];
            slot.outstanding.push(LeaseInfo { id, start, len });
            let sent = writeln!(slot.writer, "{line}").and_then(|()| slot.writer.flush());
            if sent.is_err() {
                // The worker died under us; the lease we just granted is in
                // its outstanding list and will be reclaimed with the rest.
                self.handle_death(index, events_tx)?;
            }
        }
    }

    /// Sends `exit` to a worker that can receive no further leases, so idle
    /// processes drain instead of lingering until the end of the campaign.
    fn maybe_retire(&mut self, index: usize) {
        if self.schedule.more_windows() {
            return; // the barrier will release more work for this slot
        }
        let slot = &mut self.slots[index];
        if self.pending.is_empty() && slot.alive && !slot.exiting && slot.outstanding.is_empty() {
            slot.exiting = true;
            let _ = writeln!(slot.writer, "{}", wire::encode_exit_message());
            let _ = slot.writer.flush();
        }
    }

    /// A worker turned out to be broken at the protocol level: kill it and
    /// run the ordinary death path (reclaim + respawn).
    fn fail_worker(
        &mut self,
        index: usize,
        message: &str,
        events_tx: &mpsc::Sender<(usize, u64, WorkerEvent)>,
    ) -> Result<(), DistError> {
        let slot = &mut self.slots[index];
        if !slot.alive {
            return Ok(());
        }
        eprintln!("spatter-dist: worker {index} failed: {message}");
        slot.control.kill();
        self.handle_death(index, events_tx)
    }

    /// Reclaims a dead worker's unacknowledged iterations, captures its
    /// stderr tail into the diagnostics, and respawns the slot while the
    /// respawn budget lasts.
    fn handle_death(
        &mut self,
        index: usize,
        events_tx: &mpsc::Sender<(usize, u64, WorkerEvent)>,
    ) -> Result<(), DistError> {
        let slot = &mut self.slots[index];
        if !slot.alive {
            return Ok(());
        }
        slot.alive = false;
        slot.control.kill();
        let stderr_tail = slot.control.reap();
        if !stderr_tail.is_empty() {
            eprintln!(
                "spatter-dist: worker {index} died; stderr tail:\n    {}",
                stderr_tail.join("\n    ")
            );
        }
        self.diagnostics.push(SlotDiagnostics {
            worker: index,
            generation: slot.generation,
            stderr_tail,
        });
        let was_exiting = slot.exiting;
        let outstanding = std::mem::take(&mut slot.outstanding);

        // Re-lease exactly the iterations that never produced a record.
        // Reclaimed ranges go to the *front* of the queue: they are the
        // oldest work in the campaign and everything else is newer.
        let mut reclaimed: Vec<(usize, usize)> = Vec::new();
        for lease in outstanding.iter().rev() {
            for iteration in (lease.start..lease.start + lease.len).rev() {
                if !self.schedule.is_complete(iteration) {
                    match reclaimed.last_mut() {
                        Some((start, len)) if iteration + 1 == *start => {
                            *start = iteration;
                            *len += 1;
                        }
                        _ => reclaimed.push((iteration, 1)),
                    }
                }
            }
        }
        for range in reclaimed.into_iter().rev() {
            self.pending.push_front(range);
        }

        if was_exiting || self.finished() {
            return Ok(());
        }

        if self.stats.respawns < self.dist.max_respawns {
            self.stats.respawns += 1;
            let generation = self.slots[index].generation + 1;
            match self.spawn_recovering(index, generation, events_tx) {
                Ok(slot) => {
                    self.slots[index] = slot;
                    return self.dispatch(events_tx);
                }
                Err(error) => {
                    // The slot is unrecoverable; fall through to the
                    // survivors check below instead of aborting a campaign
                    // the rest of the fleet can still finish.
                    eprintln!("spatter-dist: worker {index} could not be respawned: {error}");
                }
            }
        }

        // No respawn left: survivors may still drain the queue.
        if self.slots.iter().any(|s| s.alive && !s.exiting) {
            return self.dispatch(events_tx);
        }
        Err(DistError::RespawnsExhausted {
            lost_iterations: self.pending.iter().map(|(_, len)| len).sum(),
            diagnostics: std::mem::take(&mut self.diagnostics),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::WorkerChannel;
    use std::collections::VecDeque;
    use std::io::{self, Cursor};
    use std::sync::Mutex;

    /// A transport whose workers are canned byte streams: each `connect`
    /// hands out the next stream and swallows everything written to it.
    struct CannedTransport(Mutex<VecDeque<Vec<u8>>>);

    struct NoControl;

    impl ChannelControl for NoControl {
        fn kill(&mut self) {}
        fn reap(&mut self) -> Vec<String> {
            Vec::new()
        }
        fn handshake_complete(&mut self) {}
    }

    impl Transport for CannedTransport {
        fn name(&self) -> &'static str {
            "canned"
        }

        fn connect(&self, _index: usize) -> io::Result<WorkerChannel> {
            let stream = self.0.lock().unwrap().pop_front();
            let stream = stream.ok_or_else(|| io::Error::other("no canned worker left"))?;
            Ok(WorkerChannel {
                writer: Box::new(io::sink()),
                reader: Box::new(Cursor::new(stream)),
                control: Box::new(NoControl),
            })
        }
    }

    #[test]
    fn a_record_line_cut_mid_token_is_a_worker_death_not_a_record() {
        let campaign = CampaignConfig {
            iterations: 1,
            ..CampaignConfig::default()
        };
        let record = CampaignRunner::new(campaign.clone()).run_iteration(0, Instant::now(), None);
        let line = wire::encode_record_message(0, &record);
        // A worker dying mid-write leaves its last line cut inside the last
        // probe count; that prefix still decodes, to a record nobody ran.
        let cut = &line[..line.len() - 1];
        match wire::decode_from_worker(cut) {
            Ok(FromWorker::Record {
                record: partial, ..
            }) => {
                assert_ne!(partial.probe_delta, record.probe_delta)
            }
            other => panic!("the cut line must still decode for this test: {other:?}"),
        }
        let hello = format!(
            "{}\n{}\n",
            wire::encode_handshake(),
            wire::encode_configured_message()
        );
        let dying = format!("{hello}{cut}");
        // The respawned worker receives the re-lease (lease id 1) and
        // completes it.
        let healthy = format!(
            "{hello}{}\n{}\n",
            wire::encode_record_message(1, &record),
            wire::encode_done_message(1)
        );
        let transport = CannedTransport(Mutex::new(VecDeque::from([
            dying.into_bytes(),
            healthy.into_bytes(),
        ])));
        let dist = DistConfig::new("/unused")
            .with_processes(1)
            .with_max_respawns(1);
        let (report, stats) = DistRunner::new(campaign.clone(), dist)
            .with_transport(Box::new(transport))
            .run_with_stats()
            .expect("the re-lease completes the campaign");
        assert_eq!(stats.respawns, 1, "the cut line is a worker death");
        assert_eq!(stats.records_received, 1, "the cut line is no record");
        assert_eq!(
            report.determinism_fingerprint(),
            CampaignRunner::new(campaign)
                .run()
                .determinism_fingerprint()
        );
    }

    #[test]
    fn take_lease_cuts_ranges_at_grant_time() {
        let mut pending = VecDeque::from([(0, 5), (10, 2)]);
        assert_eq!(take_lease(&mut pending, 2), Some((0, 2)));
        assert_eq!(take_lease(&mut pending, 2), Some((2, 2)));
        assert_eq!(take_lease(&mut pending, 2), Some((4, 1)));
        assert_eq!(take_lease(&mut pending, 100), Some((10, 2)));
        assert_eq!(take_lease(&mut pending, 2), None);
        // A zero-length request still grants one iteration: leases always
        // make progress.
        let mut pending = VecDeque::from([(7, 3)]);
        assert_eq!(take_lease(&mut pending, 0), Some((7, 1)));
        assert_eq!(pending, VecDeque::from([(8, 2)]));
    }

    #[test]
    fn dist_config_clamps_and_arms() {
        let config = DistConfig::new("/bin/worker")
            .with_processes(0)
            .with_threads_per_worker(0)
            .with_lease_chunk(0)
            .with_max_respawns(7)
            .with_kill_worker_after_records(1, 3);
        assert_eq!(config.processes, 1);
        assert_eq!(config.threads_per_worker, 1);
        assert_eq!(config.lease_chunk, 1);
        assert_eq!(config.lease_policy, LeasePolicy::Fixed);
        assert_eq!(config.max_respawns, 7);
        assert_eq!(config.kill_worker_after_records, Some((1, 3)));

        let adaptive =
            DistConfig::new("/bin/worker").with_adaptive_leases(0, 0, Duration::from_millis(250));
        assert_eq!(
            adaptive.lease_policy,
            LeasePolicy::Adaptive {
                min: 1,
                max: 1,
                target: Duration::from_millis(250)
            }
        );
    }
}
