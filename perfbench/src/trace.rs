//! The traced run's instruments, all outside the program: a decorator over
//! `EngineBackend`/`EngineSession` that times every backend call, and a
//! `ReplaySink` that timestamps iteration boundaries.
//!
//! Spans are fixed-size records pushed into one in-memory vector; nothing
//! is formatted or keyed by string while the campaign runs. With one worker
//! thread, every span recorded between frame k-1 and frame k belongs to
//! iteration k, which is how spans get their parent.

use spatter_repro::core::backend::{BackendError, EngineBackend, EngineSession};
use spatter_repro::core::replay::{ReplayFrame, ReplaySink};
use spatter_repro::sdb::{EngineProfile, FaultId};
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Who opened a session: the oracle under test (`Check`) or attribution,
/// through a `without_fault` variant (`Attribute`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Check = 0,
    Attribute = 1,
}

/// The backend operation a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Open = 0,
    /// The first `load` of a session: the scenario's setup statements.
    Load = 1,
    /// Every later `load`: a mutation batch, or the Index oracle switching
    /// plans.
    Write = 2,
    TopoJoin = 3,
    RangeJoin = 4,
    Knn = 5,
}

pub const OPS: usize = 6;

/// The error classes of `BackendError`, plus "none".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    None = 0,
    Crash = 1,
    Semantic = 2,
    Transport = 3,
}

fn error_kind<T>(result: &Result<T, BackendError>) -> ErrorKind {
    match result {
        Ok(_) => ErrorKind::None,
        Err(BackendError::Crash(_)) => ErrorKind::Crash,
        Err(BackendError::Semantic(_)) => ErrorKind::Semantic,
        Err(BackendError::Transport(_)) => ErrorKind::Transport,
    }
}

/// Classifies a query by its SQL: KNN queries return rows, range joins name
/// a distance predicate, every other count query is a topological join.
fn classify_count(sql: &str) -> Op {
    if sql.contains("ST_DWithin(") || sql.contains("ST_DFullyWithin(") {
        Op::RangeJoin
    } else {
        Op::TopoJoin
    }
}

/// One timed backend call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index of the iteration (frames seen so far) the span belongs to.
    pub iteration: u32,
    pub role: Role,
    pub op: Op,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub duration_ns: u64,
    /// Statements in a load or write batch; 1 for queries, 0 for opens.
    pub statements: u32,
    pub error: ErrorKind,
}

#[derive(Default)]
struct TraceState {
    spans: Vec<Span>,
    /// Frame timestamps (nanoseconds since the epoch), one per iteration.
    frames: Vec<u64>,
    /// `without_fault` calls: one per attribution re-check.
    rechecks: u64,
    /// The open attribution block: its start and the end of its last span.
    attribute_block: Option<(u64, u64)>,
    attribute_busy_ns: u64,
}

impl TraceState {
    fn close_attribute_block(&mut self) {
        if let Some((start, last_end)) = self.attribute_block.take() {
            self.attribute_busy_ns += last_end.saturating_sub(start);
        }
    }
}

/// The span store shared by a decorated backend, its variants and sessions,
/// and the frame sink.
pub struct Tracer {
    epoch: Instant,
    state: Mutex<TraceState>,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            state: Mutex::new(TraceState::default()),
        })
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TraceState> {
        self.state.lock().expect("tracer poisoned")
    }

    fn record(&self, role: Role, op: Op, start: Instant, statements: u32, error: ErrorKind) {
        let end = Instant::now();
        let start_ns = self.nanos(start);
        let end_ns = self.nanos(end);
        let mut state = self.lock();
        match role {
            // Attribution runs between the oracle's checks: a check span
            // ends the current attribution block.
            Role::Check => state.close_attribute_block(),
            Role::Attribute => {
                let block = state.attribute_block.get_or_insert((start_ns, end_ns));
                block.1 = end_ns;
            }
        }
        let iteration = state.frames.len() as u32;
        state.spans.push(Span {
            iteration,
            role,
            op,
            start_ns,
            duration_ns: end_ns - start_ns,
            statements,
            error,
        });
    }

    fn begin_recheck(&self) {
        let now = self.nanos(Instant::now());
        let mut state = self.lock();
        state.rechecks += 1;
        state.attribute_block.get_or_insert((now, now));
    }

    /// Ends the trace and hands back its records; frame times are made
    /// relative to `campaign_start`, where iteration 0's wall clock begins.
    pub fn finish(&self, campaign_start: Instant) -> Trace {
        let mut state = self.lock();
        state.close_attribute_block();
        let start_ns = self.nanos(campaign_start);
        Trace {
            spans: std::mem::take(&mut state.spans),
            frames: state
                .frames
                .iter()
                .map(|&t| t.saturating_sub(start_ns))
                .collect(),
            rechecks: state.rechecks,
            attribute_busy: Duration::from_nanos(state.attribute_busy_ns),
        }
    }
}

impl ReplaySink for Tracer {
    fn record_frame(&self, _frame: &ReplayFrame) {
        let now = self.nanos(Instant::now());
        let mut state = self.lock();
        state.close_attribute_block();
        state.frames.push(now);
    }
}

/// What one traced campaign recorded.
pub struct Trace {
    pub spans: Vec<Span>,
    /// Iteration end times, in nanoseconds since the campaign start.
    pub frames: Vec<u64>,
    pub rechecks: u64,
    /// Wall time of the attribution blocks: from a re-check's first
    /// `without_fault` call to the end of the last attribution span before
    /// the next check span or iteration boundary.
    pub attribute_busy: Duration,
}

/// Decorates a backend: every session it opens is timed and tagged with the
/// backend's role. Its `without_fault` variants are decorated with
/// [`Role::Attribute`].
pub struct TracedBackend {
    inner: Arc<dyn EngineBackend>,
    role: Role,
    tracer: Arc<Tracer>,
}

impl TracedBackend {
    pub fn new(inner: Arc<dyn EngineBackend>, tracer: Arc<Tracer>) -> Self {
        TracedBackend {
            inner,
            role: Role::Check,
            tracer,
        }
    }
}

impl fmt::Debug for TracedBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Traced({:?}, {:?})", self.role, self.inner)
    }
}

impl EngineBackend for TracedBackend {
    fn profile(&self) -> EngineProfile {
        self.inner.profile()
    }

    fn open_session(&self) -> Result<Box<dyn EngineSession>, BackendError> {
        let start = Instant::now();
        let opened = self.inner.open_session();
        self.tracer
            .record(self.role, Op::Open, start, 0, error_kind(&opened));
        opened.map(|inner| {
            Box::new(TracedSession {
                inner,
                role: self.role,
                loaded: false,
                tracer: Arc::clone(&self.tracer),
            }) as Box<dyn EngineSession>
        })
    }

    fn fault_ids(&self) -> Vec<FaultId> {
        self.inner.fault_ids()
    }

    fn without_fault(&self, fault: FaultId) -> Box<dyn EngineBackend> {
        self.tracer.begin_recheck();
        Box::new(TracedBackend {
            inner: self.inner.without_fault(fault).into(),
            role: Role::Attribute,
            tracer: Arc::clone(&self.tracer),
        })
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn supports_function(&self, function: &str) -> bool {
        self.inner.supports_function(function)
    }
}

struct TracedSession {
    inner: Box<dyn EngineSession>,
    role: Role,
    loaded: bool,
    tracer: Arc<Tracer>,
}

impl EngineSession for TracedSession {
    fn load(&mut self, statements: &[String]) -> Result<(), BackendError> {
        let op = if self.loaded { Op::Write } else { Op::Load };
        self.loaded = true;
        let start = Instant::now();
        let result = self.inner.load(statements);
        self.tracer.record(
            self.role,
            op,
            start,
            statements.len() as u32,
            error_kind(&result),
        );
        result
    }

    fn run_count(&mut self, sql: &str) -> Result<Option<i64>, BackendError> {
        let start = Instant::now();
        let result = self.inner.run_count(sql);
        self.tracer.record(
            self.role,
            classify_count(sql),
            start,
            1,
            error_kind(&result),
        );
        result
    }

    fn run_rows(&mut self, sql: &str) -> Result<Vec<String>, BackendError> {
        let start = Instant::now();
        let result = self.inner.run_rows(sql);
        self.tracer
            .record(self.role, Op::Knn, start, 1, error_kind(&result));
        result
    }

    fn engine_time(&self) -> Duration {
        self.inner.engine_time()
    }
}
