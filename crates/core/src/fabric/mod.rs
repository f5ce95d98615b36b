//! The campaign fabric: pluggable worker transports for the distributed
//! supervisor.
//!
//! [`crate::dist::DistRunner`] drives `spatter-campaign-worker` executors
//! over a line-delimited wire protocol ([`crate::dist::wire`]). Until this
//! module existed the only way to reach a worker was a child process over
//! inherited stdio pipes — one box, by construction. A [`Transport`]
//! abstracts the *plumbing* (how bytes reach a worker and how its lifecycle
//! is controlled) away from the *protocol* (which is transport-agnostic:
//! single lines in both directions, opened by the `hello <WIRE_VERSION>`
//! handshake), so the same supervisor event loop drives local pipes and
//! remote sockets through one code path, and replay frames ride either
//! transport verbatim.
//!
//! Two implementations ship:
//!
//! * [`StdioTransport`] — the historical child-process launcher, now with
//!   the worker's stderr captured into a bounded per-slot tail instead of
//!   inherited (and lost) — the supervisor surfaces it when a worker dies.
//! * [`TcpTransport`] — a std-only socket transport: the supervisor binds a
//!   `TcpListener` (loopback by default; binding a routable address is an
//!   explicit opt-in, the protocol is unauthenticated) and each
//!   [`Transport::connect`] call accepts one inbound worker within a
//!   bounded accept window. Workers dial in with
//!   `spatter-campaign-worker --connect host:port`. For single-box use
//!   (tests, CI smoke, respawn after a crash) the transport can also spawn
//!   the dialing worker itself.
//!
//! # Timeouts
//!
//! A socket peer can stall forever where a dead child closes its pipes, so
//! the TCP transport arms a read timeout for the handshake phase and the
//! supervisor calls [`ChannelControl::handshake_complete`] once the version
//! exchange is done — after which the stream must block indefinitely again
//! (a campaign iteration may legitimately take minutes, and a timeout
//! firing mid-line would corrupt the framing).

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Lines of worker stderr kept per slot (a bounded tail: the newest lines
/// are the ones that explain a death).
const STDERR_TAIL_LINES: usize = 32;

/// How long reaping waits for a worker to exit on its own before killing
/// it. A worker told to exit drops its backend first, which stops and reaps
/// the engine servers it started; a kill would orphan them.
const EXIT_GRACE: Duration = Duration::from_secs(1);

/// How a worker behind a channel is killed, reaped and diagnosed. The
/// supervisor owns one per slot, next to the channel's reader and writer.
pub trait ChannelControl: Send {
    /// Hard-kills the worker (the fault-injection path and the cleanup path
    /// for protocol violations). Must make the channel's reader observe end
    /// of stream. Idempotent; errors are irrelevant because the caller is
    /// already tearing the slot down.
    fn kill(&mut self);

    /// Releases the worker's resources (gives a child process a bounded
    /// moment to exit on its own, then kills and waits on it, and joins the
    /// stderr drain) and returns the captured stderr tail, oldest line
    /// first. Empty when the transport has no stderr to observe (a remote
    /// socket peer). Idempotent: later calls return an empty tail.
    fn reap(&mut self) -> Vec<String>;

    /// Signals that the wire handshake completed: transports with a
    /// handshake read deadline (TCP) clear it here so streaming reads block
    /// indefinitely. A no-op for pipe transports.
    fn handshake_complete(&mut self);
}

/// A live framed line stream to one worker. The reader yields the worker's
/// protocol lines; the writer accepts the supervisor's. Both halves are
/// independently `Send` so the supervisor can move the reader onto its
/// per-slot reader thread while writing leases from the event loop.
pub struct WorkerChannel {
    /// Supervisor-to-worker lines.
    pub writer: Box<dyn Write + Send>,
    /// Worker-to-supervisor lines.
    pub reader: Box<dyn BufRead + Send>,
    /// Lifecycle control and diagnostics.
    pub control: Box<dyn ChannelControl>,
}

/// A way of reaching campaign workers. Object-safe: the supervisor holds a
/// `&dyn Transport` and never knows whether its fleet is pipes or sockets.
pub trait Transport: Send + Sync {
    /// The transport's display name (used in logs and bench labels).
    fn name(&self) -> &'static str;

    /// Establishes the channel for worker slot `index` — spawning a child,
    /// accepting an inbound socket, or both. Called again with the same
    /// index when a slot is respawned after a death; every call must
    /// produce a fresh worker that will open with the wire handshake.
    fn connect(&self, index: usize) -> io::Result<WorkerChannel>;
}

// ---------------------------------------------------------------------------
// Shared stderr capture
// ---------------------------------------------------------------------------

/// A bounded stderr tail filled by a drain thread. Shared between the drain
/// and the control that reports it.
type StderrTail = Arc<Mutex<VecDeque<String>>>;

/// Spawns the drain thread for a child's piped stderr. Keeps only the last
/// [`STDERR_TAIL_LINES`] lines so a chatty worker cannot balloon the
/// supervisor.
fn drain_stderr(stderr: impl Read + Send + 'static) -> (StderrTail, JoinHandle<()>) {
    let tail: StderrTail = Arc::new(Mutex::new(VecDeque::new()));
    let sink = Arc::clone(&tail);
    let handle = std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines() {
            let Ok(line) = line else { break };
            let mut tail = sink.lock().unwrap_or_else(PoisonError::into_inner);
            if tail.len() == STDERR_TAIL_LINES {
                tail.pop_front();
            }
            tail.push_back(line);
        }
    });
    (tail, handle)
}

/// The child-process half shared by both transports: the process handle,
/// its stderr tail and the drain thread to join on reap.
struct ChildHandle {
    child: Child,
    tail: StderrTail,
    drain: Option<JoinHandle<()>>,
}

impl ChildHandle {
    fn kill(&mut self) {
        let _ = self.child.kill();
    }

    fn reap(&mut self) -> Vec<String> {
        let deadline = Instant::now() + EXIT_GRACE;
        while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        // The tail is diagnostics only: a poisoned lock still holds lines.
        std::mem::take(&mut *self.tail.lock().unwrap_or_else(PoisonError::into_inner)).into()
    }
}

/// Spawns a worker child with piped stderr and the per-slot argument set.
fn spawn_child(
    command: &PathBuf,
    args: impl IntoIterator<Item = String>,
) -> io::Result<(Child, StderrTail, JoinHandle<()>)> {
    let mut child = Command::new(command)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let stderr = child.stderr.take().ok_or_else(|| {
        let _ = child.kill();
        let _ = child.wait();
        io::Error::other("worker spawned without a piped stderr")
    })?;
    let (tail, drain) = drain_stderr(stderr);
    Ok((child, tail, drain))
}

// ---------------------------------------------------------------------------
// Stdio transport
// ---------------------------------------------------------------------------

/// The child-process transport: one local `spatter-campaign-worker` per
/// slot, spoken to over its stdin/stdout pipes, with stderr captured into
/// the per-slot diagnostic tail.
pub struct StdioTransport {
    command: PathBuf,
    /// Extra command-line arguments for specific slots (e.g. an iteration
    /// delay that turns one slot into a deliberate straggler in tests).
    slot_args: Vec<(usize, Vec<String>)>,
}

impl StdioTransport {
    /// A transport launching `command` for every slot.
    pub fn new(command: impl Into<PathBuf>) -> Self {
        StdioTransport {
            command: command.into(),
            slot_args: Vec::new(),
        }
    }

    /// Appends extra arguments to the command of one slot.
    pub fn with_slot_args(mut self, slot: usize, args: Vec<String>) -> Self {
        self.slot_args.push((slot, args));
        self
    }

    fn args_for(&self, index: usize) -> Vec<String> {
        self.slot_args
            .iter()
            .filter(|(slot, _)| *slot == index)
            .flat_map(|(_, args)| args.iter().cloned())
            .collect()
    }
}

struct StdioControl {
    child: ChildHandle,
}

impl ChannelControl for StdioControl {
    fn kill(&mut self) {
        self.child.kill();
    }

    fn reap(&mut self) -> Vec<String> {
        self.child.reap()
    }

    fn handshake_complete(&mut self) {}
}

impl Transport for StdioTransport {
    fn name(&self) -> &'static str {
        "stdio"
    }

    fn connect(&self, index: usize) -> io::Result<WorkerChannel> {
        let (mut child, tail, drain) = spawn_child(&self.command, self.args_for(index))?;
        let Some(stdin) = child.stdin.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other("worker spawned without a piped stdin"));
        };
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other("worker spawned without a piped stdout"));
        };
        Ok(WorkerChannel {
            writer: Box::new(stdin),
            reader: Box::new(BufReader::new(stdout)),
            control: Box::new(StdioControl {
                child: ChildHandle {
                    child,
                    tail,
                    drain: Some(drain),
                },
            }),
        })
    }
}

// ---------------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------------

/// The socket transport: the supervisor listens, workers dial in with
/// `spatter-campaign-worker --connect <addr>`.
///
/// Binds loopback by default ([`TcpTransport::loopback`]): the protocol is
/// unauthenticated line framing, so exposing it beyond the host must be a
/// deliberate choice ([`TcpTransport::bind`] with an explicit address on a
/// trusted network, or an SSH tunnel per worker).
pub struct TcpTransport {
    listener: TcpListener,
    address: SocketAddr,
    /// How long one [`Transport::connect`] call waits for an inbound worker.
    accept_window: Duration,
    /// Read deadline covering the handshake phase of a fresh stream.
    handshake_timeout: Duration,
    /// When set, `connect` spawns this command locally with
    /// `--connect <addr>` appended — the single-box (and respawn-capable)
    /// mode used by tests, CI and benches. When `None`, `connect` only
    /// accepts: the fleet is launched externally.
    spawn_command: Option<PathBuf>,
    slot_args: Vec<(usize, Vec<String>)>,
}

impl TcpTransport {
    /// Binds a listener on `127.0.0.1` (port chosen by the OS) — the
    /// default, host-local fabric.
    pub fn loopback() -> io::Result<Self> {
        TcpTransport::bind("127.0.0.1:0")
    }

    /// Binds a listener on an explicit address. Anything other than
    /// loopback exposes the unauthenticated campaign protocol to that
    /// network — see the type-level security note.
    pub fn bind(address: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(address)?;
        // Non-blocking accept + polling gives the bounded accept window;
        // std's blocking `accept` has no deadline.
        listener.set_nonblocking(true)?;
        let address = listener.local_addr()?;
        Ok(TcpTransport {
            listener,
            address,
            accept_window: Duration::from_secs(10),
            handshake_timeout: Duration::from_secs(10),
            spawn_command: None,
            slot_args: Vec::new(),
        })
    }

    /// The bound address workers must dial (`--connect <this>`).
    pub fn address(&self) -> SocketAddr {
        self.address
    }

    /// Sets the bounded accept window.
    pub fn with_accept_window(mut self, window: Duration) -> Self {
        self.accept_window = window;
        self
    }

    /// Sets the handshake-phase read deadline.
    pub fn with_handshake_timeout(mut self, timeout: Duration) -> Self {
        self.handshake_timeout = timeout;
        self
    }

    /// Makes `connect` spawn the dialing worker itself (single-box mode).
    pub fn with_spawned_workers(mut self, command: impl Into<PathBuf>) -> Self {
        self.spawn_command = Some(command.into());
        self
    }

    /// Appends extra arguments to the spawned command of one slot.
    pub fn with_slot_args(mut self, slot: usize, args: Vec<String>) -> Self {
        self.slot_args.push((slot, args));
        self
    }

    /// Accepts one inbound connection within the accept window.
    fn accept_within_window(&self) -> io::Result<TcpStream> {
        let deadline = Instant::now() + self.accept_window;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => return Ok(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("no worker dialed in within {:?}", self.accept_window),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

struct TcpControl {
    stream: TcpStream,
    /// The locally spawned worker, in single-box mode.
    child: Option<ChildHandle>,
}

impl ChannelControl for TcpControl {
    fn kill(&mut self) {
        if let Some(child) = &mut self.child {
            child.kill();
        }
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    fn reap(&mut self) -> Vec<String> {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        match &mut self.child {
            Some(child) => child.reap(),
            None => Vec::new(),
        }
    }

    fn handshake_complete(&mut self) {
        // From here on a silent stream means a slow iteration, not a dead
        // peer: clear the deadline so streaming reads block indefinitely.
        let _ = self.stream.set_read_timeout(None);
    }
}

impl Transport for TcpTransport {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn connect(&self, index: usize) -> io::Result<WorkerChannel> {
        let child = match &self.spawn_command {
            None => None,
            Some(command) => {
                let mut args = vec!["--connect".to_string(), self.address.to_string()];
                args.extend(
                    self.slot_args
                        .iter()
                        .filter(|(slot, _)| *slot == index)
                        .flat_map(|(_, extra)| extra.iter().cloned()),
                );
                let (child, tail, drain) = spawn_child(command, args)?;
                Some(ChildHandle {
                    child,
                    tail,
                    drain: Some(drain),
                })
            }
        };
        let stream = match self.accept_within_window() {
            Ok(stream) => stream,
            Err(error) => {
                if let Some(mut child) = child {
                    child.kill();
                    child.reap();
                }
                return Err(error);
            }
        };
        // The listener is non-blocking for the accept poll; the accepted
        // stream must block (with the handshake deadline armed) so the
        // reader thread parks on it instead of spinning.
        stream.set_nonblocking(false)?;
        stream.set_read_timeout(Some(self.handshake_timeout))?;
        let _ = stream.set_nodelay(true);
        let reader = stream.try_clone()?;
        let writer = stream.try_clone()?;
        Ok(WorkerChannel {
            writer: Box::new(writer),
            reader: Box::new(BufReader::new(reader)),
            control: Box::new(TcpControl { stream, child }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_transport_binds_the_loopback_interface_only() {
        let transport = TcpTransport::loopback().expect("bind loopback");
        assert!(transport.address().ip().is_loopback());
        assert_ne!(transport.address().port(), 0);
    }

    #[test]
    fn tcp_accept_window_is_bounded() {
        let transport = TcpTransport::loopback()
            .expect("bind loopback")
            .with_accept_window(Duration::from_millis(50));
        let start = Instant::now();
        let error = match transport.connect(0) {
            Err(error) => error,
            Ok(_) => panic!("nobody dials in"),
        };
        assert_eq!(error.kind(), io::ErrorKind::TimedOut);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "the accept window must bound the wait"
        );
    }

    #[test]
    fn tcp_channel_round_trips_lines_and_clears_the_handshake_deadline() {
        let transport = TcpTransport::loopback().expect("bind loopback");
        let address = transport.address();
        let peer = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(address).expect("dial");
            stream.write_all(b"hello-from-worker\n").expect("write");
            let mut reply = String::new();
            BufReader::new(stream.try_clone().expect("clone"))
                .read_line(&mut reply)
                .expect("read");
            reply
        });
        let mut channel = transport.connect(0).expect("accept");
        let mut line = String::new();
        channel.reader.read_line(&mut line).expect("read");
        assert_eq!(line, "hello-from-worker\n");
        channel.control.handshake_complete();
        channel.writer.write_all(b"lease 0 0 1\n").expect("write");
        channel.writer.flush().expect("flush");
        assert_eq!(peer.join().expect("peer"), "lease 0 0 1\n");
        // A remote peer has no stderr to report.
        assert!(channel.control.reap().is_empty());
    }

    #[test]
    fn stderr_tail_is_bounded() {
        let lines: Vec<String> = (0..100).map(|i| format!("line {i}")).collect();
        let (tail, handle) = drain_stderr(std::io::Cursor::new(lines.join("\n")));
        handle.join().expect("drain");
        let tail = tail.lock().expect("tail");
        assert_eq!(tail.len(), STDERR_TAIL_LINES);
        assert_eq!(tail.back().map(String::as_str), Some("line 99"));
        assert_eq!(
            tail.front().map(String::as_str),
            Some(&*format!("line {}", 100 - STDERR_TAIL_LINES))
        );
    }
}
