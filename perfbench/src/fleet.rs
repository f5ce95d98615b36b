//! The fleet workload's plumbing: locating the binaries, a transport
//! decorator that timestamps each worker slot's record lines, and the
//! fleet's zero-iteration set-up (worker spawn plus handshake).

use spatter_repro::core::dist::wire::{self, FromWorker};
use spatter_repro::core::fabric::{StdioTransport, Transport, WorkerChannel};
use spatter_repro::core::CampaignConfig;
use std::io::{self, BufRead, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The repository binaries the fleet workload drives.
pub struct Binaries {
    pub worker: PathBuf,
    pub server: PathBuf,
}

/// Finds `spatter-campaign-worker` and `spatter-sdb-server` next to this
/// executable, where one shared release target directory puts them.
pub fn locate_binaries() -> Result<Binaries, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let dir = exe
        .parent()
        .ok_or_else(|| format!("{} has no parent directory", exe.display()))?;
    let find = |name: &str| {
        let path = dir.join(name);
        if path.is_file() {
            Ok(path)
        } else {
            Err(format!(
                "{name} not found in {}: build the repository's binaries into the same \
                 target directory with `cargo build --release` at the repository root \
                 (perfbench/run.py does both builds)",
                dir.display()
            ))
        }
    };
    Ok(Binaries {
        worker: find("spatter-campaign-worker")?,
        server: find("spatter-sdb-server")?,
    })
}

/// Arrival times of `record` lines, tagged with the worker slot.
#[derive(Default)]
pub struct Arrivals(Mutex<Vec<(usize, Instant)>>);

impl Arrivals {
    /// Per-iteration latencies: the gaps between consecutive records of one
    /// slot. Each worker runs one thread and always holds its next lease, so
    /// a gap is exactly one iteration; each slot's first record is skipped
    /// because its start is not a record.
    pub fn take_latencies(&self) -> Vec<Duration> {
        let mut arrivals = std::mem::take(&mut *self.0.lock().expect("arrivals poisoned"));
        arrivals.sort();
        arrivals
            .windows(2)
            .filter(|pair| pair[0].0 == pair[1].0)
            .map(|pair| pair[1].1 - pair[0].1)
            .collect()
    }
}

/// `StdioTransport` with every channel's reader wrapped in a
/// [`StampedReader`].
pub struct StampedTransport {
    inner: StdioTransport,
    arrivals: Arc<Arrivals>,
}

impl StampedTransport {
    pub fn new(worker: &Path, arrivals: Arc<Arrivals>) -> Self {
        StampedTransport {
            inner: StdioTransport::new(worker),
            arrivals,
        }
    }
}

impl Transport for StampedTransport {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn connect(&self, index: usize) -> io::Result<WorkerChannel> {
        let mut channel = self.inner.connect(index)?;
        channel.reader = Box::new(StampedReader {
            inner: channel.reader,
            slot: index,
            arrivals: Arc::clone(&self.arrivals),
        });
        Ok(channel)
    }
}

struct StampedReader {
    inner: Box<dyn BufRead + Send>,
    slot: usize,
    arrivals: Arc<Arrivals>,
}

impl Read for StampedReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

impl BufRead for StampedReader {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        self.inner.fill_buf()
    }

    fn consume(&mut self, amount: usize) {
        self.inner.consume(amount)
    }

    fn read_line(&mut self, buf: &mut String) -> io::Result<usize> {
        let before = buf.len();
        let read = self.inner.read_line(buf)?;
        if buf[before..].starts_with("record ") {
            let now = Instant::now();
            self.arrivals
                .0
                .lock()
                .expect("arrivals poisoned")
                .push((self.slot, now));
        }
        Ok(read)
    }
}

/// Spawns `processes` workers and completes the supervisor's handshake with
/// each (hello, configuration, configured), as `DistRunner` does before its
/// first lease; returns the time that took. The workers are then told to
/// exit and reaped, outside the timed part.
pub fn spawn_and_handshake(
    worker: &Path,
    campaign: &CampaignConfig,
    processes: usize,
) -> Result<Duration, String> {
    let config_line =
        wire::encode_config_message(1, campaign, None).map_err(|e| format!("encode: {e}"))?;
    let transport = StdioTransport::new(worker);
    let start = Instant::now();
    let mut channels = Vec::with_capacity(processes);
    let mut outcome = Ok(());
    for slot in 0..processes {
        match transport.connect(slot) {
            Ok(channel) => {
                channels.push(channel);
                let channel = channels.last_mut().expect("just pushed");
                outcome = handshake(channel, &config_line);
            }
            Err(e) => outcome = Err(format!("spawn worker {slot}: {e}")),
        }
        if outcome.is_err() {
            break;
        }
    }
    let elapsed = start.elapsed();
    for mut channel in channels {
        let _ = writeln!(channel.writer, "{}", wire::encode_exit_message());
        let _ = channel.writer.flush();
        let _ = channel.control.reap();
    }
    outcome.map(|()| elapsed)
}

fn handshake(channel: &mut WorkerChannel, config_line: &str) -> Result<(), String> {
    let mut hello = String::new();
    channel
        .reader
        .read_line(&mut hello)
        .map_err(|e| format!("read hello: {e}"))?;
    wire::decode_handshake(hello.trim_end()).map_err(|e| format!("hello: {e}"))?;
    writeln!(channel.writer, "{config_line}")
        .and_then(|()| channel.writer.flush())
        .map_err(|e| format!("send config: {e}"))?;
    let mut reply = String::new();
    channel
        .reader
        .read_line(&mut reply)
        .map_err(|e| format!("read configured: {e}"))?;
    match wire::decode_from_worker(reply.trim_end()) {
        Ok(FromWorker::Configured) => Ok(()),
        other => Err(format!("expected configured, got {other:?}")),
    }
}
