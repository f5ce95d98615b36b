//! `spatter-campaign-worker` — one shared-nothing campaign worker process.
//!
//! Spawned and driven by `spatter_core::dist::DistRunner` over a framed
//! line stream: the worker announces the wire version, receives its
//! campaign configuration (backend spec, oracle suite, optional frozen
//! guidance snapshot) and then executes iteration leases across its own
//! thread pool, streaming each iteration's record back as it completes.
//! The serve loop lives in [`spatter_repro::core::dist::worker`]; this
//! binary only wires up the transport endpoints.
//!
//! Two transports:
//!
//! - default — line-delimited stdio, for supervisors that spawn the worker
//!   as a child process;
//! - `--connect host:port` — the worker dials the supervisor's TCP
//!   listener and speaks the identical protocol over the socket, which is
//!   how remote machines join a campaign fleet.

use std::io::BufReader;
use std::net::TcpStream;

use spatter_repro::core::dist::worker::serve;

fn usage() -> ! {
    eprintln!("usage: spatter-campaign-worker [--connect host:port]");
    std::process::exit(2);
}

fn main() {
    let mut connect: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => match args.next() {
                Some(addr) => connect = Some(addr),
                None => usage(),
            },
            _ => usage(),
        }
    }

    let outcome = match connect {
        Some(address) => match TcpStream::connect(&address) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                match stream.try_clone() {
                    Ok(reader) => serve(BufReader::new(reader), stream),
                    Err(error) => Err(error.into()),
                }
            }
            Err(error) => {
                eprintln!("spatter-campaign-worker: connect {address}: {error}");
                std::process::exit(1);
            }
        },
        None => {
            let stdin = std::io::stdin().lock();
            // Unlocked stdout: the worker writes record lines from several
            // threads under its own mutex, and `StdoutLock` is not `Send`.
            let stdout = std::io::stdout();
            serve(stdin, stdout)
        }
    };
    if let Err(error) = outcome {
        eprintln!("spatter-campaign-worker: {error}");
        std::process::exit(1);
    }
}
