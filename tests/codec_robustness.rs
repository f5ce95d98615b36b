//! A seeded byte-mutation sweep over every decoder of untrusted lines: the
//! supervisor/worker wire messages, the replay and matrix artifacts, and
//! `spatter-sdb-server` replies (fired-log, reset and batch replies
//! included). Every mutated input must decode or fail
//! with a structured error — never panic, and never abort the process (an
//! untrusted count used as an allocation size does the latter).

use spatter_repro::core::campaign::CampaignConfig;
use spatter_repro::core::dist::{wire, worker};
use spatter_repro::core::guidance::GuidanceMode;
use spatter_repro::core::matrix::{BucketCounts, CellReport, MatrixReport};
use spatter_repro::core::mutation::MutationConfig;
use spatter_repro::core::replay::{ReplayLog, ReplayRecorder, ReplaySink};
use spatter_repro::core::rng::seq::IndexedRandom;
use spatter_repro::core::rng::{RngExt, SeedableRng, StdRng};
use spatter_repro::core::runner::CampaignRunner;
use spatter_repro::sdb::engine::ExecutionResult;
use spatter_repro::sdb::server::{
    read_batch, read_fired, read_ready, write_fired, write_ready, Response,
};
use spatter_repro::sdb::{EngineProfile, FaultId, FaultSet, FiredLog};
use spatter_repro::topo::coverage::CoverageSnapshot;
use spatter_repro::topo::probe;
use std::io::BufReader;
use std::sync::Arc;

/// Mutants per seed input.
const MUTANTS: usize = 200;

/// Tokens worth splicing in: numbers at the edges of every integer type the
/// decoders parse, escapes `escape` never emits, and the keywords that end
/// or restart a structure.
const SPLICES: [&str; 14] = [
    " 18446744073709551616",
    " 18446744073709551615",
    " 4294967297",
    " 1000000000000000",
    " -1",
    " %41",
    " %+9",
    " %-",
    "%",
    "\nend\n",
    "\nROWS 1000000000000000 -\n",
    " q 1000000000000000",
    "\r",
    " ",
];

/// One to three random edits: overwrite, delete, insert or splice at a
/// random byte, or truncate.
fn mutate(rng: &mut StdRng, input: &[u8]) -> Vec<u8> {
    let mut bytes = input.to_vec();
    for _ in 0..rng.random_range(1..4usize) {
        let at = rng.random_range(0..bytes.len() + 1);
        match rng.random_range(0..5u32) {
            0 if at < bytes.len() => bytes[at] = rng.next_u64() as u8,
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            2 => bytes.insert(at, *b"0 9\n%-x".choose(rng).expect("non-empty")),
            3 => {
                let splice = SPLICES.choose(rng).expect("non-empty").as_bytes();
                bytes.splice(at..at, splice.iter().copied());
            }
            _ => bytes.truncate(at),
        }
    }
    bytes
}

/// Feeds every mutant of every seed input to `decode`, which must return.
fn sweep(seed: u64, inputs: &[Vec<u8>], mut decode: impl FnMut(&[u8])) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cases = 0;
    for input in inputs {
        decode(input);
        for _ in 0..MUTANTS {
            decode(&mutate(&mut rng, input));
            cases += 1;
        }
    }
    cases
}

fn small_campaign(iterations: usize) -> CampaignConfig {
    CampaignConfig {
        iterations,
        queries_per_run: 6,
        ..CampaignConfig::default()
    }
}

/// Genuine worker output: the handshake, the acknowledgement, and the
/// record and done lines of one three-iteration lease.
fn worker_lines() -> Vec<String> {
    let campaign = small_campaign(3);
    let input = format!(
        "{}\n{}\n{}\n",
        wire::encode_config_message(1, &campaign, None).expect("encodable"),
        wire::encode_lease_message(0, 0, 3),
        wire::encode_exit_message()
    );
    let mut output = Vec::new();
    worker::serve(BufReader::new(input.as_bytes()), &mut output).expect("worker serves");
    String::from_utf8(output)
        .expect("ascii")
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn mutated_wire_messages_never_panic() {
    let mut snapshot = CoverageSnapshot::new();
    snapshot.absorb(&[
        (probe!("topo.centroid"), 2),
        (probe!("topo.predicate.intersects"), 41),
    ]);
    let guided = CampaignConfig {
        guidance: GuidanceMode::ColdProbe,
        guidance_epoch: Some(4),
        mutations: Some(MutationConfig::default()),
        ..small_campaign(9)
    };
    let mut lines = worker_lines();
    lines.extend([
        wire::encode_config_message(2, &guided, Some(&snapshot)).expect("encodable"),
        wire::encode_epoch_message(&snapshot),
        wire::encode_lease_message(3, 8, 2),
    ]);
    assert!(lines.iter().any(|line| line.starts_with("record ")));
    let inputs: Vec<Vec<u8>> = lines.into_iter().map(String::into_bytes).collect();
    let cases = sweep(0xc0dec, &inputs, |bytes| {
        let line = String::from_utf8_lossy(bytes);
        let _ = wire::decode_handshake(&line);
        let _ = wire::decode_to_worker(&line);
        let _ = wire::decode_from_worker(&line);
    });
    assert!(cases >= 1_500, "{cases} cases");
}

#[test]
fn mutated_replay_artifacts_never_panic() {
    let mut inputs = Vec::new();
    for guidance_epoch in [None, Some(2)] {
        let config = CampaignConfig {
            guidance: GuidanceMode::ColdProbe,
            guidance_epoch,
            ..small_campaign(6)
        };
        let recorder = Arc::new(ReplayRecorder::new());
        CampaignRunner::new(config.clone())
            .with_replay_sink(recorder.clone() as Arc<dyn ReplaySink>)
            .run();
        let text = recorder.log(&config).encode();
        assert!(ReplayLog::decode(&text).is_ok());
        inputs.push(text.into_bytes());
    }
    let cases = sweep(0x7e91a7, &inputs, |bytes| {
        let _ = ReplayLog::decode(&String::from_utf8_lossy(bytes));
    });
    assert!(cases >= 400, "{cases} cases");
}

#[test]
fn mutated_matrix_artifacts_never_panic() {
    let cell = |left, right, found| CellReport {
        left,
        right,
        iterations_run: 6,
        buckets: BucketCounts {
            left: found,
            right: 0,
            both: 1,
            crash: found / 2,
        },
        fingerprint: u64::MAX - found as u64,
    };
    let report = MatrixReport {
        seed: 5,
        backends: vec![
            "in-process:postgis_like".to_string(),
            "a label with spaces and 100%".to_string(),
            String::new(),
        ],
        cells: vec![cell(0, 1, 4), cell(0, 2, 0), cell(1, 0, 3), cell(2, 1, 9)],
        involvement: vec![2, 2, 4],
    };
    let text = report.encode();
    assert_eq!(MatrixReport::decode(&text), Ok(report));
    let cases = sweep(0x3a7217, &[text.into_bytes()], |bytes| {
        let _ = MatrixReport::decode(&String::from_utf8_lossy(bytes));
    });
    assert!(cases >= 200, "{cases} cases");
}

#[test]
fn mutated_server_replies_never_panic_or_abort() {
    let replies = [
        Response::None,
        Response::Effect(ExecutionResult::Update { rows_updated: 3 }),
        Response::Effect(ExecutionResult::DropTable),
        Response::Rows {
            rows: vec!["POINT(0 0)".into(), String::new(), "7".into()],
            count: None,
        },
        Response::Rows {
            rows: vec!["12".into()],
            count: Some(12),
        },
        Response::Error {
            crash: true,
            message: "engine crash: boom".into(),
        },
    ];
    let inputs: Vec<Vec<u8>> = replies
        .iter()
        .map(|reply| {
            let mut wire = Vec::new();
            reply.write_to(&mut wire).expect("in-memory write");
            wire
        })
        .collect();
    let cases = sweep(0x5e7e7, &inputs, |bytes| {
        // A mutant may hold several frames: read until the stream breaks.
        let mut reader = BufReader::new(bytes);
        for _ in 0..8 {
            if Response::read_from(&mut reader).is_err() {
                break;
            }
        }
    });
    assert!(cases >= 1_200, "{cases} cases");
}

/// The wire form of a fired log.
fn fired_wire(log: &FiredLog) -> Vec<u8> {
    let mut wire = Vec::new();
    write_fired(log, &mut wire).expect("in-memory write");
    wire
}

#[test]
fn mutated_fired_replies_decode_to_their_exact_set_or_unknown() {
    // The `\fired` reply is a per-statement log: for each statement that
    // fired seeded faults, its position and their set.
    let covers = FaultSet::with([FaultId::GeosCoversPrecisionLoss]);
    let three = FaultSet::with([
        FaultId::GeosEmptyDistanceRecursion,
        FaultId::PostgisGistIndexDropsRows,
        FaultId::PostgisGistStaleOnMutation,
    ]);
    let logs = [
        FiredLog::default(),
        FiredLog::from_entries(vec![(0, covers.clone())]).expect("canonical"),
        FiredLog::from_entries(vec![(7, three), (19, covers.clone()), (210, covers)])
            .expect("canonical"),
    ];
    // The client sent statements up to position 210.
    const SENT: usize = 211;
    let inputs: Vec<Vec<u8>> = logs.iter().map(fired_wire).collect();
    let mut unknown = 0;
    let cases = sweep(0xf12ed, &inputs, |bytes| {
        // `None` is "unknown": attribution then re-checks every fault. A
        // decoded log must be the one the first frame spells exactly, so
        // damage can never shrink a log into a smaller valid one unnoticed.
        match read_fired(&mut BufReader::new(bytes), SENT) {
            None => unknown += 1,
            Some(log) => assert!(
                bytes.starts_with(&fired_wire(&log)),
                "{bytes:?} decoded as {log:?}"
            ),
        }
    });
    assert!(cases >= 600, "{cases} cases");
    assert!(unknown * 2 > cases, "most mutants must read as unknown");
    for (log, wire) in logs.iter().zip(&inputs) {
        // Every proper prefix is a truncated frame.
        for cut in 0..wire.len() {
            assert_eq!(
                read_fired(&mut BufReader::new(&wire[..cut]), SENT),
                None,
                "{:?}",
                &wire[..cut]
            );
        }
        // A reply naming a statement the client never sent is rejected.
        let last = log
            .entries()
            .last()
            .map_or(0, |(statement, _)| statement + 1);
        assert_eq!(
            read_fired(&mut BufReader::new(wire.as_slice()), last),
            Some(log.clone())
        );
        if last > 0 {
            assert_eq!(
                read_fired(&mut BufReader::new(wire.as_slice()), last - 1),
                None
            );
        }
    }
}

#[test]
fn mutated_reset_replies_never_read_as_ready_unless_exact() {
    // A pooled server is reused only on the exact `READY <profile>` frame;
    // a damaged reply, or a bad-spec `ERR`, must make the client kill it.
    let profile = EngineProfile::PostgisLike;
    let mut ready = Vec::new();
    write_ready(profile, &mut ready).expect("in-memory write");
    let mut rejected = Vec::new();
    Response::Error {
        crash: false,
        message: "unknown fault Bogus".into(),
    }
    .write_to(&mut rejected)
    .expect("in-memory write");
    let mut other_profile = Vec::new();
    write_ready(EngineProfile::MysqlLike, &mut other_profile).expect("in-memory write");
    let inputs = [ready.clone(), rejected, other_profile];
    let mut accepted = 0;
    let cases = sweep(0x2e5e7, &inputs, |bytes| {
        if read_ready(&mut BufReader::new(bytes), profile) {
            assert!(bytes.starts_with(&ready), "{bytes:?} read as READY");
            accepted += 1;
        }
    });
    assert!(cases >= 600, "{cases} cases");
    assert!(accepted * 2 < cases, "most mutants must be rejected");
}

/// The wire form of a batch reply: `replies`, then `BATCH <ran>`.
fn batch_wire(replies: &[Response]) -> Vec<u8> {
    let mut wire = Vec::new();
    for reply in replies {
        reply.write_to(&mut wire).expect("in-memory write");
    }
    wire.extend_from_slice(format!("BATCH {}\n", replies.len()).as_bytes());
    wire
}

/// What the closing frame pins about a reply: its kind, and for an error
/// whether it is a crash. Payloads (an error's text, a row, an effect's row
/// count) carry no checksum.
fn shape(reply: &Response) -> (std::mem::Discriminant<Response>, bool) {
    let crash = matches!(reply, Response::Error { crash: true, .. });
    (std::mem::discriminant(reply), crash)
}

#[test]
fn mutated_batch_replies_decode_to_their_exact_batch_or_a_transport_error() {
    // A batch reply is one frame per statement the server ran, the last
    // one possibly the `ERR` that stopped it, then `BATCH <ran>`. Without
    // the closing frame, a damaged `OK` that reads as `ERR` would leave the
    // rest of the frames in the pipe for the next request to misread.
    let stop = |crash| Response::Error {
        crash,
        message: if crash {
            "engine crash: boom".into()
        } else {
            "semantic error: no such table".into()
        },
    };
    let batches: [(Vec<Response>, usize); 5] = [
        (vec![Response::None; 12], 12),
        (vec![Response::None], 1),
        (
            vec![
                Response::None,
                Response::None,
                Response::Effect(ExecutionResult::Update { rows_updated: 3 }),
                stop(false),
            ],
            6,
        ),
        (vec![Response::None, Response::None, stop(true)], 12),
        (
            vec![
                Response::Effect(ExecutionResult::DropTable),
                Response::Rows {
                    rows: vec!["POINT(0 0)".into(), "7".into()],
                    count: None,
                },
            ],
            2,
        ),
    ];
    let mut broken = 0;
    let mut cases = 0;
    for (index, (replies, n)) in batches.iter().enumerate() {
        let wire = batch_wire(replies);
        let decode = |bytes: &[u8]| {
            let mut read = Vec::new();
            read_batch(&mut BufReader::new(bytes), *n, &mut read).map(|()| read)
        };
        assert_eq!(decode(&wire).expect("the exact reply"), *replies);
        // Every proper prefix is a truncated reply.
        for cut in 0..wire.len() {
            assert!(decode(&wire[..cut]).is_err(), "{:?}", &wire[..cut]);
        }
        // Structural damage random edits rarely reach: a reply before the
        // last that reads as an `ERR` stopping the batch early (the frames
        // after it lost, the closing frame kept), and a reply lost outright.
        let end = format!("BATCH {}\n", replies.len());
        for at in 0..replies.len() - 1 {
            let mut early = batch_wire(&replies[..at]);
            early.truncate(early.len() - format!("BATCH {at}\n").len());
            stop(false).write_to(&mut early).expect("in-memory write");
            early.extend_from_slice(end.as_bytes());
            let mut lost = replies.clone();
            lost.remove(at);
            let mut lost = batch_wire(&lost);
            lost.truncate(lost.len() - format!("BATCH {}\n", replies.len() - 1).len());
            lost.extend_from_slice(end.as_bytes());
            for damaged in [early, lost] {
                assert!(decode(&damaged).is_err(), "{damaged:?}");
            }
        }
        let all_ok = replies.iter().all(|reply| *reply == Response::None);
        cases += sweep(0xba7c4 + index as u64, &[wire], |bytes| {
            match decode(bytes) {
                Err(_) => broken += 1,
                // A batch of bare `OK`s has no payload to damage: a mutant
                // decodes to it exactly or not at all. Otherwise the decoded
                // batch has the original's shape: as many statements ran, and
                // the same one stopped it the same way.
                Ok(read) if all_ok => assert_eq!(read, *replies, "{bytes:?}"),
                Ok(read) => assert_eq!(
                    read.iter().map(shape).collect::<Vec<_>>(),
                    replies.iter().map(shape).collect::<Vec<_>>(),
                    "{bytes:?} decoded as {read:?}"
                ),
            }
        });
    }
    assert!(cases >= 1_000, "{cases} cases");
    assert!(broken * 2 > cases, "most mutants must break the transport");
}
