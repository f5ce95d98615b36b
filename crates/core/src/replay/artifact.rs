//! The line-delimited replay artifact.
//!
//! A replay log is meant to be written next to a campaign's report, diffed
//! with `cmp`, attached to a bug report, and decoded by a *different* build
//! than the one that wrote it — so the format is text, versioned, and
//! decoded with structured [`CodecError`]s that never panic (the same
//! codec as [`crate::dist::wire`]):
//!
//! ```text
//! spatter-replay 1 seed 3 iterations 12 guidance off frames 12
//! frame 0 17619913297782129197 4295212937887729591 ... ...
//! frame 1 ...
//! end
//! ```
//!
//! A campaign pinned to a guidance epoch carries an `epoch <n>` header
//! token between the guidance mode and the frame count
//! (`... guidance cold-probe epoch 7 frames 12`); without it the header
//! decodes with the epoch absent.
//!
//! One header line (version, campaign identity, declared frame count), then
//! exactly `frames` `frame` lines — iteration index plus the four hash
//! layers of a [`ReplayFrame`], all as decimal `u64`s, followed by a
//! ` q <n> <digests...>` group carrying the per-query outcome digests when
//! the frame has any — and a closing `end` line. The header, the declared
//! count, the footer and the trailing newline are checked by the artifact
//! reader of [`crate::codec`]: an artifact cut short anywhere decodes to a
//! structured error, never to a silently different log (which would bisect
//! against the wrong campaign).

use super::ReplayFrame;
use crate::codec::{ArtifactReader, CodecError};
use crate::guidance::GuidanceMode;

/// The replay artifact format version. Bumped whenever the header or frame
/// layout changes; decoding any other version is a structured error.
pub const REPLAY_VERSION: u32 = 1;

/// A decoded (or about-to-be-encoded) replay artifact: the campaign
/// identity plus one [`ReplayFrame`] per executed iteration, in iteration
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayLog {
    /// The campaign seed the frames were produced under.
    pub seed: u64,
    /// The campaign's *requested* iteration count (a time-budgeted run may
    /// have recorded fewer frames).
    pub iterations: usize,
    /// The campaign's guidance mode.
    pub guidance: GuidanceMode,
    /// The guidance epoch the campaign was pinned to, if any. Encoded as an
    /// optional header token, so pre-epoch artifacts decode with `None`.
    pub guidance_epoch: Option<usize>,
    /// The recorded frames, strictly increasing by iteration.
    pub frames: Vec<ReplayFrame>,
}

impl ReplayLog {
    /// Renders the artifact, newline-terminated.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(64 + self.frames.len() * 96);
        out.push_str(&format!(
            "spatter-replay {REPLAY_VERSION} seed {} iterations {} guidance {}{} frames {}\n",
            self.seed,
            self.iterations,
            self.guidance.name(),
            self.guidance_epoch
                .map(|epoch| format!(" epoch {epoch}"))
                .unwrap_or_default(),
            self.frames.len(),
        ));
        for frame in &self.frames {
            out.push_str(&format!(
                "frame {} {} {} {} {}",
                frame.iteration,
                frame.sub_seed,
                frame.setup_hash,
                frame.outcome_hash,
                frame.probe_hash,
            ));
            if !frame.query_digests.is_empty() {
                out.push_str(&format!(" q {}", frame.query_digests.len()));
                for digest in &frame.query_digests {
                    out.push_str(&format!(" {digest}"));
                }
            }
            out.push('\n');
        }
        out.push_str("end\n");
        out
    }

    /// Decodes an artifact, returning a structured error — never panicking
    /// — on any malformed, truncated, version-skewed or trailing input.
    pub fn decode(text: &str) -> Result<ReplayLog, CodecError> {
        let (mut lines, mut header) = ArtifactReader::open(text, "spatter-replay", REPLAY_VERSION)?;
        header.expect("seed")?;
        let seed = header.next_num("campaign seed")?;
        header.expect("iterations")?;
        let iterations = header.next_num("iteration count")?;
        header.expect("guidance")?;
        let guidance = header.next_keyword()?;
        let guidance_epoch = if header.eat("epoch") {
            Some(header.next_num("guidance epoch")?)
        } else {
            None
        };
        header.expect("frames")?;
        let declared = header.next_num("frame count")?;
        header.finish()?;

        let mut last: Option<usize> = None;
        let frames = lines.lines(declared, |_, line| {
            line.expect("frame")?;
            let iteration = line.next_num("frame iteration")?;
            if last.is_some_and(|last| last >= iteration) {
                return Err(CodecError::NonMonotonic { line: line.line() });
            }
            last = Some(iteration);
            let mut frame = ReplayFrame {
                iteration,
                sub_seed: line.next_num("sub-seed")?,
                setup_hash: line.next_num("setup hash")?,
                outcome_hash: line.next_num("outcome hash")?,
                probe_hash: line.next_num("probe hash")?,
                query_digests: Vec::new(),
            };
            if line.eat("q") {
                let count: usize = line.next_num("query digest count")?;
                frame.query_digests.reserve(count.min(1 << 20));
                for _ in 0..count {
                    frame.query_digests.push(line.next_num("query digest")?);
                }
            }
            Ok(frame)
        })?;
        lines.footer()?;
        Ok(ReplayLog {
            seed,
            iterations,
            guidance,
            guidance_epoch,
            frames,
        })
    }

    /// The frame of `iteration`, if recorded.
    pub fn frame(&self, iteration: usize) -> Option<&ReplayFrame> {
        self.frames
            .binary_search_by_key(&iteration, |f| f.iteration)
            .ok()
            .map(|index| &self.frames[index])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> ReplayLog {
        ReplayLog {
            seed: 3,
            iterations: 4,
            guidance: GuidanceMode::ColdProbe,
            guidance_epoch: None,
            frames: (0..4)
                .map(|i| ReplayFrame {
                    iteration: i,
                    sub_seed: u64::MAX - i as u64,
                    setup_hash: 0x5e70 + i as u64,
                    outcome_hash: 0x07c0 ^ i as u64,
                    probe_hash: (i as u64) << 60,
                    query_digests: Vec::new(),
                })
                .collect(),
        }
    }

    #[test]
    fn artifacts_round_trip() {
        let log = sample_log();
        let text = log.encode();
        assert_eq!(ReplayLog::decode(&text), Ok(log.clone()));
        assert_eq!(log.frame(2).map(|f| f.iteration), Some(2));
        assert_eq!(log.frame(99), None);
    }

    #[test]
    fn epoch_header_round_trips_and_stays_optional() {
        // Forward: an epoch-pinned campaign stamps the header.
        let mut log = sample_log();
        log.guidance_epoch = Some(7);
        let text = log.encode();
        assert!(
            text.starts_with(
                "spatter-replay 1 seed 3 iterations 4 guidance cold-probe epoch 7 frames 4\n"
            ),
            "{text:?}"
        );
        assert_eq!(ReplayLog::decode(&text), Ok(log.clone()));
        // A header without the token decodes with no epoch.
        let unpinned = log.encode().replacen(" epoch 7", "", 1);
        let decoded = ReplayLog::decode(&unpinned).expect("unpinned header decodes");
        assert_eq!(decoded.guidance_epoch, None);
        assert_eq!(decoded.frames, log.frames);
        // A mangled epoch value is a structured error, not a silent None.
        let bad = log.encode().replacen("epoch 7", "epoch x", 1);
        assert_eq!(
            ReplayLog::decode(&bad),
            Err(CodecError::Malformed {
                line: 1,
                expected: "guidance epoch",
                got: "x".to_string()
            })
        );
    }

    #[test]
    fn query_digest_stream_round_trips_and_stays_optional() {
        let mut log = sample_log();
        log.frames[1].query_digests = vec![11, u64::MAX, 0];
        log.frames[3].query_digests = vec![42];
        let text = log.encode();
        // Digest-carrying frames grow a trailing ` q <n> <digests...>` group;
        // digest-free frames are five tokens after `frame`.
        assert!(text.contains(&format!(
            "frame 1 {} {} {} {} q 3 11 {} 0\n",
            log.frames[1].sub_seed,
            log.frames[1].setup_hash,
            log.frames[1].outcome_hash,
            log.frames[1].probe_hash,
            u64::MAX
        )));
        assert_eq!(ReplayLog::decode(&text), Ok(log.clone()));
        // An artifact with no `q` group anywhere decodes with empty digest
        // streams.
        let decoded = ReplayLog::decode(&sample_log().encode()).expect("digest-free artifact");
        assert!(decoded.frames.iter().all(|f| f.query_digests.is_empty()));
        // A digest count without all its digests is a structured error.
        let bad = text.replacen(" q 3 11", " q 3", 1);
        assert_eq!(
            ReplayLog::decode(&bad),
            Err(CodecError::Truncated { line: 3 })
        );
        let bad = text.replacen(" q 3 11", " q 3 eleven", 1);
        assert!(matches!(
            ReplayLog::decode(&bad),
            Err(CodecError::Malformed {
                line: 3,
                expected: "query digest",
                ..
            })
        ));
    }

    #[test]
    fn version_skew_is_a_structured_error() {
        let text = sample_log().encode().replacen(
            &format!("spatter-replay {REPLAY_VERSION}"),
            "spatter-replay 99",
            1,
        );
        assert_eq!(
            ReplayLog::decode(&text),
            Err(CodecError::VersionMismatch {
                magic: "spatter-replay",
                ours: REPLAY_VERSION,
                theirs: 99
            })
        );
    }

    #[test]
    fn byte_truncation_of_the_last_token_is_detected() {
        let text = sample_log().encode();
        // Without the footer + newline rule this prefix would decode: the
        // cut probe hash still parses as a decimal.
        let cut_mid_token = &text[..text.len() - "\nend\n".len()];
        assert_eq!(
            ReplayLog::decode(cut_mid_token),
            Err(CodecError::Unterminated)
        );
        // All frames present but no footer: a lost tail.
        let cut_footer = &text[..text.len() - "end\n".len()];
        assert_eq!(
            ReplayLog::decode(cut_footer),
            Err(CodecError::Truncated { line: 6 })
        );
    }

    #[test]
    fn non_monotonic_frames_are_rejected() {
        let mut log = sample_log();
        // Swapping frames 1 and 2 leaves line 3 (iteration 2 after 0)
        // monotonic; line 4 (iteration 1 after 2) is the offender.
        log.frames.swap(1, 2);
        assert_eq!(
            ReplayLog::decode(&log.encode()),
            Err(CodecError::NonMonotonic { line: 4 })
        );
    }
}
