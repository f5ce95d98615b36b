//! The one line codec behind every wire message and artifact.
//!
//! The workspace has no serde, so every persistent or transmitted structure
//! is a whitespace-separated token stream: the supervisor/worker messages of
//! [`crate::dist::wire`], the replay artifact of [`crate::replay::artifact`]
//! and the matrix artifact of [`crate::matrix`]. This module owns what those
//! formats share — the token writer and reader, percent-escaped strings,
//! the fixed token spelling of every enum field, the `<magic> <version>`
//! header and the `end` footer of the artifacts — so the three modules hold
//! field layouts only, and every decode failure is one [`CodecError`] that
//! never panics.

use crate::campaign::FindingKind;
use crate::generator::GenerationStrategy;
use crate::guidance::GuidanceMode;
use crate::oracles::DivergenceSide;
use crate::transform::AffineStrategy;
use std::fmt;
use std::iter::{Enumerate, Peekable};
use std::str::{FromStr, Lines, SplitAsciiWhitespace};
use std::time::Duration;

/// Why a message or artifact could not be decoded (or a value not encoded).
/// Structured, so callers can tell a harness misconfiguration (version or
/// backend problems) from corrupted input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input does not open with the `magic` header token.
    MissingHeader {
        /// The token the format opens with.
        magic: &'static str,
    },
    /// The peer or artifact speaks a different format version.
    VersionMismatch {
        /// The token the format opens with.
        magic: &'static str,
        /// Our version of the format.
        ours: u32,
        /// The version the peer or artifact announces.
        theirs: u32,
    },
    /// The input ended before the payload was complete: a line ran out of
    /// tokens, or an artifact ran out of lines before its declared count or
    /// its `end` footer.
    Truncated {
        /// 1-based line number where more input was expected.
        line: usize,
    },
    /// An artifact does not end with a newline: its last line was cut short
    /// mid-byte (a partial token still parses, so only the terminator makes
    /// this detectable).
    Unterminated,
    /// A token did not have the expected shape.
    Malformed {
        /// 1-based line number of the offending line.
        line: usize,
        /// What the decoder was trying to read.
        expected: &'static str,
        /// The offending token (or a description of it).
        got: String,
    },
    /// Tokens or lines follow the end of the payload.
    TrailingInput {
        /// 1-based line number of the first trailing token.
        line: usize,
        /// The start of the trailing input.
        rest: String,
    },
    /// Artifact frame iterations are not strictly increasing.
    NonMonotonic {
        /// 1-based line number of the out-of-order frame.
        line: usize,
    },
    /// A percent-escape in a string token is not one the encoder emits.
    BadEscape(String),
    /// A probe name that is not in the static probe table.
    UnknownProbe(String),
    /// A fault name [`spatter_sdb::FaultId::from_name`] does not know.
    UnknownFault(String),
    /// An engine profile name [`spatter_sdb::EngineProfile::from_name`]
    /// does not know.
    UnknownProfile(String),
    /// The campaign's backend has no [`crate::backend::BackendSpec`], so it
    /// cannot be encoded.
    UnsupportedBackend(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::MissingHeader { magic } => write!(f, "missing {magic} header"),
            CodecError::VersionMismatch {
                magic,
                ours,
                theirs,
            } => write!(
                f,
                "format version mismatch after {magic}: ours {ours}, theirs {theirs}"
            ),
            CodecError::Truncated { line } => {
                write!(f, "line {line}: input ends before the payload is complete")
            }
            CodecError::Unterminated => {
                write!(f, "input does not end with a newline (cut mid-line?)")
            }
            CodecError::Malformed {
                line,
                expected,
                got,
            } => write!(f, "line {line}: expected {expected}, got {got:?}"),
            CodecError::TrailingInput { line, rest } => {
                write!(f, "line {line}: trailing input {rest:?}")
            }
            CodecError::NonMonotonic { line } => write!(
                f,
                "line {line}: frame iterations must be strictly increasing"
            ),
            CodecError::BadEscape(token) => write!(f, "bad string escape in {token:?}"),
            CodecError::UnknownProbe(name) => write!(f, "unknown probe {name:?}"),
            CodecError::UnknownFault(name) => write!(f, "unknown fault {name:?}"),
            CodecError::UnknownProfile(name) => write!(f, "unknown profile {name:?}"),
            CodecError::UnsupportedBackend(name) => write!(
                f,
                "backend {name} has no wire spec and cannot be distributed"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------------
// Strings
// ---------------------------------------------------------------------------

/// Every byte [`escape`] rewrites, with its escape: `%` and each byte
/// `split_ascii_whitespace` splits on.
const ESCAPES: [(char, &str); 6] = [
    ('%', "%25"),
    (' ', "%20"),
    ('\t', "%09"),
    ('\n', "%0a"),
    ('\x0c', "%0c"),
    ('\r', "%0d"),
];

/// Escapes a string into a single whitespace-free token: `%` and every
/// ASCII whitespace byte become `%XX`, and the empty string becomes the
/// marker token `%-` (an empty token would vanish when the line is split).
pub(crate) fn escape(text: &str) -> String {
    if text.is_empty() {
        return "%-".to_string();
    }
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match ESCAPES.iter().find(|(raw, _)| *raw == c) {
            Some((_, escaped)) => out.push_str(escaped),
            None => out.push(c),
        }
    }
    out
}

/// Reverses [`escape`]. It accepts exactly the escapes [`escape`] emits:
/// anything else — `%41`, `%+9`, `%e9`, a cut `%0` — is a
/// [`CodecError::BadEscape`], because it can only come from a corrupted or
/// foreign line and decoding it would silently change the payload.
pub(crate) fn unescape(token: &str) -> Result<String, CodecError> {
    if token == "%-" {
        return Ok(String::new());
    }
    let mut out = String::with_capacity(token.len());
    let mut rest = token;
    while let Some(at) = rest.find('%') {
        out.push_str(&rest[..at]);
        let escaped = rest.get(at..at + 3);
        let (raw, _) = ESCAPES
            .iter()
            .find(|(_, spelled)| Some(*spelled) == escaped)
            .ok_or_else(|| CodecError::BadEscape(token.to_string()))?;
        out.push(*raw);
        rest = &rest[at + 3..];
    }
    out.push_str(rest);
    Ok(out)
}

// ---------------------------------------------------------------------------
// Token tables
// ---------------------------------------------------------------------------

/// A closed set of values, each written as one fixed token. The table is
/// the one spelling that encoders, decoders and command lines share.
pub(crate) trait Keyword: Copy + PartialEq + 'static {
    /// What a decoder names when a token is not in the table.
    const EXPECTED: &'static str;
    /// Every value with its token.
    const TOKENS: &'static [(Self, &'static str)];

    /// The value's token.
    fn token(self) -> &'static str {
        Self::TOKENS
            .iter()
            .find(|(value, _)| *value == self)
            .map(|(_, token)| *token)
            .expect("every value has a token")
    }

    /// The value a token spells, if any.
    fn from_token(token: &str) -> Option<Self> {
        Self::TOKENS
            .iter()
            .find(|(_, spelled)| *spelled == token)
            .map(|(value, _)| *value)
    }
}

impl Keyword for GenerationStrategy {
    const EXPECTED: &'static str = "generation strategy";
    const TOKENS: &'static [(Self, &'static str)] = &[
        (GenerationStrategy::RandomShapeOnly, "random-shape"),
        (GenerationStrategy::GeometryAware, "geometry-aware"),
    ];
}

impl Keyword for AffineStrategy {
    const EXPECTED: &'static str = "affine strategy";
    const TOKENS: &'static [(Self, &'static str)] = &[
        (AffineStrategy::CanonicalizationOnly, "canonicalization"),
        (AffineStrategy::GeneralInteger, "general"),
        (AffineStrategy::SimilarityInteger, "similarity"),
    ];
}

impl Keyword for GuidanceMode {
    const EXPECTED: &'static str = "guidance mode";
    const TOKENS: &'static [(Self, &'static str)] = &[
        (GuidanceMode::Off, "off"),
        (GuidanceMode::ColdProbe, "cold-probe"),
    ];
}

impl Keyword for FindingKind {
    const EXPECTED: &'static str = "finding kind";
    const TOKENS: &'static [(Self, &'static str)] =
        &[(FindingKind::Logic, "logic"), (FindingKind::Crash, "crash")];
}

impl Keyword for DivergenceSide {
    const EXPECTED: &'static str = "divergence side";
    const TOKENS: &'static [(Self, &'static str)] = &[
        (DivergenceSide::Left, "left"),
        (DivergenceSide::Right, "right"),
        (DivergenceSide::Both, "both"),
    ];
}

/// The two tokens that mark an optional field absent or present, as in
/// `no-epoch` / `epoch <n>`.
pub(crate) struct Marker {
    /// The token written for `None`.
    pub absent: &'static str,
    /// The token written before the value of `Some`.
    pub present: &'static str,
    /// What a decoder names when the token is neither.
    pub expected: &'static str,
}

// ---------------------------------------------------------------------------
// Token streams
// ---------------------------------------------------------------------------

/// Builds one line from whitespace-free tokens.
#[derive(Debug, Default)]
pub(crate) struct TokenWriter {
    buf: String,
}

impl TokenWriter {
    /// An empty writer.
    pub fn new() -> Self {
        TokenWriter::default()
    }

    /// Appends a token that is known to contain no whitespace (keywords,
    /// numbers, fault/profile names).
    pub fn push_raw(&mut self, token: &str) {
        debug_assert!(
            !token.is_empty() && !token.contains(|c: char| c.is_ascii_whitespace()),
            "raw token {token:?} would corrupt the line framing"
        );
        if !self.buf.is_empty() {
            self.buf.push(' ');
        }
        self.buf.push_str(token);
    }

    /// Appends an arbitrary string as one escaped token.
    pub fn push_str(&mut self, text: &str) {
        let escaped = escape(text);
        self.push_raw(&escaped);
    }

    /// Appends an integer in decimal.
    pub fn push_num(&mut self, value: impl fmt::Display) {
        self.push_raw(&value.to_string());
    }

    /// `f64`s travel as IEEE-754 bit patterns so the decode is bit-exact.
    pub fn push_f64(&mut self, value: f64) {
        self.push_num(value.to_bits());
    }

    pub fn push_bool(&mut self, value: bool) {
        self.push_raw(if value { "1" } else { "0" });
    }

    /// Durations travel as integer nanoseconds.
    pub fn push_duration(&mut self, value: Duration) {
        self.push_num(value.as_nanos());
    }

    pub fn push_keyword<T: Keyword>(&mut self, value: T) {
        self.push_raw(value.token());
    }

    /// Appends `marker.absent` for `None`, or `marker.present` followed by
    /// whatever `write` appends for the value.
    pub fn push_option<T>(
        &mut self,
        marker: &Marker,
        value: Option<T>,
        write: impl FnOnce(&mut Self, T),
    ) {
        match value {
            None => self.push_raw(marker.absent),
            Some(value) => {
                self.push_raw(marker.present);
                write(self, value);
            }
        }
    }

    /// The finished single line.
    pub fn finish(self) -> String {
        debug_assert!(!self.buf.contains('\n'));
        self.buf
    }
}

/// Consumes one line token by token, with typed accessors that return
/// structured errors naming the line instead of panicking.
#[derive(Debug)]
pub(crate) struct TokenReader<'a> {
    tokens: Peekable<SplitAsciiWhitespace<'a>>,
    line: usize,
}

impl<'a> TokenReader<'a> {
    /// A reader over a single-line message.
    pub fn new(text: &'a str) -> Self {
        TokenReader::at(text, 1)
    }

    /// A reader over line `line` (1-based) of a longer input.
    pub fn at(text: &'a str, line: usize) -> Self {
        TokenReader {
            tokens: text.split_ascii_whitespace().peekable(),
            line,
        }
    }

    /// The 1-based line this reader reads.
    pub fn line(&self) -> usize {
        self.line
    }

    /// A [`CodecError::Malformed`] on this reader's line.
    pub fn malformed(&self, expected: &'static str, got: impl fmt::Display) -> CodecError {
        CodecError::Malformed {
            line: self.line,
            expected,
            got: got.to_string(),
        }
    }

    pub fn next(&mut self) -> Result<&'a str, CodecError> {
        self.tokens
            .next()
            .ok_or(CodecError::Truncated { line: self.line })
    }

    /// Consumes the next token if it is `literal`.
    pub fn eat(&mut self, literal: &str) -> bool {
        self.tokens.next_if_eq(&literal).is_some()
    }

    pub fn expect(&mut self, literal: &'static str) -> Result<(), CodecError> {
        match self.next()? {
            token if token == literal => Ok(()),
            other => Err(self.malformed(literal, other)),
        }
    }

    pub fn next_str(&mut self) -> Result<String, CodecError> {
        unescape(self.next()?)
    }

    /// The next token as a decimal integer of type `T`.
    pub fn next_num<T: FromStr>(&mut self, expected: &'static str) -> Result<T, CodecError> {
        let token = self.next()?;
        token.parse().map_err(|_| self.malformed(expected, token))
    }

    pub fn next_f64(&mut self, expected: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.next_num(expected)?))
    }

    pub fn next_bool(&mut self, expected: &'static str) -> Result<bool, CodecError> {
        match self.next()? {
            "1" => Ok(true),
            "0" => Ok(false),
            other => Err(self.malformed(expected, other)),
        }
    }

    pub fn next_duration(&mut self, expected: &'static str) -> Result<Duration, CodecError> {
        Ok(Duration::from_nanos(self.next_num(expected)?))
    }

    pub fn next_keyword<T: Keyword>(&mut self) -> Result<T, CodecError> {
        let token = self.next()?;
        T::from_token(token).ok_or_else(|| self.malformed(T::EXPECTED, token))
    }

    /// Reads a field written by [`TokenWriter::push_option`].
    pub fn next_option<T>(
        &mut self,
        marker: &Marker,
        read: impl FnOnce(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Option<T>, CodecError> {
        match self.next()? {
            token if token == marker.absent => Ok(None),
            token if token == marker.present => read(self).map(Some),
            other => Err(self.malformed(marker.expected, other)),
        }
    }

    /// Reads a `<magic> <version>` header, rejecting any version but `ours`.
    pub fn header(&mut self, magic: &'static str, ours: u32) -> Result<(), CodecError> {
        if self.tokens.next() != Some(magic) {
            return Err(CodecError::MissingHeader { magic });
        }
        let theirs = self.next_num("format version")?;
        if theirs == ours {
            Ok(())
        } else {
            Err(CodecError::VersionMismatch {
                magic,
                ours,
                theirs,
            })
        }
    }

    /// Asserts the line is fully consumed.
    pub fn finish(mut self) -> Result<(), CodecError> {
        match self.tokens.next() {
            None => Ok(()),
            Some(extra) => {
                let mut rest = extra.to_string();
                for token in self.tokens.take(4) {
                    rest.push(' ');
                    rest.push_str(token);
                }
                Err(CodecError::TrailingInput {
                    line: self.line,
                    rest,
                })
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Artifacts
// ---------------------------------------------------------------------------

/// The body of a line-delimited artifact: a `<magic> <version> ...` header
/// line, body lines, and a closing `end` line. The declared counts in the
/// header and the footer make truncation detectable at any byte: an artifact
/// cut short — even inside the last digit of its last line, which a count
/// alone cannot catch — decodes to a structured error, never to a shorter
/// valid artifact. Blank lines are skipped.
pub(crate) struct ArtifactReader<'a> {
    lines: Enumerate<Lines<'a>>,
    /// 1-based number of the last line handed out.
    line: usize,
}

impl<'a> ArtifactReader<'a> {
    /// Opens an artifact: it must be newline-terminated and its first line
    /// must start with `<magic> <ours>`. Returns the body reader and the
    /// rest of the header line.
    pub fn open(
        text: &'a str,
        magic: &'static str,
        ours: u32,
    ) -> Result<(Self, TokenReader<'a>), CodecError> {
        if text.is_empty() {
            return Err(CodecError::MissingHeader { magic });
        }
        if !text.ends_with('\n') {
            return Err(CodecError::Unterminated);
        }
        let mut lines = text.lines().enumerate();
        let (_, first) = lines.next().ok_or(CodecError::MissingHeader { magic })?;
        let mut header = TokenReader::at(first, 1);
        header.header(magic, ours)?;
        Ok((ArtifactReader { lines, line: 1 }, header))
    }

    /// The next non-blank line, for reading until an explicit end.
    fn next_nonblank(&mut self) -> Option<&'a str> {
        let (index, line) = self.lines.find(|(_, line)| !line.trim().is_empty())?;
        self.line = index + 1;
        Some(line)
    }

    /// Reads one body line, which `read` must consume fully. The footer or
    /// the end of input in its place is [`CodecError::Truncated`].
    pub fn line<T>(
        &mut self,
        read: impl FnOnce(&mut TokenReader<'a>) -> Result<T, CodecError>,
    ) -> Result<T, CodecError> {
        let expected_at = self.line + 1;
        let text = self
            .next_nonblank()
            .filter(|text| text.trim() != "end")
            .ok_or(CodecError::Truncated { line: expected_at })?;
        let mut line = TokenReader::at(text, self.line);
        let value = read(&mut line)?;
        line.finish()?;
        Ok(value)
    }

    /// Reads exactly `declared` body lines with [`ArtifactReader::line`],
    /// passing `read` each line's index in the section.
    pub fn lines<T>(
        &mut self,
        declared: usize,
        mut read: impl FnMut(usize, &mut TokenReader<'a>) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let mut out = Vec::with_capacity(declared.min(1024));
        for index in 0..declared {
            out.push(self.line(|line| read(index, line))?);
        }
        Ok(out)
    }

    /// Expects the `end` footer, with nothing but blank lines after it. Any
    /// other line in its place — one more body line than declared — is
    /// [`CodecError::TrailingInput`].
    pub fn footer(mut self) -> Result<(), CodecError> {
        let truncated = CodecError::Truncated {
            line: self.line + 1,
        };
        let footer = self.next_nonblank().ok_or(truncated)?;
        let trailing = if footer.trim() == "end" {
            self.next_nonblank()
        } else {
            Some(footer)
        };
        match trailing {
            None => Ok(()),
            Some(rest) => Err(CodecError::TrailingInput {
                line: self.line,
                rest: rest.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_round_trip_through_escaping() {
        let cases = [
            "",
            " ",
            "plain",
            "with space",
            "100% done",
            "%-",
            "%20",
            "tabs\tand\nnewlines\r",
            "form\x0cfeed",
            "unicode → é ü 測試",
        ];
        for case in cases {
            let escaped = escape(case);
            assert_eq!(
                escaped.split_ascii_whitespace().collect::<Vec<_>>(),
                vec![escaped.as_str()],
                "{escaped:?} is not one token"
            );
            assert_eq!(unescape(&escaped).as_deref(), Ok(case), "{case:?}");
        }
    }

    #[test]
    fn non_ascii_escapes_are_rejected_not_mojibake() {
        // `escape` emits exactly six escapes (and `%-` as a whole token), so
        // any other escape can only come from a corrupted or foreign line:
        // bytes ≥ 0x80 (decoding `%e9` as Latin-1 would be mojibake), other
        // ASCII (`%41`), signed hex (`%+9` parses as 9 under
        // `u8::from_str_radix`), uppercase hex, cut escapes, and `%-`
        // anywhere but as the whole token.
        for token in [
            "%e9", "%80", "a%ffb", "%c3%a9", "%41", "%+9", "%0A", "%2", "%", "a%-", "%-b", "%%25",
        ] {
            assert_eq!(
                unescape(token),
                Err(CodecError::BadEscape(token.to_string())),
                "{token}"
            );
        }
        // Raw multi-byte characters still round-trip.
        assert_eq!(unescape(&escape("é → 測試")).as_deref(), Ok("é → 測試"));
        assert_eq!(
            unescape("%25%20%09%0a%0c%0d").as_deref(),
            Ok("% \t\n\x0c\r")
        );
    }

    #[test]
    fn keyword_tables_spell_every_value_once() {
        fn check<T: Keyword + fmt::Debug>() {
            for (value, token) in T::TOKENS {
                assert_eq!(value.token(), *token);
                assert_eq!(T::from_token(token), Some(*value));
                assert_eq!(
                    T::TOKENS.iter().filter(|(_, t)| t == token).count(),
                    1,
                    "{token} spelled twice"
                );
            }
            assert_eq!(T::from_token("nonsense"), None);
        }
        check::<GenerationStrategy>();
        check::<AffineStrategy>();
        check::<GuidanceMode>();
        check::<FindingKind>();
        check::<DivergenceSide>();
    }

    #[test]
    fn readers_name_the_line_and_the_failure() {
        let mut reader = TokenReader::at("seed x", 7);
        reader.expect("seed").unwrap();
        assert_eq!(
            reader.next_num::<u64>("campaign seed"),
            Err(CodecError::Malformed {
                line: 7,
                expected: "campaign seed",
                got: "x".to_string()
            })
        );
        assert_eq!(reader.next(), Err(CodecError::Truncated { line: 7 }));
        let mut reader = TokenReader::at("hello 4294967297", 2);
        assert!(matches!(
            reader.header("hello", 1),
            Err(CodecError::Malformed { line: 2, .. })
        ));
        let mut reader = TokenReader::new("epoch 3 tail");
        let marker = Marker {
            absent: "no-epoch",
            present: "epoch",
            expected: "epoch marker",
        };
        assert_eq!(
            reader.next_option(&marker, |r| r.next_num::<usize>("n")),
            Ok(Some(3))
        );
        assert_eq!(
            reader.finish(),
            Err(CodecError::TrailingInput {
                line: 1,
                rest: "tail".to_string()
            })
        );
    }

    #[test]
    fn artifacts_need_header_count_footer_and_newline() {
        let read = |text: &str| -> Result<Vec<u64>, CodecError> {
            let (mut lines, mut header) = ArtifactReader::open(text, "magic", 1)?;
            let n = header.next_num("count")?;
            header.finish()?;
            let values = lines.lines(n, |_, line| {
                line.expect("v")?;
                line.next_num("value")
            })?;
            lines.footer()?;
            Ok(values)
        };
        assert_eq!(read("magic 1 2\nv 4\n\nv 5\nend\n\n"), Ok(vec![4, 5]));
        assert_eq!(read(""), Err(CodecError::MissingHeader { magic: "magic" }));
        assert_eq!(
            read("magic 1 2\nv 4\nv 5\nend"),
            Err(CodecError::Unterminated)
        );
        assert_eq!(
            read("magic 2 0\nend\n"),
            Err(CodecError::VersionMismatch {
                magic: "magic",
                ours: 1,
                theirs: 2
            })
        );
        assert_eq!(
            read("magic 1 2\nv 4\nend\n"),
            Err(CodecError::Truncated { line: 3 })
        );
        assert_eq!(
            read("magic 1 2\nv 4\nv 5\n"),
            Err(CodecError::Truncated { line: 4 })
        );
        assert_eq!(
            read("magic 1 1\nv 4\nv 5\nend\n"),
            Err(CodecError::TrailingInput {
                line: 3,
                rest: "v 5".to_string()
            })
        );
        assert_eq!(
            read("magic 1 1\nv 4\nend\nmore\n"),
            Err(CodecError::TrailingInput {
                line: 4,
                rest: "more".to_string()
            })
        );
    }
}
