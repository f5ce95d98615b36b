//! Golden outputs: each workload's report at its default seed, one line per
//! finding, so a mismatch names the first finding that differs.

use spatter_repro::core::CampaignReport;

/// 64-bit FNV-1a, to pin the whole `determinism_fingerprint()` string.
fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The report's fingerprint as lines: the fields of
/// `determinism_fingerprint()` split per finding, then its hash.
pub fn lines(report: &CampaignReport) -> Vec<String> {
    let mut lines: Vec<String> = report
        .findings
        .iter()
        .map(|f| {
            format!(
                "finding {:?}|{}|{}|{}|{:?}",
                f.kind,
                f.side.name(),
                f.description,
                f.iteration,
                f.attributed_faults
            )
            .replace('\n', "\\n")
        })
        .collect();
    lines.push(format!("unique {:?}", report.unique_faults));
    lines.push(format!("skipped {}", report.skipped_queries));
    lines.push(format!("probes {:?}", report.probe_coverage));
    lines.push(format!(
        "fingerprint-fnv64 {:016x}",
        fnv64(&report.determinism_fingerprint())
    ));
    lines
}

/// The golden file for a report: a comment header, then [`lines`].
pub fn render(header: &str, report: &CampaignReport) -> String {
    let mut text = format!("# {header}\n");
    for line in lines(report) {
        text.push_str(&line);
        text.push('\n');
    }
    text
}

/// Compares two line lists; on a mismatch, describes the first line that
/// differs.
pub fn diff(expected: &[String], actual: &[String]) -> Result<(), String> {
    let first = (0..expected.len().max(actual.len())).find(|&i| expected.get(i) != actual.get(i));
    match first {
        None => Ok(()),
        Some(i) => {
            let show = |line: Option<&String>| line.map_or("<none>".to_string(), |l| l.clone());
            Err(format!(
                "first difference at line {} of {} expected / {} actual:\n  expected: {}\n  actual:   {}",
                i + 1,
                expected.len(),
                actual.len(),
                show(expected.get(i)),
                show(actual.get(i))
            ))
        }
    }
}

/// Checks a report against a golden file's text.
pub fn check(golden: &str, report: &CampaignReport) -> Result<(), String> {
    let expected: Vec<String> = golden
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(str::to_string)
        .collect();
    diff(&expected, &lines(report))
}
