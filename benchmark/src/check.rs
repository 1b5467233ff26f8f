//! Output correctness: the `summary.txt` digest gate and the trial-log
//! checks every measured campaign passes.

use std::collections::BTreeSet;

use frlfi::nn::weight_digest;
use frlfi_campaign::fmt::json;
use serde::Value;

/// The expected result of a workload's campaign at its default seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Golden {
    /// [`weight_digest`] (FNV-1a 64) of `summary.txt`.
    pub digest: u64,
    /// Trials in the campaign.
    pub trials: usize,
}

/// The first line of a degraded (partial) summary.
const DEGRADED_MARK: &str = "!! DEGRADED";

/// Checks a published summary: complete, not degraded, and — when a
/// golden applies (default seed) — byte-identical to it by digest.
/// Returns the digest.
pub fn check_summary(text: &str, trials: usize, golden: Option<Golden>) -> Result<u64, String> {
    if text.starts_with(DEGRADED_MARK) {
        return Err("summary.txt is DEGRADED (partial results)".into());
    }
    if text.trim().is_empty() {
        return Err("summary.txt is empty".into());
    }
    let digest = weight_digest(text.as_bytes());
    if let Some(g) = golden {
        if trials != g.trials {
            return Err(format!("campaign has {trials} trials, the golden run {}", g.trials));
        }
        if digest != g.digest {
            return Err(format!(
                "summary.txt digest {digest:#018x} differs from the golden {:#018x}",
                g.digest
            ));
        }
    }
    Ok(digest)
}

/// Checks a complete trial log: exactly one record per `(cell,
/// repeat)` of the `total` trials, each value finite and inside
/// `range`. Returns the number of distinct trials recorded.
pub fn check_records(
    text: &str,
    total: usize,
    repeats: usize,
    range: (f64, f64),
) -> Result<usize, String> {
    let mut seen = BTreeSet::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let v = json::parse(line).map_err(|e| format!("trials.jsonl line {}: {e}", i + 1))?;
        let num = |k: &str| v.get(k).and_then(Value::as_float);
        let (Some(cell), Some(rep), Some(value)) = (num("cell"), num("repeat"), num("value"))
        else {
            return Err(format!("trials.jsonl line {}: not a trial record", i + 1));
        };
        let flat = cell as usize * repeats + rep as usize;
        if cell < 0.0 || rep < 0.0 || rep as usize >= repeats || flat >= total {
            return Err(format!("trials.jsonl line {}: trial ({cell}, {rep}) out of range", i + 1));
        }
        if !value.is_finite() || value < range.0 || value > range.1 {
            return Err(format!(
                "trials.jsonl line {}: value {value} outside [{}, {}]",
                i + 1,
                range.0,
                range.1
            ));
        }
        if !seen.insert(flat) {
            return Err(format!("trials.jsonl line {}: trial {flat} recorded twice", i + 1));
        }
    }
    if seen.len() != total {
        return Err(format!("trials.jsonl holds {} of {total} trials", seen.len()));
    }
    Ok(seen.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_gate_accepts_the_golden_and_rejects_others() {
        let text = "== Campaign x ==\nBER  ep1\n0  100.0\n";
        let golden = Golden { digest: weight_digest(text.as_bytes()), trials: 4 };
        assert_eq!(check_summary(text, 4, Some(golden)), Ok(golden.digest));
        // Any seed without a golden: digest only.
        assert_eq!(check_summary(text, 4, None), Ok(golden.digest));
        // One changed digit fails the gate.
        let drifted = text.replace("100.0", "100.1");
        assert!(check_summary(&drifted, 4, Some(golden)).unwrap_err().contains("differs"));
        // A wrong trial count fails even with matching bytes.
        assert!(check_summary(text, 5, Some(golden)).is_err());
    }

    #[test]
    fn degraded_and_empty_summaries_fail() {
        let degraded = "!! DEGRADED CAMPAIGN SUMMARY — PARTIAL RESULTS !!\n";
        assert!(check_summary(degraded, 4, None).unwrap_err().contains("DEGRADED"));
        assert!(check_summary("\n", 4, None).is_err());
    }

    #[test]
    fn record_check_wants_each_trial_once_and_in_range() {
        let rec = |c: u32, r: u32, v: f64| {
            format!("{{\"cell\":{c},\"repeat\":{r},\"seed\":-5,\"value\":{v:?}}}\n")
        };
        let full = [rec(0, 0, 1.0), rec(0, 1, 0.5), rec(1, 0, 0.0), rec(1, 1, 1.0)].concat();
        assert_eq!(check_records(&full, 4, 2, (0.0, 1.0)), Ok(4));
        let missing = [rec(0, 0, 1.0), rec(1, 1, 1.0)].concat();
        assert!(check_records(&missing, 4, 2, (0.0, 1.0)).unwrap_err().contains("2 of 4"));
        let twice = [full.clone(), rec(1, 1, 1.0)].concat();
        assert!(check_records(&twice, 4, 2, (0.0, 1.0)).unwrap_err().contains("twice"));
        let out_of_range = full.replace("0.5", "1.5");
        assert!(check_records(&out_of_range, 4, 2, (0.0, 1.0)).is_err());
        let foreign = [full.clone(), rec(2, 0, 1.0)].concat();
        assert!(check_records(&foreign, 4, 2, (0.0, 1.0)).unwrap_err().contains("out of range"));
    }
}
