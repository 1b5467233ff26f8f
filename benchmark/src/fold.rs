//! Folds the program's obs event streams (`<campaign>/obs/worker-*.jsonl`)
//! for the per-layer metrics.
//!
//! Phase, timer, counter and histogram totals come from the program's
//! own `profile::load_dir` in strict mode, so a stream that breaks the
//! schema fails the run. The profile keeps no per-trial durations; the
//! one pass here collects the `dur_us` of every `trial` span for the
//! runner's p50 and tail.

use std::path::Path;

use frlfi_campaign::fmt::json;
use frlfi_campaign::profile::{self, CheckMode, Profile};
use serde::Value;

/// The folded streams of one or more traced campaigns.
#[derive(Debug, Clone, Default)]
pub struct ObsFold {
    /// Per-worker totals, one entry per worker stream of each campaign.
    pub profile: Profile,
    /// Duration of every `trial` span, in stream order.
    pub trial_us: Vec<u64>,
}

/// The `dur_us` of every `trial` span in one stream's text. Only
/// newline-terminated lines count: an unterminated tail is a write that
/// never completed, as `profile::load_dir` treats it.
pub fn trial_spans(text: &str) -> Result<Vec<u64>, String> {
    let mut out = Vec::new();
    for (i, piece) in text.split_inclusive('\n').enumerate() {
        let line = piece.trim();
        if !piece.ends_with('\n') || line.is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let field = |k: &str| v.get(k).and_then(Value::as_str);
        if field("kind") == Some("span") && field("name") == Some("trial") {
            let dur = v.get("dur_us").and_then(Value::as_int).filter(|&d| d >= 0);
            out.push(dur.ok_or(format!("line {}: trial span without dur_us", i + 1))? as u64);
        }
    }
    Ok(out)
}

impl ObsFold {
    /// Folds the obs streams of the campaign in `campaign_dir` into this
    /// fold.
    pub fn add_campaign(&mut self, campaign_dir: &Path) -> Result<(), String> {
        let p = profile::load_dir(campaign_dir, CheckMode::Strict)?;
        let obs_dir = campaign_dir.join(profile::OBS_DIR);
        let mut paths: Vec<_> = std::fs::read_dir(&obs_dir)
            .map_err(|e| format!("read {}: {e}", obs_dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.extension().is_some_and(|x| x == "jsonl")
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("worker-"))
            })
            .collect();
        paths.sort();
        for path in paths {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            self.trial_us
                .extend(trial_spans(&text).map_err(|e| format!("{}: {e}", path.display()))?);
        }
        self.profile.workers.extend(p.workers);
        self.profile.torn_tails += p.torn_tails;
        Ok(())
    }

    /// Total µs of span `name` across workers (0 when absent).
    pub fn span_us(&self, name: &str) -> u64 {
        self.profile.workers.iter().filter_map(|w| w.spans.get(name)).map(|s| s.1).sum()
    }

    /// `(calls, total µs)` of timer `name` across workers.
    pub fn timer(&self, name: &str) -> (u64, u64) {
        let timers = self.profile.workers.iter().filter_map(|w| w.timers.get(name));
        timers.fold((0, 0), |(n, us), t| (n + t.0, us + t.1))
    }

    /// Counter `name` across workers (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.profile.counter_totals().get(name).copied().unwrap_or(0)
    }

    /// Sum of every counter whose name starts with `prefix`.
    pub fn counter_prefix(&self, prefix: &str) -> u64 {
        let totals = self.profile.counter_totals();
        totals.iter().filter(|(k, _)| k.starts_with(prefix)).map(|(_, n)| n).sum()
    }

    /// The median of histogram `name`, as `campaign profile` reports it;
    /// `None` when nothing was recorded.
    pub fn hist_p50(&self, name: &str) -> Option<f64> {
        let buckets = self.profile.hist_totals().remove(name)?;
        let max = self.profile.hist_max_totals().get(name).copied().unwrap_or(0);
        (buckets.iter().sum::<u64>() > 0).then(|| profile::hist_percentile(&buckets, max, 0.5))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STREAM: &str = r#"{"v":2,"kind":"meta","worker":"x1","pid":1,"ts_ms":1,"mono_us":0}
{"v":2,"kind":"span","name":"train","ts_ms":2,"dur_us":900,"id":2,"tid":1,"mono_us":1,"parent":1}
{"v":2,"kind":"span","name":"eval","ts_ms":2,"dur_us":40,"id":3,"tid":1,"mono_us":901,"parent":1}
{"v":2,"kind":"span","name":"trial","ts_ms":2,"dur_us":1000,"id":1,"tid":1,"mono_us":0,"trial":0}
{"v":2,"kind":"count","name":"nn.dispatch.reference","ts_ms":2,"tid":1,"n":500}
{"v":2,"kind":"count","name":"nn.train.dispatch.batched","ts_ms":2,"tid":1,"n":20}
{"v":2,"kind":"timer","name":"io","ts_ms":2,"tid":1,"n":1,"total_us":600,"parent":1}
{"v":2,"kind":"hist","name":"nn.train.batch_size","ts_ms":2,"tid":1,"buckets":[0,0,0,0,0,0,4,0,0,0,0,0,0,0,0,0,0],"max":40}
{"v":1,"kind":"span","name":"trial","dur_us":3000,"ts_ms":3,"trial":1}
{"v":1,"kind":"count","name":"nn.dispatch.reference","n":100,"ts_ms":3}
{"v":1,"kind":"timer","name":"io","n":1,"total_us":400,"ts_ms":3}
{"v":1,"kind":"hist","name":"nn.train.batch_size","buckets":[0,0,0,0,0,0,4,0,0,0,0,0,0,0,0,0,0],"ts_ms":3}
{"v":2,"kind":"log","level":"warn","msg":"x","ts_ms":4,"tid":1}
{"v":2,"kind":"span","name":"tri"#;

    /// A campaign directory holding `streams` as its worker streams.
    fn campaign(name: &str, streams: &[&str]) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("frlfi-bench-fold-{}-{name}", std::process::id()));
        let obs = dir.join(profile::OBS_DIR);
        std::fs::create_dir_all(&obs).expect("create obs dir");
        for (i, s) in streams.iter().enumerate() {
            std::fs::write(obs.join(format!("worker-w{i}.jsonl")), s).expect("write stream");
        }
        dir
    }

    #[test]
    fn trial_spans_skip_the_torn_tail() {
        assert_eq!(trial_spans(STREAM), Ok(vec![1000, 3000]));
        assert!(trial_spans("{\"v\":2,\"kind\":\"span\",\"name\":\"trial\"}\n").is_err());
    }

    #[test]
    fn folds_phases_timers_counters_and_hists_across_campaigns() {
        let (a, b) = STREAM.split_at(STREAM.find("{\"v\":1").expect("v1 half"));
        let dir_a = campaign("a", &[a]);
        let dir_b = campaign("b", &[b]);
        let mut f = ObsFold::default();
        f.add_campaign(&dir_a).expect("first campaign");
        f.add_campaign(&dir_b).expect("second campaign");
        assert_eq!(f.trial_us, [1000, 3000]);
        assert_eq!(f.span_us("trial"), 4000);
        assert_eq!(f.span_us("train"), 900);
        assert_eq!(f.span_us("eval"), 40);
        assert_eq!(f.span_us("train_task"), 0);
        assert_eq!(f.timer("io"), (2, 1000));
        assert_eq!(f.counter("nn.dispatch.reference"), 600);
        assert_eq!(f.counter_prefix("nn."), 620);
        assert_eq!(f.counter_prefix("nn.train.dispatch."), 20);
        // 8 batches in [32, 64), exact max 40: the median is 36.
        assert_eq!(f.hist_p50("nn.train.batch_size"), Some(36.0));
        assert_eq!(f.hist_p50("absent"), None);
        assert_eq!(f.profile.torn_tails, 1);
        for d in [dir_a, dir_b] {
            std::fs::remove_dir_all(d).expect("clean");
        }
    }

    #[test]
    fn a_schema_break_fails_the_fold() {
        let dir = campaign("bad", &["{\"v\":2,\"kind\":\"span\",\"ts_ms\":1}\n"]);
        let err = ObsFold::default().add_campaign(&dir).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        std::fs::remove_dir_all(dir).expect("clean");
    }
}
