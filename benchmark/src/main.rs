//! Benchmark of FRL-FI fault-injection campaigns, end to end and layer
//! by layer. See `README.md` beside this crate for the metrics.
//!
//! ```text
//! frlfi-benchmark --workload <grid-train|drone-finetune|study-eval>
//!                 [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! Every workload is a registry builtin run through
//! `Scenario::expand` → `runner::run` on two closed-loop worker threads.
//! `--trace 0` measures untraced campaigns and reports the end-to-end
//! metrics; `--trace 1` runs untraced and traced campaigns in pairs,
//! folds the traced obs stream and probes each layer, and reports the
//! per-layer metrics. The last stdout line is one JSON result object.
//! `--setup-child CALLS:SAMPLES` makes the process a set-up timing
//! window that the untraced run starts (`workload::setup_window`).

mod check;
mod fold;
mod metrics;
mod probes;
mod spans;
mod stats;
mod workload;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use fold::ObsFold;
use frlfi_campaign::Campaign;
use metrics::Metrics;
use spans::Spans;
use stats::median;
use workload::{Rep, Workload, THREADS};

struct Args {
    workload: Workload,
    seed: Option<u64>,
    seconds: u64,
    trace: bool,
    out: PathBuf,
    /// `CALLS:SAMPLES` of a set-up process (see `workload::setup_window`).
    setup_child: Option<(usize, usize)>,
}

const USAGE: &str = "usage: frlfi-benchmark --workload <grid-train|drone-finetune|study-eval> \
                     [--seed N] [--seconds S] [--trace 0|1] [--out DIR]";

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10, false);
        let mut out = PathBuf::from(".bench_runs");
        let mut setup_child = None;
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"));
            let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
                }
                "--seed" => seed = Some(number(value()?)?),
                "--seconds" => seconds = number(value()?)?,
                "--trace" => trace = number(value()?)? != 0,
                "--out" => out = PathBuf::from(value()?),
                "--setup-child" => {
                    let v = value()?;
                    let parsed = v
                        .split_once(':')
                        .and_then(|(c, n)| Some((c.parse().ok()?, n.parse().ok()?)));
                    setup_child =
                        Some(parsed.ok_or(format!("--setup-child {v}: not CALLS:SAMPLES"))?);
                }
                _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
            }
        }
        let workload = workload.ok_or(USAGE)?;
        Ok(Args { workload, seed, seconds, trace, out, setup_child })
    }
}

fn main() {
    match run() {
        Ok(()) => {}
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    }
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Failure accounting over every campaign of a run.
#[derive(Default)]
struct Tally {
    attempted: usize,
    committed: usize,
    quarantined: usize,
    errored: usize,
    errors: Vec<String>,
    digests: Vec<u64>,
}

impl Tally {
    fn add(&mut self, rep: &Rep) {
        self.attempted += rep.attempted;
        self.committed += rep.committed;
        self.quarantined += rep.quarantined;
        self.errored += rep.errored;
        self.errors.extend(rep.error.clone());
        self.digests.extend(rep.digest);
    }

    fn failed(&self) -> usize {
        self.attempted - self.committed
    }

    /// Every campaign passed its checks and all published the same
    /// summary (the result is a pure function of spec and seed, with
    /// the recorder on or off).
    fn correct(&self) -> bool {
        self.errors.is_empty()
            && self.failed() == 0
            && self.attempted > 0
            && self.digests.windows(2).all(|w| w[0] == w[1])
    }
}

fn run() -> Result<(), String> {
    let args = Args::parse(std::env::args().skip(1))?;
    let w = args.workload;
    let default_seed = w.default_seed()?;
    let seed = args.seed.unwrap_or(default_seed);
    let scenario = w.scenario(seed);
    if let Some((calls, samples)) = args.setup_child {
        return workload::setup_child(w, &scenario, calls, samples);
    }
    // The golden applies wherever the campaign is the builtin's own.
    let golden = (!w.seeded() || seed == default_seed).then(|| w.golden());
    let out = args.out.join(w.name());
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let campaign_dir = out.join("campaign");
    let budget = Duration::from_secs(args.seconds);
    let (builtin, scale) = w.builtin();

    let mut spans = Spans::new();
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut report = vec![format!(
        "workload {} = builtin {builtin} @ {scale:?}, master seed {seed:#x}{}, {THREADS} threads, \
         trace {}",
        w.name(),
        if w.seeded() { "" } else { " (fixed by the study; --seed does not reach it)" },
        u8::from(args.trace),
    )];

    if !args.trace {
        let mut setup = Vec::new();
        let mut calls = 0;
        let mut setup_window = |spans: &mut Spans| {
            let window = spans
                .scope("setup", |_| workload::setup_window(w, seed, calls, w.setup_samples()))?;
            calls = window.0;
            setup.push(window.1.into_iter().fold(f64::INFINITY, f64::min));
            Ok::<_, String>(())
        };
        setup_window(&mut spans)?;
        let (mut campaigns, mut wall_s) = (0, 0.0);
        let t0 = Instant::now();
        while campaigns < w.min_reps() || t0.elapsed() < budget {
            let rep = spans.scope("runner::run", |_| {
                workload::run_rep(w, &scenario, &campaign_dir, None, golden)
            })?;
            campaigns += 1;
            wall_s += rep.wall_s;
            report.push(format!(
                "campaign {campaigns}: {:.3} s, {:.4} trials/s",
                rep.wall_s,
                rep.trials_per_s()
            ));
            tally.add(&rep);
            // The peak of a process that set up and ran one campaign, so
            // it does not grow with how many campaigns fit the run.
            if campaigns == 1 {
                m.set("peak_rss_mb", peak_rss_mb()?);
            }
            setup_window(&mut spans)?;
        }
        // Over the whole run rather than a median campaign: the host
        // switches between a fast and a slow phase every few ms, in a
        // mix that drifts from one campaign to the next, and the run's
        // total averages more of that mix than any one campaign.
        m.set("trials_per_s", tally.committed as f64 / wall_s);
        let setup_s = setup.iter().copied().fold(f64::INFINITY, f64::min);
        let fastest: Vec<String> = setup.iter().map(|s| format!("{s:.4e}")).collect();
        report.push(format!(
            "set-up: {} samples of {calls} calls per window; fastest per window {} s",
            w.setup_samples(),
            fastest.join(" ")
        ));
        m.set("setup_s", setup_s);
    } else {
        let mut untraced = Vec::new();
        let mut traced = Vec::new();
        let mut fold = ObsFold::default();
        let mut traced_wall_s = 0.0;
        let t0 = Instant::now();
        while traced.is_empty() || t0.elapsed() < budget {
            // Alternate which half of the pair runs first.
            let order = if traced.len() % 2 == 0 { [false, true] } else { [true, false] };
            for obs in order {
                let name = if obs { "runner::run traced" } else { "runner::run" };
                let traced_fold = obs.then_some(&mut fold);
                let rep = spans.scope(name, |_| {
                    workload::run_rep(w, &scenario, &campaign_dir, traced_fold, golden)
                })?;
                tally.add(&rep);
                report.push(format!(
                    "campaign {} ({}): {:.3} s, {:.4} trials/s",
                    untraced.len() + traced.len() + 1,
                    if obs { "traced" } else { "untraced" },
                    rep.wall_s,
                    rep.trials_per_s()
                ));
                if obs {
                    traced.push(rep.trials_per_s());
                    traced_wall_s += rep.wall_s;
                } else {
                    untraced.push(rep.trials_per_s());
                }
            }
        }
        let campaign = scenario.expand().map_err(|e| e.to_string())?;
        let shape = probes::Shape::of(&campaign)?;
        let rounds = fold_metrics(&mut m, &fold, &campaign, traced.len() as f64, traced_wall_s);
        let train_batch = m.get("nn.train_batch.p50").map_or(1, |b| (b.round() as usize).max(1));
        let probe = probes::Probe {
            w,
            campaign: &campaign,
            shape: &shape,
            train_batch,
            seed,
            scratch: &out.join("probes"),
        };
        report.extend(probes::run(&probe, &mut spans, &mut m)?);
        mitigation_overhead(&mut m, &shape, rounds);
        let (u, t) = (median(&untraced).expect("pair"), median(&traced).expect("pair"));
        m.set("obs.overhead_pct", (u / t - 1.0) * 100.0);
        m.set("fail_ratio", tally.failed() as f64 / tally.attempted as f64);
        report
            .push(format!("untraced {u:.4} vs traced {t:.4} trials/s over {} pairs", traced.len()));
        report.push(format!(
            "obs: trial spans {:.3} s, train {:.3} s, eval {:.3} s, io {:.3} s, {} torn tails",
            fold.span_us("trial") as f64 / 1e6,
            fold.span_us("train") as f64 / 1e6,
            fold.span_us("eval") as f64 / 1e6,
            fold.timer("io").1 as f64 / 1e6,
            fold.profile.torn_tails
        ));
    }

    spans.write(&out.join(format!("spans-trace{}.jsonl", u8::from(args.trace))))?;
    report.push(format!(
        "trials: attempted {}, committed {}, quarantined {}, errored {}",
        tally.attempted, tally.committed, tally.quarantined, tally.errored
    ));
    for d in tally.digests.iter().take(1) {
        report.push(format!(
            "summary.txt digest {d:#018x} ({})",
            match golden {
                Some(g) if g.digest == *d => "matches the golden",
                Some(_) => "differs from the golden",
                None => "no golden at this seed",
            }
        ));
    }
    report.extend(tally.errors.iter().map(|e| format!("FAILED: {e}")));
    let table = if args.trace { metrics::PER_LAYER } else { metrics::END_TO_END };
    for s in table {
        if let Some(v) = m.get(s.name) {
            report.push(format!("{:<36} {v:>16.6} {}", s.name, s.unit));
        }
    }
    for line in &report {
        println!("{line}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.correct(),
        tally.attempted,
        tally.failed(),
        m.render(table)?
    );
    Ok(())
}

/// Per-layer metrics folded from the obs streams of `runs` traced
/// campaigns that took `wall_s` in all. Returns the aggregation rounds
/// per trial.
fn fold_metrics(m: &mut Metrics, f: &ObsFold, campaign: &Campaign, runs: f64, wall_s: f64) -> f64 {
    let trials = campaign.total_trials() as f64 * runs;
    let trial_ms: Vec<f64> = f.trial_us.iter().map(|&us| us as f64 / 1e3).collect();
    let busy_s: f64 = trial_ms.iter().sum::<f64>() / 1e3;
    m.set("campaign.runner.idle_share", 1.0 - busy_s / (THREADS as f64 * wall_s));
    m.set("campaign.runner.trial_ms.p50", median(&trial_ms).unwrap_or(0.0));
    let tail = stats::tail(&trial_ms);
    m.set("campaign.runner.trial_ms.tail", tail.map_or(0.0, |t| t.value));
    m.set("campaign.runner.trial_ms.tail_pct", tail.map_or(0.0, |t| f64::from(t.pct)));
    m.set("campaign.runner.trial_ms.samples", trial_ms.len() as f64);
    m.set("campaign.io.us_per_trial", f.timer("io").1 as f64 / trials);
    let (won, attempts) = (f.counter("coord.claim.won"), f.counter("coord.claim.attempt"));
    let won_ratio = if attempts == 0 { 0.0 } else { won as f64 / attempts as f64 };
    m.set("campaign.coord.claim_won_ratio", won_ratio);
    m.set("campaign.coord.claim_attempts", attempts as f64 / runs);
    // A shared-mode train task records only its `train` span.
    let train_task_us = f.span_us("train_task").max(f.span_us("train"));
    let train_task_s =
        if campaign.n_models() > 0 { train_task_us as f64 / 1e6 / runs } else { 0.0 };
    m.set("campaign.artifacts.train_task_s", train_task_s);
    m.set("core.train_us_per_trial", f.span_us("train") as f64 / trials);
    m.set("core.eval_us_per_trial", f.span_us("eval") as f64 / trials);
    let dispatches = f.counter_prefix("nn.dispatch.") + f.counter_prefix("nn.train.dispatch.");
    m.set("nn.dispatch_per_trial", dispatches as f64 / trials);
    m.set("nn.train_batch.p50", f.hist_p50("nn.train.batch_size").unwrap_or(0.0));
    let (rounds, aggregate_us) = f.timer("aggregate");
    m.set("federated.aggregate_us_per_trial", aggregate_us as f64 / trials);
    rounds as f64 / trials
}

/// Detection and recovery cost per trial ÷ the phase it runs in: range
/// repairs against eval time, reward-drop observations (one per
/// episode) and checkpoint updates (one per aggregation round) against
/// train time.
fn mitigation_overhead(m: &mut Metrics, shape: &probes::Shape, rounds_per_trial: f64) {
    let get = |k: &str| m.get(k).unwrap_or(0.0);
    let share = if shape.repairs_per_trial > 0.0 {
        get("mitigation.repair_us") * shape.repairs_per_trial / get("core.eval_us_per_trial")
    } else if shape.mitigation.is_some() {
        (get("mitigation.observe_us") * shape.episodes_per_trial as f64
            + get("mitigation.checkpoint_us") * rounds_per_trial)
            / get("core.train_us_per_trial")
    } else {
        0.0
    };
    m.set("mitigation.overhead_pct", share * 100.0);
}
