//! The benchmark's workloads and the one place that chooses how the
//! runner executes them.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use frlfi::experiments::harness::{drone_geometry, drone_pretrained_weights};
use frlfi::Scale;
use frlfi_campaign::{registry, runner, CoordConfig, CoordMode, RunnerConfig, Scenario};

use crate::check::{self, Golden};
use crate::fold::ObsFold;

/// Worker threads of every workload: closed loop, each thread claims
/// its next trial only after its previous one commits.
pub const THREADS: usize = 2;

/// A benchmark workload: one registry builtin run end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `fig7a` @ Bench: batch-1 dense Q-learning, server faults,
    /// reward-drop detection plus checkpointing; exclusive coordination.
    GridTrain,
    /// `fig5a` @ Bench: conv REINFORCE fine-tuning at batch ≈32 behind
    /// a serial 400-episode pre-training; exclusive coordination. Runs
    /// by hand only: `BENCHMARK.json` leaves it out (see the README).
    DroneFinetune,
    /// `fig8a` @ Full: one train task gating 1800 inference-only eval
    /// trials, every one claimed through the shared `claims.jsonl`
    /// lease path.
    StudyEval,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::GridTrain, Workload::DroneFinetune, Workload::StudyEval];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GridTrain => "grid-train",
            Workload::DroneFinetune => "drone-finetune",
            Workload::StudyEval => "study-eval",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The registry builtin and scale the workload runs.
    pub fn builtin(self) -> (&'static str, Scale) {
        match self {
            Workload::GridTrain => ("fig7a", Scale::Bench),
            Workload::DroneFinetune => ("fig5a", Scale::Bench),
            Workload::StudyEval => ("fig8a", Scale::Full),
        }
    }

    /// What `campaign run <builtin> --scale <scale> --batched` publishes
    /// at the builtin's own seed, computed by that command on the
    /// unchanged program.
    pub fn golden(self) -> Golden {
        match self {
            Workload::GridTrain => Golden { digest: 0x4571_c50a_af23_7553, trials: 120 },
            Workload::DroneFinetune => Golden { digest: 0x28b7_b77c_f670_7258, trials: 45 },
            Workload::StudyEval => Golden { digest: 0x2ba8_c92f_e70a_2354, trials: 1800 },
        }
    }

    fn base_scenario(self) -> Scenario {
        let (name, scale) = self.builtin();
        registry::builtin(name, scale).expect("workload builtins are registered")
    }

    /// The builtin's own master seed (for the study, the seed its
    /// geometry fixes).
    pub fn default_seed(self) -> Result<u64, String> {
        let s = self.base_scenario();
        match s.master_seed {
            Some(seed) => Ok(seed),
            None => Ok(s.expand().map_err(|e| e.to_string())?.master_seed),
        }
    }

    /// Whether `seed` reaches the campaign. A study fixes its own
    /// master seed (`Scenario::expand` rejects any other), so
    /// study-eval runs the same campaign under every seed.
    pub fn seeded(self) -> bool {
        self.base_scenario().study.is_none()
    }

    /// The campaign at master seed `seed`.
    pub fn scenario(self, seed: u64) -> Scenario {
        let mut s = self.base_scenario();
        if self.seeded() {
            s.master_seed = Some(seed);
        }
        s
    }

    /// Inclusive range every trial value must fall in: success rate in
    /// percent, flight distance in metres (speed × step budget), or a
    /// raw success fraction.
    pub fn value_range(self) -> (f64, f64) {
        match self {
            Workload::GridTrain => (0.0, 100.0),
            Workload::DroneFinetune => {
                let cfg = frlfi::envs::DroneConfig::default();
                (0.0, f64::from(cfg.speed) * cfg.max_steps as f64)
            }
            Workload::StudyEval => (0.0, 1.0),
        }
    }

    /// Coordination as `campaign run` sets it up: study-eval shares the
    /// claim log with the program's default lease and queue poll.
    fn coord(self) -> CoordMode {
        match self {
            Workload::StudyEval => CoordMode::Shared(CoordConfig {
                worker_id: format!("bench-{}", std::process::id()),
                ..CoordConfig::default()
            }),
            _ => CoordMode::Exclusive,
        }
    }

    /// Untraced campaigns measured per run at least (more while the
    /// run's seconds last).
    pub fn min_reps(self) -> usize {
        match self {
            Workload::GridTrain => 2,
            Workload::DroneFinetune => 1,
            Workload::StudyEval => 5,
        }
    }

    /// Set-up samples per timing window. Windows open before the first
    /// campaign and after each one, so they span the run, and
    /// `setup_s` is the run's fastest sample. The host switches between
    /// a fast and a slow phase (about 1.5× apart) every few
    /// milliseconds, in a mix that drifts over minutes and at times
    /// stays slow for a whole window, so a sample mean or median
    /// follows the mix while the fastest of many millisecond samples is
    /// one taken wholly in the fast phase. The ≈10 s drone set-up takes
    /// one sample per window: two in all, as a third would add ≈10 s to
    /// every drone-finetune run.
    pub fn setup_samples(self) -> usize {
        match self {
            Workload::DroneFinetune => 1,
            _ => 200,
        }
    }
}

/// A set-up sample lasts at least this long: the calls it averages
/// double from one until it does, as the layer probes calibrate their
/// batches, so microsecond set-ups are not timed one call at a time.
const SETUP_SAMPLE: Duration = Duration::from_millis(1);

/// Calibrates the calls per set-up sample. Returns them with the last,
/// calibrated sample, which counts as a measurement.
fn calibrate_setup(w: Workload, scenario: &Scenario) -> Result<(usize, f64), String> {
    let mut calls = 1;
    loop {
        let mean = setup_once(w, scenario, calls)?;
        if mean * calls as f64 >= SETUP_SAMPLE.as_secs_f64() {
            return Ok((calls, mean));
        }
        calls *= 2;
    }
}

/// The body of a set-up process: `samples` set-up samples of `calls`
/// calls each (0: calibrate the calls first). Prints the calls, then
/// the samples, on one line.
pub fn setup_child(
    w: Workload,
    scenario: &Scenario,
    calls: usize,
    samples: usize,
) -> Result<(), String> {
    let (calls, mut setup) = match calls {
        0 => calibrate_setup(w, scenario).map(|(c, first)| (c, vec![first]))?,
        c => (c, Vec::new()),
    };
    while setup.len() < samples {
        setup.push(setup_once(w, scenario, calls)?);
    }
    let samples: Vec<String> = setup.iter().map(|x| format!("{x:?}")).collect();
    println!("{calls} {}", samples.join(" "));
    Ok(())
}

/// Times one set-up window in a fresh process, as a campaign pays its
/// set-up at the start of `campaign run`: this binary, re-run with
/// `--setup-child`, so the heap the measured campaigns left behind does
/// not slow the calls. `calls` 0 calibrates them. Returns the calls per
/// sample and the samples.
pub fn setup_window(
    w: Workload,
    seed: u64,
    calls: usize,
    samples: usize,
) -> Result<(usize, Vec<f64>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate the benchmark binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--setup-child", &format!("{calls}:{samples}")])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("run the set-up process: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up process failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    let bad = || format!("set-up process printed {line:?}");
    let (calls, rest) = line.split_once(' ').ok_or_else(bad)?;
    let calls = calls.parse().map_err(|_| bad())?;
    let setup: Vec<f64> =
        rest.split(' ').map(str::parse).collect::<Result<_, _>>().map_err(|_| bad())?;
    if setup.len() != samples {
        return Err(bad());
    }
    Ok((calls, setup))
}

/// The one place the benchmark selects the runner's execution path:
/// the batched path, which the program keeps.
pub fn runner_config(w: Workload, obs: bool) -> RunnerConfig {
    RunnerConfig {
        threads: THREADS,
        batched: true,
        obs,
        coord: w.coord(),
        ..RunnerConfig::default()
    }
}

/// Times the public set-up calls a campaign makes before its first
/// trial can run: `Scenario::expand`, plus the shared pre-training on
/// drone workloads. Returns the mean seconds of `calls` set-ups.
pub fn setup_once(w: Workload, scenario: &Scenario, calls: usize) -> Result<f64, String> {
    let pretrain = (w == Workload::DroneFinetune).then(|| {
        scenario
            .train
            .pretrain_episodes
            .unwrap_or_else(|| drone_geometry(scenario.scale).pretrain_episodes)
    });
    let t = Instant::now();
    for _ in 0..calls {
        std::hint::black_box(scenario.expand().map_err(|e| e.to_string())?);
        if let Some(episodes) = pretrain {
            std::hint::black_box(drone_pretrained_weights(episodes));
        }
    }
    Ok(t.elapsed().as_secs_f64() / calls as f64)
}

/// One measured campaign.
#[derive(Debug, Default)]
pub struct Rep {
    /// Wall seconds of the `runner::run` call.
    pub wall_s: f64,
    pub attempted: usize,
    pub committed: usize,
    pub quarantined: usize,
    pub errored: usize,
    /// `summary.txt` digest, when one was published and passed.
    pub digest: Option<u64>,
    /// Why the campaign counts as failed.
    pub error: Option<String>,
}

impl Rep {
    pub fn trials_per_s(&self) -> f64 {
        self.committed as f64 / self.wall_s
    }
}

/// Runs the campaign once in a fresh `dir` and checks its outputs. A
/// runner error, a quarantined trial, a degraded or wrong summary or a
/// bad trial log counts every trial of the campaign as failed. With
/// `obs`, the campaign runs traced and its streams fold into `obs`.
pub fn run_rep(
    w: Workload,
    scenario: &Scenario,
    dir: &Path,
    obs: Option<&mut ObsFold>,
    golden: Option<Golden>,
) -> Result<Rep, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    let campaign = scenario.expand().map_err(|e| e.to_string())?;
    let total = campaign.total_trials();
    let cfg = runner_config(w, obs.is_some());
    let t = Instant::now();
    let result = runner::run(scenario, dir, &cfg);
    let wall_s = t.elapsed().as_secs_f64();
    let mut rep = Rep { wall_s, attempted: total, ..Rep::default() };
    let checked = match result {
        Err(e) => {
            rep.errored = total;
            Err(format!("runner::run failed: {e}"))
        }
        Ok(outcome) => {
            rep.quarantined = outcome.quarantined.len();
            let read = |name: &str| {
                std::fs::read_to_string(dir.join(name)).map_err(|e| format!("read {name}: {e}"))
            };
            if !outcome.quarantined.is_empty() {
                Err(format!("{} trials quarantined", outcome.quarantined.len()))
            } else if !outcome.complete() {
                Err(format!("{} of {total} trials completed", outcome.completed_trials))
            } else {
                read("trials.jsonl")
                    .and_then(|t| {
                        check::check_records(&t, total, campaign.repeats, w.value_range())
                    })
                    .and_then(|_| read("summary.txt"))
                    .and_then(|s| check::check_summary(&s, total, golden))
            }
        }
    };
    match checked {
        Ok(digest) => {
            rep.committed = total;
            rep.digest = Some(digest);
        }
        Err(e) => rep.error = Some(e),
    }
    if let Some(fold) = obs {
        fold.add_campaign(dir)?;
    }
    std::fs::remove_dir_all(dir).map_err(|e| format!("clean {}: {e}", dir.display()))?;
    Ok(rep)
}
