//! Shared campaign harness: pure, declarative *trial specifications*
//! and the functions that evaluate them.
//!
//! Every figure driver used to hand-roll its own `sweep` closure; they
//! now all reduce to building [`GridTrial`] / [`DroneTrial`] cells and
//! calling [`run_grid_trial`] / [`run_drone_trial`]. The same trial
//! functions back the `frlfi-campaign` orchestration crate, which is
//! what makes a declarative TOML campaign reproduce a figure driver's
//! statistics *exactly*: identical trial spec + identical derived seed
//! ⇒ identical trial value, and identical aggregation (see
//! [`frlfi_fault::aggregate_in_order`]) ⇒ identical cell statistics.
//!
//! GridWorld trials of one campaign share their fault-free training
//! prefix bit for bit, so a campaign worker hands every trial the same
//! [`GridPrefix`] and each trial resumes from the clean state the
//! previous one left there (see [`train_grid_trial`]).

use std::sync::Arc;

use crate::error::FrlfiError;
use crate::experiments::{ber_label, SYSTEM_SEED};
use crate::grid_system::GridTraining;
use crate::report::Table;
use crate::{
    DroneFrlSystem, DroneLayout, DroneSystemConfig, GridFrlSystem, GridLayout, GridSystemConfig,
    InjectionPlan, ReprKind, Scale, TrainingMitigation,
};
use frlfi_fault::{Ber, CellStats, FaultModel, FaultSide};
use frlfi_federated::CommSchedule;
use frlfi_tensor::derive_seed;

/// Campaign geometry of the GridWorld training heatmaps (Fig. 3/7a).
#[derive(Debug, Clone, PartialEq)]
pub struct GridGeometry {
    /// Bit-error rates swept (fraction of exposed bits).
    pub bers: Vec<f64>,
    /// Episodes at which the fault strikes.
    pub inject_episodes: Vec<usize>,
    /// Training episodes per trial.
    pub total_episodes: usize,
    /// Fleet size.
    pub n_agents: usize,
    /// Repeats per cell.
    pub repeats: usize,
}

/// The Fig. 3 grid-campaign geometry at each scale.
pub fn grid_geometry(scale: Scale) -> GridGeometry {
    match scale {
        Scale::Smoke => GridGeometry {
            bers: vec![0.0, 0.05, 0.2],
            inject_episodes: vec![40, 125],
            total_episodes: 130,
            n_agents: 3,
            repeats: 2,
        },
        Scale::Bench => GridGeometry {
            bers: vec![0.0, 0.01, 0.02, 0.05, 0.1, 0.2],
            inject_episodes: vec![90, 240, 390, 510, 570, 595],
            total_episodes: 600,
            n_agents: 6,
            repeats: 4,
        },
        Scale::Full => GridGeometry {
            bers: vec![0.0, 0.005, 0.01, 0.02, 0.05, 0.08, 0.12, 0.16, 0.2, 0.3, 0.5],
            inject_episodes: (0..10).map(|i| 100 * i + 50).chain([995]).collect(),
            total_episodes: 1000,
            n_agents: 12,
            repeats: 50,
        },
    }
}

/// Campaign geometry of the DroneNav heatmaps (Fig. 5/6/7b/8b).
#[derive(Debug, Clone, PartialEq)]
pub struct DroneGeometry {
    /// Bit-error rates swept.
    pub bers: Vec<f64>,
    /// Fine-tuning episodes at which the fault strikes.
    pub inject_episodes: Vec<usize>,
    /// Fine-tuning episodes per trial.
    pub fine_tune_episodes: usize,
    /// Fleet size.
    pub n_drones: usize,
    /// Repeats per cell.
    pub repeats: usize,
    /// Offline pre-training episodes (shared across all cells).
    pub pretrain_episodes: usize,
    /// Evaluation attempts averaged into the flight-distance metric.
    pub eval_attempts: usize,
}

/// The Fig. 5 drone-campaign geometry at each scale.
pub fn drone_geometry(scale: Scale) -> DroneGeometry {
    match scale {
        Scale::Smoke => DroneGeometry {
            bers: vec![0.0, 1e-2],
            inject_episodes: vec![4, 10],
            fine_tune_episodes: 12,
            n_drones: 2,
            repeats: 1,
            pretrain_episodes: 6,
            eval_attempts: 2,
        },
        Scale::Bench => DroneGeometry {
            bers: vec![0.0, 1e-4, 1e-3, 1e-2, 1e-1],
            inject_episodes: vec![8, 20, 32],
            fine_tune_episodes: 36,
            n_drones: 4,
            repeats: 3,
            pretrain_episodes: 400,
            eval_attempts: 6,
        },
        Scale::Full => DroneGeometry {
            bers: vec![0.0, 1e-4, 1e-3, 1e-2, 1e-1],
            inject_episodes: vec![1000, 3000, 5000],
            fine_tune_episodes: 6000,
            n_drones: 4,
            repeats: 25,
            pretrain_episodes: 2000,
            eval_attempts: 10,
        },
    }
}

/// Pre-trains one policy offline and returns its weights; shared across
/// all campaign cells so cells differ only in faults (paper protocol).
pub fn drone_pretrained_weights(pretrain_episodes: usize) -> Vec<f32> {
    let mut sys = DroneFrlSystem::new(DroneSystemConfig {
        n_drones: 1,
        seed: SYSTEM_SEED,
        pretrain_episodes,
        ..Default::default()
    })
    .expect("valid config");
    sys.pretrain().expect("pretraining");
    sys.fleet_weights()
}

/// Lazily shared pre-trained starting weights for a drone campaign.
///
/// Pre-training is minutes of compute at full scale, so it must not
/// happen while merely *declaring* a campaign (expanding a scenario,
/// resuming a finished run). The first trial that needs the weights
/// computes them once; concurrent first-touchers block on the same
/// cell.
#[derive(Debug)]
pub struct PretrainedWeights {
    pretrain_episodes: usize,
    cell: std::sync::OnceLock<Vec<f32>>,
}

impl PretrainedWeights {
    /// Weights computed on first use from `pretrain_episodes` offline
    /// episodes (see [`drone_pretrained_weights`]).
    pub fn lazy(pretrain_episodes: usize) -> Arc<Self> {
        Arc::new(PretrainedWeights { pretrain_episodes, cell: std::sync::OnceLock::new() })
    }

    /// Pre-computed weights (no deferred work).
    pub fn from_weights(weights: Vec<f32>) -> Arc<Self> {
        let cell = std::sync::OnceLock::new();
        cell.set(weights).expect("fresh cell");
        Arc::new(PretrainedWeights { pretrain_episodes: 0, cell })
    }

    /// The weights, pre-training on first call.
    pub fn get(&self) -> &[f32] {
        self.cell.get_or_init(|| drone_pretrained_weights(self.pretrain_episodes))
    }
}

/// The fault a trial injects, as pure data (a BER of `0.0` means no
/// injection — the fault-free baseline cell).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialFault {
    /// Episode at which the fault strikes.
    pub episode: usize,
    /// Agent-side or server-side.
    pub side: FaultSide,
    /// Fault model.
    pub model: FaultModel,
    /// Machine representation of the fault surface.
    pub repr: ReprKind,
    /// Bit-error rate (0.0 = baseline, no injection).
    pub ber: f64,
}

impl TrialFault {
    /// The paper's default training fault: transient multi-bit on the
    /// int8 surface.
    pub fn transient_int8(side: FaultSide, episode: usize, ber: f64) -> Self {
        TrialFault { episode, side, model: FaultModel::TransientMulti, repr: ReprKind::Int8, ber }
    }

    /// Materializes into an [`InjectionPlan`], or `None` for BER 0.
    ///
    /// # Panics
    ///
    /// Panics if the BER is not a valid rate.
    pub fn plan(&self) -> Option<InjectionPlan> {
        (self.ber > 0.0).then(|| InjectionPlan {
            episode: self.episode,
            side: self.side,
            model: self.model,
            ber: Ber::new(self.ber).expect("valid trial BER"),
            repr: self.repr,
        })
    }
}

/// What a GridWorld training trial reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GridMetric {
    /// Greedy success rate after training, in percent.
    SuccessRatePct,
    /// Total episodes (training + extra) until the success rate reaches
    /// `threshold`, checking every `check_every` episodes, capped at
    /// `max_extra` extra episodes (Fig. 3e).
    EpisodesToConverge {
        /// Success-rate threshold in [0, 1].
        threshold: f64,
        /// Check cadence in episodes.
        check_every: usize,
        /// Extra-episode cap.
        max_extra: usize,
    },
}

/// One GridWorld training-campaign trial, as pure data. Evaluating the
/// same trial with the same seed always yields the same value.
#[derive(Debug, Clone, PartialEq)]
pub struct GridTrial {
    /// Fleet size (1 = single-agent baseline, no server).
    pub n_agents: usize,
    /// Training episodes.
    pub total_episodes: usize,
    /// System-construction seed (layouts, init, exploration).
    pub system_seed: u64,
    /// Maze layout family.
    pub layout: GridLayout,
    /// Per-round agent-dropout probability.
    pub dropout: Option<f32>,
    /// Fault to inject (None or BER 0 = fault-free).
    pub fault: Option<TrialFault>,
    /// Training-time mitigation, when enabled.
    pub mitigation: Option<TrainingMitigation>,
    /// Reported metric.
    pub metric: GridMetric,
}

impl GridTrial {
    /// A fault-free trial with the experiments' defaults.
    pub fn new(n_agents: usize, total_episodes: usize) -> Self {
        GridTrial {
            n_agents,
            total_episodes,
            system_seed: SYSTEM_SEED,
            layout: GridLayout::Standard,
            dropout: None,
            fault: None,
            mitigation: None,
            metric: GridMetric::SuccessRatePct,
        }
    }

    /// Sets the injected fault.
    #[must_use]
    pub fn with_fault(mut self, fault: TrialFault) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Enables training-time mitigation.
    #[must_use]
    pub fn with_mitigation(mut self, m: TrainingMitigation) -> Self {
        self.mitigation = Some(m);
        self
    }

    /// Sets the reported metric.
    #[must_use]
    pub fn with_metric(mut self, metric: GridMetric) -> Self {
        self.metric = metric;
        self
    }
}

/// One worker's cache of the fault-free training prefix its GridWorld
/// trials share.
///
/// Every trial of a training-fault campaign builds its system from the
/// same configuration, and its seed only reseeds the fault stream, so
/// episodes `[0, e)` of a trial injecting at episode `e` are the same
/// clean training in every trial with that configuration, bit for bit.
/// The cache keeps **one** such clean state — the most recent — keyed
/// by the trial with its fault and metric cleared, and
/// [`train_grid_trial`] resumes from it instead of training from
/// episode 0 whenever the key matches and the cached state lies at or
/// before the trial's injection episode.
///
/// A cache belongs to one worker and one run: the campaign runner
/// creates one per worker thread and drops it when the run ends. Its
/// cost is one extra trained system (the fleet's weights, environments,
/// random streams and mitigation state; well under 1 MB at Bench
/// scale). A fresh [`GridPrefix::default`] trains every trial from
/// scratch, through the same code — what the sweep-driven figure
/// drivers do, since their thread pool keeps no per-worker state.
#[derive(Default)]
pub struct GridPrefix {
    cached: Option<(GridTrial, GridFrlSystem, GridTraining)>,
}

impl GridPrefix {
    /// Takes the cached state out if it belongs to `key` and has not
    /// trained past episode `at`.
    fn take(&mut self, key: &GridTrial, at: usize) -> Option<(GridFrlSystem, GridTraining)> {
        match self.cached.take() {
            Some((k, sys, run)) if k == *key && run.episode() <= at => Some((sys, run)),
            other => {
                self.cached = other;
                None
            }
        }
    }
}

/// Trains one GridWorld trial's system: built (or resumed from
/// `prefix`), fault-injected and trained, ready for evaluation. Pure in
/// `(trial, seed)` whatever `prefix` holds: a resumed trial reseeds the
/// fault stream with `seed` and replays the draws the clean prefix
/// took from it, so its weights are bit-identical to training from
/// episode 0. On return `prefix` holds the clean state at the start of
/// the trial's injection episode (the end of training for a trial that
/// injects nothing).
///
/// # Errors
///
/// As for [`run_grid_trial`].
pub fn train_grid_trial(
    t: &GridTrial,
    seed: u64,
    prefix: &mut GridPrefix,
) -> Result<GridFrlSystem, FrlfiError> {
    let plan = t.fault.as_ref().and_then(TrialFault::plan);
    // The injection fires after the agent episodes of loop iteration
    // `p.episode`, so the clean prefix ends at that iteration's start.
    let clean_until = plan.map_or(t.total_episodes, |p| p.episode.min(t.total_episodes));
    let key = GridTrial { fault: None, metric: GridMetric::SuccessRatePct, ..t.clone() };
    let (mut sys, mut run) = match prefix.take(&key, clean_until) {
        Some(state) => state,
        None => {
            let mut sys = GridFrlSystem::new(GridSystemConfig {
                n_agents: t.n_agents,
                seed: t.system_seed,
                epsilon_decay_episodes: t.total_episodes / 2,
                layout: t.layout,
                dropout: t.dropout,
                ..Default::default()
            })?;
            let run = sys.start_training(t.mitigation.as_ref());
            (sys, run)
        }
    };
    let reused = run.episode();
    sys.replay_fault_stream(seed);
    sys.train_until(&mut run, clean_until, None)?;
    prefix.cached = Some((key, sys.clone(), run.clone()));
    sys.train_until(&mut run, t.total_episodes, plan.as_ref())?;
    // Observability only: how much of the trial's training the prefix
    // saved, which explains its (now bimodal) train time.
    frlfi_obs::count("train.episodes.reused", reused as u64);
    frlfi_obs::count("train.episodes.run", (t.total_episodes - reused) as u64);
    Ok(sys)
}

/// Evaluates one GridWorld trial: a pure function of `(trial, seed)`,
/// safe to fan out over threads, with the system trained by
/// [`train_grid_trial`] (resuming from `prefix` where it can), then
/// stripped of its layer caches ([`GridFrlSystem::eval_mode`]) for the
/// greedy evaluation. Callers without a worker-long cache pass a fresh
/// [`GridPrefix::default`].
///
/// # Errors
///
/// Returns an error on an invalid trial configuration or a training
/// failure (e.g. a mis-shaped observation), so a campaign can
/// quarantine the trial instead of panicking in a worker.
pub fn run_grid_trial(
    t: &GridTrial,
    seed: u64,
    prefix: &mut GridPrefix,
) -> Result<f64, FrlfiError> {
    let mut sys = {
        // Observability only — the span reads the clock around
        // training, it cannot affect any trained value.
        let _train = frlfi_obs::span("train");
        let mut sys = train_grid_trial(t, seed, prefix)?;
        sys.eval_mode();
        sys
    };
    let _eval = frlfi_obs::span("eval");
    evaluate_grid_trial(t, &mut sys)
}

/// The reported metric of a trained trial system.
fn evaluate_grid_trial(t: &GridTrial, sys: &mut GridFrlSystem) -> Result<f64, FrlfiError> {
    Ok(match t.metric {
        GridMetric::SuccessRatePct => sys.success_rate() * 100.0,
        GridMetric::EpisodesToConverge { threshold, check_every, max_extra } => {
            let extra = sys.episodes_to_converge(threshold, check_every, max_extra)?;
            converge_metric(t, extra, max_extra)
        }
    })
}

/// Folds an episodes-to-converge result into the reported metric.
fn converge_metric(t: &GridTrial, extra: Option<usize>, max_extra: usize) -> f64 {
    match extra {
        Some(extra) => (t.total_episodes + extra) as f64,
        None => (t.total_episodes + max_extra) as f64,
    }
}

/// Communication schedule of a drone trial, as pure data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DroneComm {
    /// Communicate every `n` episodes.
    Every(usize),
    /// Base interval boosted `mult`× from episode `switch` (Fig. 6b).
    Boost {
        /// Base interval.
        base: usize,
        /// Episode at which the boost starts.
        switch: usize,
        /// Interval multiplier after the switch.
        mult: usize,
    },
}

impl DroneComm {
    /// Materializes the [`CommSchedule`].
    pub fn schedule(&self) -> CommSchedule {
        match *self {
            DroneComm::Every(n) => CommSchedule::every(n),
            DroneComm::Boost { base, switch, mult } => CommSchedule::with_boost(base, switch, mult),
        }
    }
}

/// One DroneNav fine-tuning trial, as pure data plus the shared
/// pre-trained weights (under `Arc`, cheap to clone per cell).
#[derive(Debug, Clone)]
pub struct DroneTrial {
    /// Fleet size (1 = single-drone baseline).
    pub n_drones: usize,
    /// Fine-tuning episodes.
    pub fine_tune_episodes: usize,
    /// Evaluation attempts for the flight-distance metric.
    pub eval_attempts: usize,
    /// System-construction seed.
    pub system_seed: u64,
    /// Communication schedule.
    pub comm: DroneComm,
    /// Corridor layout family (static, or oscillating obstacles).
    /// Applies to fine-tuning and evaluation; the shared pre-trained
    /// weights always come from the nominal static simulator, so a
    /// dynamic trial measures a nominally trained policy deployed into
    /// a non-stationary world.
    pub layout: DroneLayout,
    /// Explicit obstacle-motion parameters for
    /// [`DroneLayout::DynamicObstacles`] trials. `None` leaves the
    /// system's normalization in charge (the default
    /// [`frlfi_envs::ObstacleMotion`] when the layout is dynamic), so
    /// existing trials are bit-unchanged; `Some` sweeps the
    /// non-stationarity strength.
    pub motion: Option<frlfi_envs::ObstacleMotion>,
    /// Per-round drone-dropout probability during fine-tuning.
    pub dropout: Option<f32>,
    /// Shared pre-trained starting weights (resolved lazily).
    pub weights: Arc<PretrainedWeights>,
    /// Fault to inject (None or BER 0 = fault-free).
    pub fault: Option<TrialFault>,
    /// Training-time mitigation, when enabled.
    pub mitigation: Option<TrainingMitigation>,
}

impl DroneTrial {
    /// A fault-free trial with the experiments' defaults.
    pub fn new(g: &DroneGeometry, weights: Arc<PretrainedWeights>, n_drones: usize) -> Self {
        DroneTrial {
            n_drones,
            fine_tune_episodes: g.fine_tune_episodes,
            eval_attempts: g.eval_attempts,
            system_seed: SYSTEM_SEED,
            comm: DroneComm::Every(1),
            layout: DroneLayout::Standard,
            motion: None,
            dropout: None,
            weights,
            fault: None,
            mitigation: None,
        }
    }

    /// Sets the injected fault.
    #[must_use]
    pub fn with_fault(mut self, fault: TrialFault) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Enables training-time mitigation.
    #[must_use]
    pub fn with_mitigation(mut self, m: TrainingMitigation) -> Self {
        self.mitigation = Some(m);
        self
    }

    /// Sets the communication schedule.
    #[must_use]
    pub fn with_comm(mut self, comm: DroneComm) -> Self {
        self.comm = comm;
        self
    }

    /// Sets the corridor layout family.
    #[must_use]
    pub fn with_layout(mut self, layout: DroneLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Sets explicit obstacle-motion parameters (and the dynamic
    /// layout they animate).
    #[must_use]
    pub fn with_motion(mut self, motion: frlfi_envs::ObstacleMotion) -> Self {
        self.layout = DroneLayout::DynamicObstacles;
        self.motion = Some(motion);
        self
    }

    /// Sets the per-round dropout probability.
    #[must_use]
    pub fn with_dropout(mut self, dropout: f32) -> Self {
        self.dropout = Some(dropout);
        self
    }
}

/// Evaluates one DroneNav trial: safe flight distance (m) after
/// fine-tuning from the shared pre-trained weights. Pure in
/// `(trial, seed)`.
///
/// # Errors
///
/// As for [`run_grid_trial`].
pub fn run_drone_trial(t: &DroneTrial, seed: u64) -> Result<f64, FrlfiError> {
    let mut sys = {
        // Observability only — the span reads the clock around
        // fine-tuning, it cannot affect any trained value.
        let _train = frlfi_obs::span("train");
        let mut sys = DroneFrlSystem::new(DroneSystemConfig {
            n_drones: t.n_drones,
            seed: t.system_seed,
            pretrain_episodes: 0,
            comm: t.comm.schedule(),
            layout: t.layout,
            // An explicit motion seeds `sim.dynamic` directly; `None`
            // keeps the system's normalization (default motion for
            // dynamic layouts), bit-identical to the pre-motion-knob
            // build.
            sim: frlfi_envs::DroneConfig { dynamic: t.motion, ..Default::default() },
            dropout: t.dropout,
            ..Default::default()
        })?;
        sys.set_fleet_weights(t.weights.get())?;
        sys.reseed_faults(seed);
        let plan = t.fault.as_ref().and_then(TrialFault::plan);
        sys.fine_tune(t.fine_tune_episodes, plan.as_ref(), t.mitigation.as_ref())?;
        sys.eval_mode();
        sys
    };
    let _eval = frlfi_obs::span("eval");
    Ok(sys.safe_flight_distance(t.eval_attempts))
}

/// The `(BER × inject episode)` cell grid shared by the training
/// heatmaps, in row-major (BER-major) order.
pub fn ber_episode_grid(bers: &[f64], inject_episodes: &[usize]) -> Vec<(f64, usize)> {
    bers.iter().flat_map(|&b| inject_episodes.iter().map(move |&e| (b, e))).collect()
}

/// Renders row-major `(BER × inject episode)` cell statistics as the
/// standard heatmap table.
pub fn heatmap_table(
    title: &str,
    bers: &[f64],
    inject_episodes: &[usize],
    stats: &[CellStats],
    precision: usize,
) -> Table {
    let mut table =
        Table::new(title, "BER", inject_episodes.iter().map(|e| format!("ep{e}")).collect())
            .with_precision(precision);
    for (bi, &ber) in bers.iter().enumerate() {
        let row: Vec<f64> = (0..inject_episodes.len())
            .map(|ei| stats[bi * inject_episodes.len() + ei].mean)
            .collect();
        table.push_row(ber_label(ber), row);
    }
    table
}

/// Averages `eval(seed)` over `repeats` derived seeds — the shared
/// boilerplate of the sequential (one-trained-system) inference sweeps.
/// The seed of repeat `r` in cell `cell_index` is
/// `derive_seed(DEFAULT_SEED ^ salt, cell_index * repeats + r)`,
/// matching the parallel engine's per-task scheme.
pub fn mean_over_repeats(
    salt: u64,
    cell_index: usize,
    repeats: usize,
    mut eval: impl FnMut(u64) -> f64,
) -> f64 {
    let base = crate::experiments::DEFAULT_SEED ^ salt;
    (0..repeats).map(|r| eval(derive_seed(base, (cell_index * repeats + r) as u64))).sum::<f64>()
        / repeats as f64
}

/// Builds and trains the standard GridWorld system of the inference
/// experiments at `scale` (episodes 150/600/1000).
pub fn trained_grid_system(scale: Scale, n_agents: usize) -> GridFrlSystem {
    let episodes = scale.pick(150, 600, 1000);
    let mut sys = GridFrlSystem::new(GridSystemConfig {
        n_agents,
        seed: SYSTEM_SEED,
        epsilon_decay_episodes: episodes / 2,
        ..Default::default()
    })
    .expect("valid config");
    sys.train(episodes, None, None).expect("training");
    sys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::DEFAULT_SEED;
    use frlfi_fault::sweep_with_threads;
    use frlfi_rl::Learner as _;

    #[test]
    fn grid_trial_is_pure_in_seed() {
        let t = GridTrial::new(2, 40).with_fault(TrialFault::transient_int8(
            FaultSide::ServerSide,
            20,
            0.05,
        ));
        assert_eq!(
            run_grid_trial(&t, 7, &mut GridPrefix::default()).unwrap().to_bits(),
            run_grid_trial(&t, 7, &mut GridPrefix::default()).unwrap().to_bits()
        );
    }

    /// The trained fleet's weight bits and the trial value's bits.
    fn trial_bits(t: &GridTrial, seed: u64, prefix: &mut GridPrefix) -> (Vec<u32>, u64) {
        let mut sys = train_grid_trial(t, seed, prefix).unwrap();
        let weights = (0..sys.n_agents())
            .flat_map(|i| sys.agent(i).network().snapshot())
            .map(f32::to_bits)
            .collect();
        sys.eval_mode();
        (weights, evaluate_grid_trial(t, &mut sys).unwrap().to_bits())
    }

    #[test]
    fn warm_prefix_cache_trains_bit_identically_to_a_cold_one() {
        let mitigation =
            TrainingMitigation { p_percent: 25.0, k_consecutive: 4, checkpoint_interval: 5 };
        let (server, agent) = (FaultSide::ServerSide, FaultSide::AgentSide);
        let dynamic = GridTrial { layout: GridLayout::DynamicObstacles, ..GridTrial::new(3, 100) };
        let dropout = GridTrial { dropout: Some(0.3), ..GridTrial::new(3, 100) };
        let configs = [
            (
                "server fault + mitigation",
                GridTrial::new(3, 100).with_mitigation(mitigation),
                server,
            ),
            ("agent fault, dynamic layout", dynamic, agent),
            ("dropout 0.3, server fault", dropout, server),
            ("single agent, no server", GridTrial::new(1, 100), agent),
        ];
        // (BER, injection episode, cached episode before the trial):
        // cold start, resume forward, exact hit, fall back to scratch,
        // then BER-0 trials (clean to the end), forward and hit.
        let sequence = [
            (0.2, 40, None),
            (0.2, 90, Some(40)),
            (0.2, 90, Some(90)),
            (0.2, 20, Some(90)),
            (0.0, 60, Some(20)),
            (0.0, 60, Some(100)),
        ];
        for (name, base, side) in configs {
            let mut warm = GridPrefix::default();
            for (i, &(ber, ep, cached)) in sequence.iter().enumerate() {
                let t = base.clone().with_fault(TrialFault::transient_int8(side, ep, ber));
                let seed = 0xCAC4E + i as u64;
                assert_eq!(warm.cached.as_ref().map(|(_, _, run)| run.episode()), cached);
                let cold = trial_bits(&t, seed, &mut GridPrefix::default());
                assert!(cold == trial_bits(&t, seed, &mut warm), "{name}, trial {i}: warm ≠ cold");
            }
        }
        // The mitigated configuration must actually exercise recovery,
        // so its carried detector and checkpoint are load-bearing.
        let t = GridTrial::new(3, 100)
            .with_mitigation(mitigation)
            .with_fault(TrialFault::transient_int8(server, 40, 0.2));
        let sys = train_grid_trial(&t, 0xCAC4E, &mut GridPrefix::default()).unwrap();
        assert!(
            sys.mitigation_stats().server_detections + sys.mitigation_stats().agent_detections > 0
        );
    }

    #[test]
    fn ber_zero_means_no_plan() {
        let f = TrialFault::transient_int8(FaultSide::AgentSide, 5, 0.0);
        assert!(f.plan().is_none());
        let f = TrialFault::transient_int8(FaultSide::AgentSide, 5, 0.1);
        assert_eq!(f.plan().expect("plan").episode, 5);
    }

    #[test]
    fn grid_cells_sweep_like_fig3_smoke() {
        // A 2-cell smoke sweep through the harness matches running the
        // trial function by hand with the engine's derived seeds.
        let g = grid_geometry(Scale::Smoke);
        let cells: Vec<GridTrial> =
            [0.0, 0.2]
                .iter()
                .map(|&ber| {
                    GridTrial::new(g.n_agents, g.total_episodes)
                        .with_fault(TrialFault::transient_int8(FaultSide::AgentSide, 40, ber))
                })
                .collect();
        let stats = sweep_with_threads(&cells, 2, DEFAULT_SEED, 2, |t, s| {
            run_grid_trial(t, s, &mut GridPrefix::default()).unwrap()
        });
        for (ci, cell) in cells.iter().enumerate() {
            let by_hand: Vec<f64> = (0..2)
                .map(|r| {
                    run_grid_trial(
                        cell,
                        frlfi_tensor::derive_seed(DEFAULT_SEED, (ci * 2 + r) as u64),
                        &mut GridPrefix::default(),
                    )
                    .unwrap()
                })
                .collect();
            let agg = frlfi_fault::aggregate_in_order(&by_hand);
            assert_eq!(agg.mean.to_bits(), stats[ci].mean.to_bits());
        }
    }

    #[test]
    fn explicit_default_motion_matches_normalized_dynamic_layout_bitwise() {
        // `motion: None` on a dynamic-layout trial lets the system
        // normalize to the default ObstacleMotion; spelling that
        // default out must be the *same trial*, bit for bit — the
        // contract that keeps the golden-pinned drone-dynamic builtin
        // unchanged when specs start carrying explicit motion.
        let g = drone_geometry(Scale::Smoke);
        let weights = PretrainedWeights::lazy(g.pretrain_episodes);
        let normalized = DroneTrial::new(&g, weights.clone(), 2)
            .with_layout(DroneLayout::DynamicObstacles)
            .with_fault(TrialFault::transient_int8(FaultSide::AgentSide, 4, 1e-2));
        let explicit = DroneTrial::new(&g, weights, 2)
            .with_motion(frlfi_envs::ObstacleMotion::default())
            .with_fault(TrialFault::transient_int8(FaultSide::AgentSide, 4, 1e-2));
        assert_eq!(explicit.layout, DroneLayout::DynamicObstacles);
        assert_eq!(
            run_drone_trial(&normalized, 11).unwrap().to_bits(),
            run_drone_trial(&explicit, 11).unwrap().to_bits()
        );
    }

    #[test]
    fn ber_episode_grid_is_row_major() {
        let cells = ber_episode_grid(&[0.0, 0.1], &[10, 20, 30]);
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0], (0.0, 10));
        assert_eq!(cells[3], (0.1, 10));
    }

    #[test]
    fn mean_over_repeats_uses_engine_seed_scheme() {
        let mut seen = Vec::new();
        mean_over_repeats(0x5A17, 3, 4, |seed| {
            seen.push(seed);
            1.0
        });
        let expect: Vec<u64> =
            (0..4).map(|r| derive_seed(DEFAULT_SEED ^ 0x5A17, (3 * 4 + r) as u64)).collect();
        assert_eq!(seen, expect);
    }
}
