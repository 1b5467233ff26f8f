//! Per-layer probes: each times one layer's public function at the
//! shapes its workload runs — the same networks, fleet sizes, parameter
//! counts, batch sizes and bit-error rates — inside the benchmark's own
//! spans.

use std::path::Path;
use std::time::{Duration, Instant};

use frlfi::experiments::ber_label;
use frlfi::experiments::study::StudyModel;
use frlfi::fault::{inject_slice_ber, Ber, FaultModel, FaultSide};
use frlfi::mitigation::{RangeDetector, RewardDropDetector, ServerCheckpoint};
use frlfi::nn::{ActShape, BatchInferCtx, InferCtx, LayerKind, Network};
use frlfi::rl::{Learner, QLearner, Reinforce, Transition};
use frlfi::tensor::Tensor;
use frlfi::{ReprKind, TrainingMitigation};
use frlfi_campaign::coord::{now_ms, ClaimLog, ClaimRecord};
use frlfi_campaign::spec::Trials;
use frlfi_campaign::{artifacts, io, Campaign, CoordConfig, Coordinator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::Metrics;
use crate::spans::Spans;
use crate::stats::median;
use crate::workload::Workload;

/// Wall time each probe keeps sampling.
const PROBE_BUDGET: Duration = Duration::from_millis(150);
/// Timed batches per probe at least.
const MIN_BATCHES: usize = 7;
/// Calls per timed batch grow until a batch lasts this long.
const MIN_BATCH: Duration = Duration::from_millis(1);

/// Reward-drop and checkpoint settings probed on workloads that train
/// without mitigation (the Fig. 7a defaults at Bench).
const DEFAULT_MITIGATION: TrainingMitigation =
    TrainingMitigation { p_percent: 25.0, k_consecutive: 10, checkpoint_interval: 5 };

/// Largest BER of the Fig. 8a row axis (its row labels are checked).
const STUDY_MAX_BER: f64 = 0.02;

/// What a workload's trials run, read from its expanded campaign.
#[derive(Debug, Clone)]
pub struct Shape {
    pub drone: bool,
    pub n_agents: usize,
    /// Largest BER any trial injects, its model and representation.
    pub ber: f64,
    pub fault_model: FaultModel,
    pub repr: ReprKind,
    /// Faults strike the server's aggregated sets of all agents.
    pub server_side: bool,
    /// Fault injections per trial (averaged over the campaign's cells).
    pub injects_per_trial: f64,
    pub mitigation: Option<TrainingMitigation>,
    /// Training episodes per trial (each one reward-drop observation
    /// when mitigation is on).
    pub episodes_per_trial: usize,
    /// Range-detector repairs per trial (averaged over cells).
    pub repairs_per_trial: f64,
}

impl Shape {
    pub fn of(campaign: &Campaign) -> Result<Shape, String> {
        let faults = |fs: Vec<frlfi::experiments::harness::TrialFault>, cells: usize| {
            let injecting = fs.iter().filter(|f| f.ber > 0.0).count();
            let max = fs.into_iter().max_by(|a, b| a.ber.total_cmp(&b.ber));
            (max, injecting as f64 / cells as f64)
        };
        match &campaign.trials {
            Trials::Grid(ts) => {
                let t0 = ts.first().ok_or("empty campaign")?;
                let (max, per_trial) =
                    faults(ts.iter().filter_map(|t| t.fault).collect(), ts.len());
                let f = max.ok_or("grid-train injects no faults")?;
                Ok(Shape {
                    drone: false,
                    n_agents: t0.n_agents,
                    ber: f.ber,
                    fault_model: f.model,
                    repr: f.repr,
                    server_side: f.side == FaultSide::ServerSide && t0.n_agents > 1,
                    injects_per_trial: per_trial,
                    mitigation: t0.mitigation,
                    episodes_per_trial: t0.total_episodes,
                    repairs_per_trial: 0.0,
                })
            }
            Trials::Drone(ts) => {
                let t0 = ts.first().ok_or("empty campaign")?;
                let (max, per_trial) =
                    faults(ts.iter().filter_map(|t| t.fault).collect(), ts.len());
                let f = max.ok_or("drone-finetune injects no faults")?;
                Ok(Shape {
                    drone: true,
                    n_agents: t0.n_drones,
                    ber: f.ber,
                    fault_model: f.model,
                    repr: f.repr,
                    server_side: f.side == FaultSide::ServerSide,
                    injects_per_trial: per_trial,
                    mitigation: None,
                    episodes_per_trial: t0.fine_tune_episodes,
                    repairs_per_trial: 0.0,
                })
            }
            Trials::Study(g) => {
                let Some(&StudyModel::Grid { n_agents, episodes }) = g.models().first() else {
                    return Err("study-eval expects one GridWorld model".into());
                };
                if g.row_keys.last() != Some(&ber_label(STUDY_MAX_BER)) {
                    return Err(format!("study BER axis no longer ends at {STUDY_MAX_BER}"));
                }
                // Every eval faults each agent's policy once; the
                // "Mitigation" column then repairs each agent.
                let repaired = g.columns.iter().filter(|c| *c == "Mitigation").count();
                Ok(Shape {
                    drone: false,
                    n_agents,
                    ber: STUDY_MAX_BER,
                    fault_model: FaultModel::TransientMulti,
                    repr: ReprKind::F32,
                    server_side: false,
                    injects_per_trial: n_agents as f64,
                    mitigation: None,
                    episodes_per_trial: episodes,
                    repairs_per_trial: (n_agents * repaired) as f64 / g.n_cols() as f64,
                })
            }
        }
    }
}

/// One parameterised layer of a policy network, for computed FLOPs.
#[derive(Debug, Clone, Copy)]
enum Op {
    Dense {
        inp: usize,
        out: usize,
    },
    /// Valid, stride-1 convolution producing `oh × ow` positions.
    Conv {
        in_c: usize,
        out_c: usize,
        k: usize,
        oh: usize,
        ow: usize,
    },
}

impl Op {
    fn params(self) -> usize {
        match self {
            Op::Dense { inp, out } => inp * out + out,
            Op::Conv { in_c, out_c, k, .. } => out_c * in_c * k * k + out_c,
        }
    }

    /// Multiply-adds count two FLOPs; bias adds and activations are
    /// not counted.
    fn flops(self) -> u64 {
        match self {
            Op::Dense { inp, out } => 2 * (inp * out) as u64,
            Op::Conv { in_c, out_c, k, oh, ow } => 2 * (in_c * k * k * out_c * oh * ow) as u64,
        }
    }
}

/// The GridWorld Q-network (6 → 32 → 32 → 4) and the DroneNav conv
/// policy (1×9×16 → conv8 → conv12 → conv16 → 64 → 25), checked layer by
/// layer against the parameter spans of the network the program builds.
fn architecture(net: &Network, drone: bool) -> Result<Vec<Op>, String> {
    let ops = if drone {
        vec![
            Op::Conv { in_c: 1, out_c: 8, k: 3, oh: 7, ow: 14 },
            Op::Conv { in_c: 8, out_c: 12, k: 3, oh: 5, ow: 12 },
            Op::Conv { in_c: 12, out_c: 16, k: 3, oh: 3, ow: 10 },
            Op::Dense { inp: 16 * 3 * 10, out: 64 },
            Op::Dense { inp: 64, out: 25 },
        ]
    } else {
        vec![
            Op::Dense { inp: 6, out: 32 },
            Op::Dense { inp: 32, out: 32 },
            Op::Dense { inp: 32, out: 4 },
        ]
    };
    let spans: Vec<_> =
        net.param_spans().into_iter().filter(|s| s.kind != LayerKind::Activation).collect();
    let matches = spans.len() == ops.len()
        && spans.iter().zip(&ops).all(|(s, op)| {
            s.len == op.params() && (s.kind == LayerKind::Conv) == matches!(op, Op::Conv { .. })
        });
    if !matches {
        return Err("policy network no longer matches the benchmark's FLOP model".into());
    }
    Ok(ops)
}

/// Times `f` in calibrated batches inside span `name`; returns the
/// median µs per call over the batches.
fn time_calls(spans: &mut Spans, name: &str, mut f: impl FnMut()) -> f64 {
    let mut calls = 1u64;
    loop {
        let t = Instant::now();
        (0..calls).for_each(|_| f());
        if t.elapsed() >= MIN_BATCH || calls >= 1 << 20 {
            break;
        }
        calls *= 2;
    }
    spans.scope(name, |sp| {
        let t0 = Instant::now();
        let mut batches = 0;
        while batches < MIN_BATCHES || t0.elapsed() < PROBE_BUDGET {
            sp.leaf(name, calls, &mut f);
            batches += 1;
        }
    });
    median(&spans.per_call_us(name)).expect("at least one batch")
}

/// Times calls that need untimed preparation: each `f` call prepares,
/// then makes one timed call and returns when it started and ended.
fn time_each(spans: &mut Spans, name: &str, mut f: impl FnMut() -> (Instant, Instant)) -> f64 {
    spans.scope(name, |sp| {
        let t0 = Instant::now();
        let mut n = 0;
        while n < MIN_BATCHES || t0.elapsed() < PROBE_BUDGET {
            let (start, end) = f();
            sp.record(name, 1, start, end);
            n += 1;
        }
    });
    median(&spans.per_call_us(name)).expect("at least one call")
}

fn check<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
    r.unwrap_or_else(|e| panic!("{what}: {e}"))
}

/// Inputs of one probe run.
pub struct Probe<'a> {
    pub w: Workload,
    pub campaign: &'a Campaign,
    pub shape: &'a Shape,
    /// Median training batch of the traced campaigns.
    pub train_batch: usize,
    pub seed: u64,
    /// Scratch directory on the run's filesystem.
    pub scratch: &'a Path,
}

/// Runs every layer probe and sets its metrics. Returns report lines.
pub fn run(p: &Probe<'_>, spans: &mut Spans, m: &mut Metrics) -> Result<Vec<String>, String> {
    let mut rng = StdRng::seed_from_u64(p.seed);
    let mut notes = Vec::new();
    spans.scope("probes", |spans| -> Result<(), String> {
        spans.scope("nn", |spans| nn_and_rl(p, &mut rng, spans, m, &mut notes))?;
        spans.scope("federated", |spans| federated(p, &mut rng, spans, m))?;
        spans.scope("fault", |spans| fault(p, &mut rng, spans, m, &mut notes))?;
        spans.scope("mitigation", |spans| mitigation(p, &mut rng, spans, m))?;
        spans.scope("campaign", |spans| campaign_layers(p, &mut rng, spans, m))
    })?;
    Ok(notes)
}

/// A fresh policy learner of the workload's system.
enum Policy {
    Q(QLearner),
    Pg(Reinforce),
}

impl Policy {
    fn new(drone: bool, rng: &mut StdRng) -> Result<Policy, String> {
        Ok(if drone {
            Policy::Pg(Reinforce::drone_default(rng).map_err(|e| e.to_string())?)
        } else {
            Policy::Q(QLearner::gridworld_default(rng).map_err(|e| e.to_string())?)
        })
    }

    fn learner(&mut self) -> &mut dyn Learner {
        match self {
            Policy::Q(q) => q,
            Policy::Pg(r) => r,
        }
    }
}

/// The workload's environment.
fn environment(drone: bool, seed: u64) -> Box<dyn frlfi::envs::Environment> {
    if drone {
        Box::new(frlfi::envs::DroneSim::new(frlfi::envs::DroneConfig::default(), seed))
    } else {
        Box::new(frlfi::envs::GridWorld::standard_layouts(seed)[0].clone())
    }
}

fn nn_and_rl(
    p: &Probe<'_>,
    rng: &mut StdRng,
    spans: &mut Spans,
    m: &mut Metrics,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let s = p.shape;
    let mut policy = Policy::new(s.drone, rng)?;
    let mut env = environment(s.drone, p.seed);
    let obs_shape = env.obs_shape();
    let in_shape = ActShape::from_dims(&obs_shape).map_err(|e| e.to_string())?;
    let vol = in_shape.volume();

    // Network kernels at the workload's median training batch.
    let ops = architecture(policy.learner().network(), s.drone)?;
    let b = p.train_batch.max(1);
    let dense: u64 = ops.iter().filter(|o| matches!(o, Op::Dense { .. })).map(|o| o.flops()).sum();
    let conv: u64 = ops.iter().filter(|o| matches!(o, Op::Conv { .. })).map(|o| o.flops()).sum();
    m.set("nn.fwd_flops_dense", (dense * b as u64) as f64);
    m.set("nn.fwd_flops_conv", (conv * b as u64) as f64);
    notes.push(format!(
        "computed: forward FLOPs at batch {b} = {} dense + {} conv ({} parameters)",
        dense * b as u64,
        conv * b as u64,
        policy.learner().network().param_count()
    ));
    let inputs: Vec<f32> = (0..vol * b).map(|_| rng.gen_range(0.0..1.0)).collect();
    let mut bctx = BatchInferCtx::new();
    let net = policy.learner().network_mut();
    let out_len =
        check(net.forward_batch_cached(&inputs, &in_shape, b, &mut bctx), "forward").len();
    let fwd = time_calls(spans, "nn.Network::forward_batch_cached", || {
        let out = check(net.forward_batch_cached(&inputs, &in_shape, b, &mut bctx), "forward");
        std::hint::black_box(out[0]);
    });
    let grads: Vec<f32> = (0..out_len).map(|_| rng.gen_range(-0.01..0.01)).collect();
    let bwd = time_calls(spans, "nn.Network::backward_batch", || {
        check(net.backward_batch(&grads, b, &mut bctx), "backward");
    });
    let apply = time_calls(spans, "nn.Network::apply_grads", || net.apply_grads(1e-6));
    let x =
        Tensor::from_vec(obs_shape.clone(), inputs[..vol].to_vec()).map_err(|e| e.to_string())?;
    let mut ictx = InferCtx::new();
    let infer = time_calls(spans, "nn.Network::infer", || {
        std::hint::black_box(check(net.infer(&x, &mut ictx), "infer")[0]);
    });
    m.set("nn.fwd_us", fwd);
    m.set("nn.bwd_us", bwd);
    m.set("nn.apply_us", apply);
    m.set("nn.infer_us", infer);
    m.set("nn.fwd_gflops", (dense + conv) as f64 * b as f64 / (fwd * 1e3));

    // Environment steps (resetting at episode ends) and depth renders.
    let n_actions = env.n_actions();
    let mut env_rng = StdRng::seed_from_u64(p.seed ^ 0xE);
    env.reset(&mut env_rng);
    let step_name = if s.drone { "envs.DroneSim::step" } else { "envs.GridWorld::step" };
    let step = time_calls(spans, step_name, || {
        let a = env_rng.gen_range(0..n_actions);
        if env.step(a, &mut env_rng).outcome.is_terminal() {
            env.reset(&mut env_rng);
        }
    });
    m.set("envs.step_us", step);
    let render = if s.drone {
        let mut sim = frlfi::envs::DroneSim::new(frlfi::envs::DroneConfig::default(), p.seed);
        frlfi::envs::Environment::reset(&mut sim, &mut env_rng);
        time_calls(spans, "envs.DroneSim::render_depth", || {
            std::hint::black_box(sim.render_depth());
        })
    } else {
        0.0 // GridWorld observations are not rendered
    };
    m.set("envs.render_us", render);

    // The learner's input: of 64 seeded random-action episodes, the
    // one whose length is nearest the probed training batch (and at
    // least 16 steps).
    let target = b.max(16);
    let mut episode: Vec<Transition> = Vec::new();
    for _ in 0..64 {
        let mut ep = Vec::new();
        let mut state = env.reset(&mut env_rng);
        loop {
            let action = env_rng.gen_range(0..n_actions);
            let step = env.step(action, &mut env_rng);
            let end = step.outcome.is_terminal();
            let next_state = (!end).then(|| step.state.clone());
            ep.push(Transition { state, action, reward: step.reward, next_state });
            state = step.state;
            if end {
                break;
            }
        }
        if episode.is_empty() || ep.len().abs_diff(target) < episode.len().abs_diff(target) {
            episode = ep;
        }
    }
    notes.push(format!("rl.learn_us covers one recorded episode of {} steps", episode.len()));
    let learn = match &mut policy {
        Policy::Q(q) => time_calls(spans, "rl.QLearner::learn_batch", || {
            check(q.learn_batch(&episode, &mut bctx), "learn");
        }),
        Policy::Pg(r) => time_each(spans, "rl.Reinforce::learn_batch", || {
            for t in &episode {
                check(r.observe_ctx(t.clone(), &mut bctx), "observe");
            }
            let start = Instant::now();
            check(r.learn_batch(&mut bctx), "learn");
            (start, Instant::now())
        }),
    };
    m.set("rl.learn_us", learn);
    let learner = policy.learner();
    let act = if p.w == Workload::StudyEval {
        time_calls(spans, "rl.Learner::act_greedy_ctx", || {
            std::hint::black_box(check(learner.act_greedy_ctx(&x, &mut ictx), "act"));
        })
    } else {
        time_calls(spans, "rl.Learner::act_train_ctx", || {
            std::hint::black_box(check(learner.act_train_ctx(&x, &mut env_rng, &mut bctx), "act"));
        })
    };
    m.set("rl.act_us", act);
    Ok(())
}

/// A fleet's parameter planes: `n` perturbed copies of a fresh policy.
fn fleet(p: &Probe<'_>, rng: &mut StdRng) -> Result<(Network, Vec<Vec<f32>>), String> {
    let mut policy = Policy::new(p.shape.drone, rng)?;
    let net = policy.learner().network().clone();
    let base = net.snapshot();
    let planes = (0..p.shape.n_agents)
        .map(|_| base.iter().map(|w| w + rng.gen_range(-1e-3..1e-3)).collect())
        .collect();
    Ok((net, planes))
}

fn federated(
    p: &Probe<'_>,
    rng: &mut StdRng,
    spans: &mut Spans,
    m: &mut Metrics,
) -> Result<(), String> {
    let (net, uploads) = fleet(p, rng)?;
    let params = net.param_count();
    let mut server =
        frlfi::federated::Server::new(p.shape.n_agents, params).map_err(|e| e.to_string())?;
    let agg = time_calls(spans, "federated.Server::aggregate", || {
        std::hint::black_box(check(server.aggregate(&uploads), "aggregate"));
    });
    m.set("federated.aggregate_us", agg);
    // Every agent uploads its planes and downloads its aggregate.
    m.set("federated.bytes_per_round", (2 * p.shape.n_agents * params * 4) as f64);
    Ok(())
}

fn fault(
    p: &Probe<'_>,
    rng: &mut StdRng,
    spans: &mut Spans,
    m: &mut Metrics,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let s = p.shape;
    let (_, planes) = fleet(p, rng)?;
    // Server faults strike all agents' aggregated sets at once; agent
    // and inference faults one agent's planes.
    let clean: Vec<f32> =
        if s.server_side { planes.concat() } else { planes.into_iter().next().expect("agent") };
    let repr = s.repr.materialize_for(&clean);
    let ber = Ber::new(s.ber).map_err(|e| e.to_string())?;
    let bits = ber.fault_count(repr.total_bits(clean.len()));
    let mut buf = clean.clone();
    let mut frng = StdRng::seed_from_u64(p.seed ^ 0xFA);
    let inject = time_calls(spans, "fault.inject_slice_ber", || {
        buf.copy_from_slice(&clean);
        std::hint::black_box(inject_slice_ber(&mut buf, repr, s.fault_model, ber, &mut frng));
    });
    m.set("fault.inject_us", inject);
    m.set("fault.bits_per_inject", bits as f64);
    notes.push(format!(
        "fault.inject_us: {bits} bit flips over {} parameters at BER {}, {:.2} injections/trial",
        clean.len(),
        s.ber,
        s.injects_per_trial
    ));
    Ok(())
}

fn mitigation(
    p: &Probe<'_>,
    rng: &mut StdRng,
    spans: &mut Spans,
    m: &mut Metrics,
) -> Result<(), String> {
    let s = p.shape;
    let mit = s.mitigation.unwrap_or(DEFAULT_MITIGATION);
    let (net, planes) = fleet(p, rng)?;
    let mut det = RewardDropDetector::new(mit.p_percent, mit.k_consecutive, s.n_agents);
    let rewards: Vec<f32> = (0..s.n_agents).map(|i| 1.0 - 0.01 * i as f32).collect();
    let observe = time_calls(spans, "mitigation.RewardDropDetector::observe", || {
        std::hint::black_box(det.observe(&rewards));
    });
    let mut cp = ServerCheckpoint::new(mit.checkpoint_interval);
    let mut round = 0;
    let consensus = &planes[0];
    let checkpoint = time_calls(spans, "mitigation.ServerCheckpoint::on_round", || {
        round += 1;
        cp.on_round(round, consensus);
    });
    let range = RangeDetector::fit(&net);
    let scan = time_calls(spans, "mitigation.RangeDetector::scan", || {
        std::hint::black_box(range.scan(consensus));
    });
    // Repair as the "Mitigation" trials call it: on a network faulted
    // at the workload's largest BER, re-faulted before every call.
    let mut faulted = net.clone();
    let clean = net.snapshot();
    let repr = s.repr.materialize_for(&clean);
    let ber = Ber::new(s.ber).map_err(|e| e.to_string())?;
    let mut frng = StdRng::seed_from_u64(p.seed ^ 0x5E);
    let mut buf = clean.clone();
    let repair = time_each(spans, "mitigation.RangeDetector::repair", || {
        buf.copy_from_slice(&clean);
        inject_slice_ber(&mut buf, repr, s.fault_model, ber, &mut frng);
        check(faulted.restore(&buf), "restore");
        let start = Instant::now();
        std::hint::black_box(range.repair(&mut faulted));
        (start, Instant::now())
    });
    m.set("mitigation.observe_us", observe);
    m.set("mitigation.checkpoint_us", checkpoint);
    m.set("mitigation.scan_us", scan);
    m.set("mitigation.repair_us", repair);
    Ok(())
}

fn campaign_layers(
    p: &Probe<'_>,
    rng: &mut StdRng,
    spans: &mut Spans,
    m: &mut Metrics,
) -> Result<(), String> {
    let scratch = p.scratch;
    std::fs::create_dir_all(scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;

    // One trial record appended durably, as the runner commits it.
    let log = scratch.join("commit.jsonl");
    let line =
        b"{\"cell\":0,\"repeat\":0,\"seed\":-3215036705744109601,\"value\":0.8333333333333334}\n";
    let commit = time_calls(spans, "campaign.io::open_append+write_all+sync_data", || {
        let mut f = check(io::open_append("bench.commit", &log), "open");
        check(io::write_all("bench.commit", &mut f, line), "write");
        check(io::sync_data("bench.commit", &f), "sync");
    });
    m.set("campaign.io.commit_us", commit);

    // Claims against a claim log already holding one record per task.
    let coord_dir = scratch.join("coord");
    std::fs::create_dir_all(&coord_dir).map_err(|e| e.to_string())?;
    let tasks = p.campaign.total_trials() + p.campaign.n_models();
    let claims = ClaimLog::in_dir(&coord_dir);
    let now = now_ms();
    for trial in 0..tasks {
        claims.append(&ClaimRecord {
            trial,
            generation: 0,
            worker: "bench-prefill".into(),
            deadline_ms: now + 30_000,
            ts_ms: now,
        })?;
    }
    let coordinator = Coordinator::new(
        &coord_dir,
        CoordConfig {
            worker_id: format!("bench-probe-{}", std::process::id()),
            ..CoordConfig::default()
        },
    );
    let mut next = tasks;
    let claim = time_calls(spans, "campaign.Coordinator::try_claim", || {
        assert!(check(coordinator.try_claim(next), "claim"), "a fresh task is always won");
        coordinator.complete(next);
        next += 1;
    });
    drop(coordinator);
    m.set("campaign.coord.claim_us", claim);

    // Loading the workload's published model planes.
    let art_dir = scratch.join("artifacts");
    std::fs::create_dir_all(&art_dir).map_err(|e| e.to_string())?;
    let (_, planes) = fleet(p, rng)?;
    let digest = artifacts::publish(&art_dir, 0, &planes, "bench")?;
    let load = time_calls(spans, "campaign.artifacts::load_planes", || {
        std::hint::black_box(check(artifacts::load_planes(&art_dir, 0, digest), "load"));
    });
    m.set("campaign.artifacts.load_us", load);
    std::fs::remove_dir_all(scratch).map_err(|e| format!("clean {}: {e}", scratch.display()))?;
    Ok(())
}
