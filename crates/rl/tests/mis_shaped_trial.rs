//! Regression: a mis-shaped observation anywhere in the training or
//! evaluation hot path must surface as a typed [`RlError`], never a
//! panic. A panic kills the whole campaign worker; an `Err` lets the
//! runner quarantine just the malformed trial (PR 7 path) and keep the
//! rest of the sweep alive.

use frlfi_envs::{Environment, Outcome, Step};
use frlfi_nn::{ActShape, BatchInferCtx, InferCtx};
use frlfi_rl::{
    run_episode, run_greedy_episodes_batch, Learner, QLearner, Reinforce, RlError, Transition,
};
use frlfi_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// An environment that *claims* the GridWorld observation shape but
/// emits observations of a different volume — the malformed-scenario
/// failure mode the campaign quarantine machinery has to absorb.
struct MisShapedEnv {
    /// Volume of the observations actually produced (the gridworld
    /// policies expect 6).
    emit_dim: usize,
    steps: usize,
}

impl MisShapedEnv {
    fn new(emit_dim: usize) -> Self {
        MisShapedEnv { emit_dim, steps: 0 }
    }
}

impl Environment for MisShapedEnv {
    fn obs_shape(&self) -> Vec<usize> {
        vec![6]
    }

    fn n_actions(&self) -> usize {
        4
    }

    fn reset(&mut self, _rng: &mut dyn RngCore) -> Tensor {
        self.steps = 0;
        Tensor::zeros(vec![self.emit_dim])
    }

    fn step(&mut self, _action: usize, _rng: &mut dyn RngCore) -> Step {
        self.steps += 1;
        let outcome = if self.steps >= 3 { Outcome::Timeout } else { Outcome::Continue };
        Step { state: Tensor::zeros(vec![self.emit_dim]), reward: -1.0, outcome }
    }
}

fn assert_shape_error(result: Result<impl std::fmt::Debug, RlError>, path: &str) {
    match result {
        Err(RlError::Nn(_)) => {}
        other => panic!("{path}: mis-shaped observation must yield RlError::Nn, got {other:?}"),
    }
}

#[test]
fn mis_shaped_observation_errors_through_every_episode_driver() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut q = QLearner::gridworld_default(&mut rng).expect("learner");
    let mut pi = Reinforce::gridworld_default(&mut rng).expect("learner");
    let mut env = MisShapedEnv::new(9);
    let mut ctx = BatchInferCtx::new();

    assert_shape_error(run_episode(&mut env, &mut q, &mut rng, &mut ctx), "run_episode/QLearner");
    assert_shape_error(run_episode(&mut env, &mut pi, &mut rng, &mut ctx), "run_episode/Reinforce");
    let mut envs = vec![MisShapedEnv::new(9), MisShapedEnv::new(9)];
    let mut rngs = vec![StdRng::seed_from_u64(1), StdRng::seed_from_u64(2)];
    assert_shape_error(
        run_greedy_episodes_batch(&mut q, &mut envs, &mut rngs, &mut ctx),
        "run_greedy_episodes_batch/QLearner",
    );
    assert_shape_error(
        run_greedy_episodes_batch(&mut pi, &mut envs, &mut rngs, &mut ctx),
        "run_greedy_episodes_batch/Reinforce",
    );
}

#[test]
fn mis_shaped_observation_errors_through_direct_learner_calls() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut q = QLearner::gridworld_default(&mut rng).expect("learner");
    let mut pi = Reinforce::gridworld_default(&mut rng).expect("learner");
    let bad = Tensor::zeros(vec![9]);
    let good = Tensor::zeros(vec![6]);
    let mut ctx = BatchInferCtx::new();
    let mut ictx = InferCtx::new();
    // A batch of two rows, each one element short of the policy input.
    let short = ActShape::from_dims(&[5]).expect("shape");
    let mut actions = [0usize; 2];

    assert_shape_error(q.act_train_ctx(&bad, &mut rng, &mut ctx), "QLearner::act_train_ctx");
    assert_shape_error(q.act_greedy_ctx(&bad, &mut ictx), "QLearner::act_greedy_ctx");
    assert_shape_error(
        q.act_greedy_batch(&[0.0; 10], &short, 2, &mut ctx, &mut actions),
        "QLearner::act_greedy_batch",
    );
    assert_shape_error(
        q.observe_ctx(
            Transition { state: bad.clone(), action: 0, reward: 0.0, next_state: None },
            &mut ctx,
        ),
        "QLearner::observe_ctx(bad state)",
    );
    assert_shape_error(
        q.observe_ctx(
            Transition {
                state: good.clone(),
                action: 0,
                reward: 0.0,
                next_state: Some(bad.clone()),
            },
            &mut ctx,
        ),
        "QLearner::observe_ctx(bad next_state)",
    );
    assert_shape_error(pi.act_train_ctx(&bad, &mut rng, &mut ctx), "Reinforce::act_train_ctx");
    assert_shape_error(pi.act_greedy_ctx(&bad, &mut ictx), "Reinforce::act_greedy_ctx");
    assert_shape_error(
        pi.act_greedy_batch(&[0.0; 10], &short, 2, &mut ctx, &mut actions),
        "Reinforce::act_greedy_batch",
    );
    // REINFORCE defers its update to the episode end: a mis-shaped
    // buffered observation must fail there.
    pi.observe_ctx(Transition { state: bad, action: 0, reward: 1.0, next_state: None }, &mut ctx)
        .expect("buffering alone does not touch the network");
    assert_shape_error(pi.end_episode_ctx(&mut ctx), "Reinforce::end_episode_ctx");
}

#[test]
fn mis_shaped_trial_leaves_learner_weights_untouched() {
    // The error must also be *clean*: a rejected episode may not leave
    // a half-applied gradient behind, so the same learner can keep
    // serving healthy trials after a quarantined one.
    let mut rng = StdRng::seed_from_u64(11);
    let mut q = QLearner::gridworld_default(&mut rng).expect("learner");
    let before = q.network().snapshot();
    let mut env = MisShapedEnv::new(9);
    assert!(run_episode(&mut env, &mut q, &mut rng, &mut BatchInferCtx::new()).is_err());
    assert_eq!(q.network().snapshot(), before, "failed episode must not step the weights");
}

#[test]
fn out_of_range_action_is_a_typed_error_with_weights_untouched() {
    let mut rng = StdRng::seed_from_u64(13);
    let mut q = QLearner::gridworld_default(&mut rng).expect("learner");
    let mut pi = Reinforce::gridworld_default(&mut rng).expect("learner");
    let s = Tensor::zeros(vec![6]);
    let mut ctx = BatchInferCtx::new();
    let expect_range_error = |result: Result<(), RlError>, path: &str| match result {
        Err(RlError::ActionOutOfRange { action: 4, n_actions: 4 }) => {}
        other => panic!("{path}: action 4 of 4 must yield ActionOutOfRange, got {other:?}"),
    };

    // Both with and without a reusable acting forward in the ctx.
    let before = q.network().snapshot();
    let t = Transition { state: s.clone(), action: 4, reward: 1.0, next_state: Some(s.clone()) };
    expect_range_error(q.observe_ctx(t.clone(), &mut ctx), "QLearner::observe_ctx");
    q.act_train_ctx(&s, &mut rng, &mut ctx).expect("act");
    expect_range_error(q.learn_batch(&[t], &mut ctx), "QLearner::learn_batch after act");
    assert_eq!(q.network().snapshot(), before, "rejected TD update must not step the weights");

    let before = pi.network().snapshot();
    pi.observe_ctx(Transition { state: s, action: 4, reward: 1.0, next_state: None }, &mut ctx)
        .expect("buffering alone does not touch the network");
    expect_range_error(pi.end_episode_ctx(&mut ctx), "Reinforce::end_episode_ctx");
    assert_eq!(pi.network().snapshot(), before, "rejected episode must not step the weights");
}
