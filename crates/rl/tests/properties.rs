//! Property-based tests for the RL substrate.

use frlfi_envs::GridWorld;
use frlfi_nn::BatchInferCtx;
use frlfi_rl::{
    run_episode, run_greedy_episodes_batch, sample_categorical_slice, softmax, EpsilonSchedule,
    Learner, QLearner, Reinforce, Transition,
};
use frlfi_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #[test]
    fn softmax_is_a_distribution(logits in proptest::collection::vec(-50.0f32..50.0, 1..32)) {
        let n = logits.len();
        let p = softmax(&Tensor::from_vec(vec![n], logits).expect("logits"));
        prop_assert!((p.sum() - 1.0).abs() < 1e-4);
        prop_assert!(p.data().iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn softmax_is_shift_invariant(logits in proptest::collection::vec(-10.0f32..10.0, 2..8), shift in -20.0f32..20.0) {
        let n = logits.len();
        let a = softmax(&Tensor::from_vec(vec![n], logits.clone()).expect("logits"));
        let shifted: Vec<f32> = logits.iter().map(|&x| x + shift).collect();
        let b = softmax(&Tensor::from_vec(vec![n], shifted).expect("logits"));
        for (x, y) in a.data().iter().zip(b.data().iter()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn sample_always_in_range(seed in any::<u64>(), probs in proptest::collection::vec(0.0f32..1.0, 1..16)) {
        let n = probs.len();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..32 {
            prop_assert!(sample_categorical_slice(&probs, &mut rng) < n);
        }
    }

    #[test]
    fn epsilon_monotone_nonincreasing(start in 0.5f32..1.0, end in 0.0f32..0.2, horizon in 1usize..500) {
        let s = EpsilonSchedule::new(start, end, horizon);
        let mut prev = f32::INFINITY;
        for ep in (0..horizon + 50).step_by(7) {
            let e = s.epsilon(ep);
            prop_assert!(e <= prev + 1e-6);
            prop_assert!((end - 1e-6..=start + 1e-6).contains(&e));
            prev = e;
        }
    }

    #[test]
    fn training_episode_is_reproducible(env_seed in any::<u64>(), learner_seed in any::<u64>()) {
        let run = || {
            let mut env = GridWorld::from_spec(&frlfi_envs::standard_layout_specs(env_seed, 1)[0]);
            let mut rng = StdRng::seed_from_u64(learner_seed);
            let mut learner = QLearner::gridworld_default(&mut rng).expect("learner");
            let s = run_episode(&mut env, &mut learner, &mut rng, &mut BatchInferCtx::new())
                .expect("episode runs");
            (s.steps, s.total_reward.to_bits(), learner.network().snapshot())
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn greedy_episode_never_mutates_policy(env_seed in any::<u64>()) {
        let mut envs = vec![GridWorld::from_spec(&frlfi_envs::standard_layout_specs(env_seed, 1)[0])];
        let mut rng = StdRng::seed_from_u64(env_seed);
        let mut learner = Reinforce::gridworld_default(&mut rng).expect("learner");
        let before = learner.network().snapshot();
        run_greedy_episodes_batch(&mut learner, &mut envs, &mut [rng], &mut BatchInferCtx::new())
            .expect("episode runs");
        prop_assert_eq!(learner.network().snapshot(), before);
    }

    #[test]
    fn reinforce_update_is_finite(seed in any::<u64>(), rewards in proptest::collection::vec(-2.0f32..2.0, 1..16)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pi = Reinforce::gridworld_default(&mut rng).expect("learner");
        let s = Tensor::from_vec(vec![6], vec![0.0, 1.0, -1.0, 0.0, 1.0, -1.0]).expect("state");
        let mut ctx = BatchInferCtx::new();
        for (i, &r) in rewards.iter().enumerate() {
            pi.observe_ctx(Transition {
                state: s.clone(),
                action: i % 4,
                reward: r,
                next_state: (i + 1 < rewards.len()).then(|| s.clone()),
            }, &mut ctx).expect("observe");
        }
        pi.end_episode_ctx(&mut ctx).expect("end episode");
        prop_assert!(pi.network().snapshot().iter().all(|w| w.is_finite()));
    }

    #[test]
    fn qlearner_update_is_finite(seed in any::<u64>(), reward in -5.0f32..5.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut q = QLearner::gridworld_default(&mut rng).expect("learner");
        let s = Tensor::from_vec(vec![6], vec![0.0; 6]).expect("state");
        let t = Transition { state: s.clone(), action: 0, reward, next_state: Some(s) };
        q.observe_ctx(t, &mut BatchInferCtx::new()).expect("observe");
        prop_assert!(q.network().snapshot().iter().all(|w| w.is_finite()));
    }

    #[test]
    fn greedy_fast_path_selects_identical_actions(
        seed in any::<u64>(),
        obs in proptest::collection::vec(-2.0f32..2.0, 6),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ctx = frlfi_nn::InferCtx::new();
        let mut q = QLearner::gridworld_default(&mut rng).expect("learner");
        let s = Tensor::from_vec(vec![6], obs.clone()).expect("state");
        prop_assert_eq!(q.act_greedy(&s).expect("act"), q.act_greedy_ctx(&s, &mut ctx).expect("act"));
        let mut pi = Reinforce::gridworld_default(&mut rng).expect("learner");
        prop_assert_eq!(pi.act_greedy(&s).expect("act"), pi.act_greedy_ctx(&s, &mut ctx).expect("act"));
    }

    #[test]
    fn greedy_episode_matches_reference_action_loop(seed in any::<u64>()) {
        use frlfi_envs::Environment;
        // Reference: hand-rolled greedy loop on the slow tensor path.
        let mut env = GridWorld::standard_layouts(1)[0].clone();
        let mut rng = StdRng::seed_from_u64(9);
        let mut learner = QLearner::gridworld_default(&mut rng).expect("learner");
        let mut ep_rng = StdRng::seed_from_u64(seed);
        let mut state = env.reset(&mut ep_rng);
        let mut slow_actions = Vec::new();
        loop {
            let a = learner.act_greedy(&state).expect("act");
            slow_actions.push(a);
            let step = env.step(a, &mut ep_rng);
            state = step.state;
            if step.outcome.is_terminal() {
                break;
            }
        }
        // Fast path: the same loop on the inference scratch arena must
        // choose the identical action sequence.
        let mut env = GridWorld::standard_layouts(1)[0].clone();
        let mut rng = StdRng::seed_from_u64(9);
        let mut learner = QLearner::gridworld_default(&mut rng).expect("learner");
        let mut ep_rng = StdRng::seed_from_u64(seed);
        let mut ctx = frlfi_nn::InferCtx::new();
        let mut state = env.reset(&mut ep_rng);
        let mut fast_actions = Vec::new();
        loop {
            let a = learner.act_greedy_ctx(&state, &mut ctx).expect("act");
            fast_actions.push(a);
            let step = env.step(a, &mut ep_rng);
            state = step.state;
            if step.outcome.is_terminal() {
                break;
            }
        }
        prop_assert_eq!(slow_actions, fast_actions);
    }
}
