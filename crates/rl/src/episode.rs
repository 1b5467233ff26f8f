use crate::{Learner, RlError, Transition};
use frlfi_envs::{Environment, Outcome};
use frlfi_nn::{ActShape, BatchInferCtx, NnError};
use frlfi_tensor::Tensor;
use rand::RngCore;

/// The result of running one episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpisodeSummary {
    /// Sum of rewards over the episode.
    pub total_reward: f32,
    /// Number of environment steps taken.
    pub steps: usize,
    /// How the episode ended.
    pub outcome: Outcome,
}

impl EpisodeSummary {
    /// True if the episode ended at the goal (GridWorld success metric).
    pub fn succeeded(&self) -> bool {
        self.outcome == Outcome::Goal
    }
}

/// Runs one *training* episode: the learner explores, observes every
/// transition and receives the episode-end update, with every forward
/// and backward on `ctx`'s scratch arenas ([`Learner::act_train_ctx`],
/// [`Learner::observe_ctx`], [`Learner::end_episode_ctx`]). Each step
/// acts and then observes on the same `ctx` with nothing in between
/// touching it, so a value learner's update can reuse the forward it
/// acted with (see [`crate::QLearner`]).
///
/// # Errors
///
/// Propagates learner errors (e.g. an observation whose shape does not
/// fit the policy network) so a malformed scenario quarantines instead
/// of panicking inside a worker.
pub fn run_episode(
    env: &mut dyn Environment,
    learner: &mut dyn Learner,
    rng: &mut dyn RngCore,
    ctx: &mut BatchInferCtx,
) -> Result<EpisodeSummary, RlError> {
    let mut state = env.reset(rng);
    let mut total_reward = 0.0;
    let mut steps = 0;
    let outcome = loop {
        let action = learner.act_train_ctx(&state, rng, ctx)?;
        let step = env.step(action, rng);
        total_reward += step.reward;
        steps += 1;
        let next_state = if step.outcome.is_terminal() { None } else { Some(step.state.clone()) };
        learner.observe_ctx(Transition { state, action, reward: step.reward, next_state }, ctx)?;
        state = step.state;
        if step.outcome.is_terminal() {
            break step.outcome;
        }
    };
    learner.end_episode_ctx(ctx)?;
    Ok(EpisodeSummary { total_reward, steps, outcome })
}

/// Lock-step batched greedy evaluation: runs every environment in
/// `envs` through one shared policy simultaneously, selecting all
/// active environments' actions with **one batched forward per step**
/// ([`Learner::act_greedy_batch`]) and retiring finished episodes from
/// the batch as they terminate.
///
/// Environment `i` uses `rngs[i]` for its entire episode, so each
/// episode consumes exactly the streams it would consume alone — and
/// since every batched action is bit-identical to single-observation
/// greedy selection ([`Learner::act_greedy_ctx`]), the returned
/// summaries (in environment order) match running the episodes one at
/// a time exactly.
///
/// All environments must share one observation shape (they are fed to
/// the same policy).
///
/// # Errors
///
/// Propagates learner errors and rejects unsupported observation
/// shapes or observations whose size differs from the declared shape;
/// returns [`RlError::EpisodeNotTerminated`] if an environment violates
/// its termination contract.
///
/// # Panics
///
/// Panics if `rngs.len() != envs.len()` or the observation shapes
/// diverge.
pub fn run_greedy_episodes_batch<E: Environment, R: RngCore>(
    learner: &mut dyn Learner,
    envs: &mut [E],
    rngs: &mut [R],
    ctx: &mut BatchInferCtx,
) -> Result<Vec<EpisodeSummary>, RlError> {
    let n = envs.len();
    assert_eq!(rngs.len(), n, "one RNG per environment");
    if n == 0 {
        return Ok(Vec::new());
    }
    let dims = envs[0].obs_shape();
    let shape = ActShape::from_dims(&dims)?;
    let vol = shape.volume();

    // Active environment indices and their current observations, kept
    // compacted: slot `s` of `states` is the observation of environment
    // `active[s]`.
    let mut active: Vec<usize> = (0..n).collect();
    let mut states: Vec<f32> = vec![0.0; n * vol];
    for (s, (env, rng)) in envs.iter_mut().zip(rngs.iter_mut()).enumerate() {
        assert_eq!(env.obs_shape(), dims, "batched environments must share an obs shape");
        load_row(&mut states, vol, s, &env.reset(rng))?;
    }

    let mut totals = vec![0.0f32; n];
    let mut step_counts = vec![0usize; n];
    let mut actions = vec![0usize; n];
    let mut summaries: Vec<Option<EpisodeSummary>> = vec![None; n];
    while !active.is_empty() {
        let b = active.len();
        learner.act_greedy_batch(&states[..b * vol], &shape, b, ctx, &mut actions[..b])?;
        // Step every active environment; survivors compact in place so
        // the next batched forward sees only live episodes.
        let mut live = 0;
        for s in 0..b {
            let i = active[s];
            let step = envs[i].step(actions[s], &mut rngs[i]);
            totals[i] += step.reward;
            step_counts[i] += 1;
            if step.outcome.is_terminal() {
                summaries[i] = Some(EpisodeSummary {
                    total_reward: totals[i],
                    steps: step_counts[i],
                    outcome: step.outcome,
                });
            } else {
                active[live] = i;
                load_row(&mut states, vol, live, &step.state)?;
                live += 1;
            }
        }
        active.truncate(live);
    }
    summaries.into_iter().map(|s| s.ok_or(RlError::EpisodeNotTerminated)).collect()
}

/// Copies observation `obs` into row `slot` of the sample-major batch
/// `states`, rejecting an observation whose volume does not match the
/// row width (a malformed environment) with a typed error.
fn load_row(states: &mut [f32], vol: usize, slot: usize, obs: &Tensor) -> Result<(), RlError> {
    if obs.len() != vol {
        return Err(RlError::Nn(NnError::BadDimensions {
            detail: format!("observation has {} elements, expected {vol}", obs.len()),
        }));
    }
    states[slot * vol..(slot + 1) * vol].copy_from_slice(obs.data());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QLearner;
    use frlfi_envs::GridWorld;
    use frlfi_envs::Outcome;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One greedy episode of `env` through the batched runner.
    fn greedy(env: &GridWorld, learner: &mut dyn Learner, rng: StdRng) -> EpisodeSummary {
        let (mut envs, mut rngs) = (vec![env.clone()], vec![rng]);
        run_greedy_episodes_batch(learner, &mut envs, &mut rngs, &mut BatchInferCtx::new()).unwrap()
            [0]
    }

    #[test]
    fn episode_terminates() {
        let mut env = GridWorld::standard_layouts(1)[0].clone();
        let mut rng = StdRng::seed_from_u64(0);
        let mut learner = QLearner::gridworld_default(&mut rng).unwrap();
        let s = run_episode(&mut env, &mut learner, &mut rng, &mut BatchInferCtx::new()).unwrap();
        assert!(s.steps > 0);
        assert!(s.outcome.is_terminal());
    }

    #[test]
    fn greedy_episode_does_not_train() {
        let env = GridWorld::standard_layouts(1)[0].clone();
        let mut rng = StdRng::seed_from_u64(0);
        let mut learner = QLearner::gridworld_default(&mut rng).unwrap();
        let before = learner.network().snapshot();
        greedy(&env, &mut learner, rng);
        assert_eq!(learner.network().snapshot(), before);
    }

    #[test]
    fn batched_episodes_match_one_at_a_time_runs() {
        // Train one policy, then evaluate the same four environments
        // one at a time and in lock-step: summaries must be identical
        // (actions are bit-identical, env RNG streams are per-episode).
        let mut rng = StdRng::seed_from_u64(9);
        let mut learner = QLearner::gridworld_default(&mut rng).unwrap();
        let layouts = GridWorld::standard_layouts(4);
        let mut ctx = BatchInferCtx::new();
        for env in layouts.iter().take(4) {
            let mut env = env.clone();
            for _ in 0..120 {
                run_episode(&mut env, &mut learner, &mut rng, &mut ctx).unwrap();
            }
        }
        let alone: Vec<EpisodeSummary> = layouts
            .iter()
            .take(4)
            .enumerate()
            .map(|(i, env)| greedy(env, &mut learner, StdRng::seed_from_u64(1000 + i as u64)))
            .collect();
        let mut batch_envs: Vec<GridWorld> = layouts.iter().take(4).cloned().collect();
        let mut eval_rngs: Vec<StdRng> =
            (0..4).map(|i| StdRng::seed_from_u64(1000 + i as u64)).collect();
        let batched =
            run_greedy_episodes_batch(&mut learner, &mut batch_envs, &mut eval_rngs, &mut ctx)
                .unwrap();
        assert_eq!(batched, alone);
    }

    #[test]
    fn batched_runner_handles_empty_and_single() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut learner = QLearner::gridworld_default(&mut rng).unwrap();
        let none: Vec<EpisodeSummary> = run_greedy_episodes_batch(
            &mut learner,
            &mut Vec::<GridWorld>::new(),
            &mut Vec::<StdRng>::new(),
            &mut BatchInferCtx::new(),
        )
        .unwrap();
        assert!(none.is_empty());
        let one =
            greedy(&GridWorld::standard_layouts(1)[0], &mut learner, StdRng::seed_from_u64(7));
        assert!(one.outcome.is_terminal());
    }

    #[test]
    fn q_learning_improves_on_simple_maze() {
        // Train on one open maze; the greedy policy should reach the goal.
        let mut env = GridWorld::from_spec(&frlfi_envs::standard_layout_specs(11, 1)[0]);
        let mut rng = StdRng::seed_from_u64(1);
        let mut learner = QLearner::gridworld_default(&mut rng).unwrap();
        let mut ctx = BatchInferCtx::new();
        for _ in 0..600 {
            run_episode(&mut env, &mut learner, &mut rng, &mut ctx).unwrap();
        }
        let mut envs = vec![env; 20];
        let mut rngs: Vec<StdRng> = (0..20).map(|i| StdRng::seed_from_u64(100 + i)).collect();
        let summaries =
            run_greedy_episodes_batch(&mut learner, &mut envs, &mut rngs, &mut ctx).unwrap();
        let successes = summaries.iter().filter(|s| s.outcome == Outcome::Goal).count();
        assert!(successes >= 15, "only {successes}/20 greedy episodes reached the goal");
    }
}
