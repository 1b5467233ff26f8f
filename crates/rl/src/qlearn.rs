use crate::{eps_greedy_slice, greedy_argmax, EpsilonSchedule, Learner, RlError, Transition};
use frlfi_nn::{
    ActShape, BatchInferCtx, CachedForward, InferCtx, Network, NetworkBuilder, NnError,
};
use frlfi_tensor::Tensor;
use rand::{Rng, RngCore};

/// ε-greedy temporal-difference learning over an NN Q-function.
///
/// The GridWorld policy is the "widely used NN-based method" of §IV-A-1:
/// a small MLP mapping the 4-cell observation to one Q-value per action,
/// updated online with the one-step TD target
/// `r + γ·max_a' Q(s', a')`.
///
/// ```
/// use frlfi_rl::{Learner, QLearner};
/// use frlfi_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut q = QLearner::gridworld_default(&mut rng)?;
/// let a = q.act_greedy(&Tensor::from_vec(vec![6], vec![0.0, -1.0, 1.0, 0.0, 1.0, 0.0])?)?;
/// assert!(a < 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QLearner {
    net: Network,
    gamma: f32,
    lr: f32,
    schedule: EpsilonSchedule,
    episode: usize,
    /// Scratch output-gradient row for the TD backward.
    grad: Vec<f32>,
    /// The training forward [`Learner::act_train_ctx`] left cached, with
    /// the weights as they are now; cleared by anything that can change
    /// the weights (see `learn_one`).
    acted: Option<CachedForward>,
}

impl QLearner {
    /// Creates a learner around an existing Q-network.
    pub fn new(net: Network, gamma: f32, lr: f32, schedule: EpsilonSchedule) -> Self {
        QLearner { net, gamma, lr, schedule, episode: 0, grad: Vec::new(), acted: None }
    }

    /// The standard GridWorld configuration: MLP 6→32→32→4, γ = 0.9,
    /// lr = 0.01, ε decaying 1.0 → 0.05 over 400 episodes.
    ///
    /// # Errors
    ///
    /// Propagates network-construction errors.
    pub fn gridworld_default<R: Rng>(rng: &mut R) -> Result<Self, NnError> {
        let net = NetworkBuilder::new(6).dense(32).relu().dense(32).relu().dense(4).build(rng)?;
        Ok(QLearner::new(net, 0.9, 0.01, EpsilonSchedule::new(1.0, 0.05, 400)))
    }

    /// Learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Discount factor.
    pub fn gamma(&self) -> f32 {
        self.gamma
    }

    /// Current exploration rate.
    pub fn epsilon(&self) -> f32 {
        self.schedule.epsilon(self.episode)
    }

    /// One TD update toward the one-step target. The target's
    /// next-state forward runs on `ctx`'s eval arenas (no gradients flow
    /// through it), and the backward runs on the current-state training
    /// forward cached in `ctx`. Usually that forward is the one
    /// [`Learner::act_train_ctx`] just ran to pick `t.action`, and it is
    /// reused rather than repeated — but only while `ctx` still holds
    /// exactly that forward (its [`CachedForward`] stamp matches, so no
    /// other training forward ran since), over exactly `t.state`, bit
    /// for bit, and the weights have not changed since (the stamp is
    /// consumed here and dropped by [`Learner::network_mut`]).
    /// Otherwise the forward runs here. Either way the backward sees the
    /// same activations, so the updated weights are **bit-identical** to
    /// a single-sample `Network::forward`/`backward` update.
    ///
    /// The target and current-state forwards are deliberately *not*
    /// fused into one batch of two: a fused backward would feed the
    /// bias-gradient accumulator an extra `+0.0` for the next-state row
    /// (the reference kernels run a single backward), which is not
    /// bitwise-neutral for -0.0/NaN payloads.
    ///
    /// An action outside the Q-value row is rejected before the
    /// backward, leaving the weights untouched.
    fn learn_one(&mut self, t: &Transition, ctx: &mut BatchInferCtx) -> Result<(), RlError> {
        let acted = self.acted.take();
        let target = match &t.next_state {
            Some(ns) => {
                let shape = ActShape::from_dims(ns.shape().dims())?;
                let next_q = self.net.infer_batch(ns.data(), &shape, 1, ctx)?;
                let max_next = next_q
                    .iter()
                    .cloned()
                    .filter(|v| v.is_finite())
                    .fold(f32::NEG_INFINITY, f32::max);
                let max_next = if max_next.is_finite() { max_next } else { 0.0 };
                t.reward + self.gamma * max_next
            }
            None => t.reward,
        };
        let shape = ActShape::from_dims(t.state.shape().dims())?;
        let q_row = |q: &[f32]| match q.get(t.action) {
            Some(&q_a) => Ok((q_a, q.len())),
            None => Err(RlError::ActionOutOfRange { action: t.action, n_actions: q.len() }),
        };
        let (q_a, n) = match acted.and_then(|a| ctx.cached_output(a, t.state.data(), &shape)) {
            Some(q) => q_row(q)?,
            None => q_row(self.net.forward_batch_cached(t.state.data(), &shape, 1, ctx)?)?,
        };
        self.grad.clear();
        self.grad.resize(n, 0.0);
        let delta = q_a - target;
        // Clip the TD error so fault-corrupted outliers cannot blow up
        // training with a single step (standard DQN-style safeguard).
        self.grad[t.action] = delta.clamp(-10.0, 10.0);
        self.net.backward_batch(&self.grad, 1, ctx)?;
        self.net.apply_grads(self.lr);
        Ok(())
    }

    /// Runs a run of TD updates on `ctx`'s allocation-free arena
    /// kernels. TD learning is online — each update sees the weights the
    /// previous one produced — so transitions are processed strictly in
    /// order, one target forward plus one current-state forward and
    /// backward each; only the first can reuse the forward a preceding
    /// [`Learner::act_train_ctx`] cached (see `learn_one`). Weights
    /// after the call are **bit-identical** to calling
    /// [`Learner::observe_ctx`] on each transition in order.
    ///
    /// # Errors
    ///
    /// Returns an error if a transition's observations do not fit the
    /// policy network or its action is out of range; transitions before
    /// the failing one have already been applied.
    pub fn learn_batch(
        &mut self,
        transitions: &[Transition],
        ctx: &mut BatchInferCtx,
    ) -> Result<(), RlError> {
        for t in transitions {
            self.learn_one(t, ctx)?;
        }
        Ok(())
    }
}

impl Learner for QLearner {
    fn act_greedy(&mut self, state: &Tensor) -> Result<usize, RlError> {
        let q = self.net.forward(state)?;
        Ok(greedy_argmax(q.data()))
    }

    fn act_greedy_ctx(&mut self, state: &Tensor, ctx: &mut InferCtx) -> Result<usize, RlError> {
        let q = self.net.infer(state, ctx)?;
        Ok(greedy_argmax(q))
    }

    fn act_train_ctx(
        &mut self,
        state: &Tensor,
        rng: &mut dyn RngCore,
        ctx: &mut BatchInferCtx,
    ) -> Result<usize, RlError> {
        // A *training* forward, so the activations stay cached in `ctx`
        // and the TD update on this state can skip its own forward.
        self.acted = None;
        let shape = ActShape::from_dims(state.shape().dims())?;
        let q = self.net.forward_batch_cached(state.data(), &shape, 1, ctx)?;
        let action = eps_greedy_slice(q, self.schedule.epsilon(self.episode), rng);
        self.acted = ctx.cached_forward();
        Ok(action)
    }

    fn act_greedy_batch(
        &mut self,
        states: &[f32],
        in_shape: &ActShape,
        batch: usize,
        ctx: &mut BatchInferCtx,
        actions: &mut [usize],
    ) -> Result<(), RlError> {
        let q = self.net.infer_batch(states, in_shape, batch, ctx)?;
        let n = q.len() / batch;
        for (b, row) in q.chunks_exact(n).enumerate() {
            actions[b] = greedy_argmax(row);
        }
        Ok(())
    }

    fn observe_ctx(&mut self, t: Transition, ctx: &mut BatchInferCtx) -> Result<(), RlError> {
        self.learn_one(&t, ctx)
    }

    fn end_episode_ctx(&mut self, _ctx: &mut BatchInferCtx) -> Result<(), RlError> {
        self.episode += 1;
        Ok(())
    }

    fn set_episode(&mut self, episode: usize) {
        self.episode = episode;
    }

    fn network(&self) -> &Network {
        &self.net
    }

    fn network_mut(&mut self) -> &mut Network {
        // The caller may rewrite the weights: the cached acting forward
        // no longer describes them.
        self.acted = None;
        &mut self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn observe_moves_q_toward_target() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut q = QLearner::gridworld_default(&mut rng).unwrap();
        let s = Tensor::from_vec(vec![6], vec![0.0, 1.0, -1.0, 0.0, -1.0, 1.0]).unwrap();
        let before = q.network_mut().forward(&s).unwrap().data()[2];
        let mut ctx = BatchInferCtx::new();
        for _ in 0..20 {
            let t = Transition { state: s.clone(), action: 2, reward: 1.0, next_state: None };
            q.observe_ctx(t, &mut ctx).unwrap();
        }
        let after = q.network_mut().forward(&s).unwrap().data()[2];
        assert!(
            (after - 1.0).abs() < (before - 1.0).abs(),
            "Q should approach target: {before} -> {after}"
        );
    }

    #[test]
    fn epsilon_decays_with_episodes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut q = QLearner::gridworld_default(&mut rng).unwrap();
        let e0 = q.epsilon();
        q.set_episode(399);
        assert!(q.epsilon() < e0);
    }

    #[test]
    fn greedy_action_is_argmax_of_q() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut q = QLearner::gridworld_default(&mut rng).unwrap();
        let s = Tensor::from_vec(vec![6], vec![1.0, 0.0, 0.0, -1.0, -1.0, 0.0]).unwrap();
        let qs = q.network_mut().forward(&s).unwrap();
        assert_eq!(q.act_greedy(&s).unwrap(), qs.argmax());
    }

    #[test]
    fn terminal_transition_uses_raw_reward() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut q = QLearner::gridworld_default(&mut rng).unwrap();
        let s = Tensor::from_vec(vec![6], vec![0.0; 6]).unwrap();
        // Hammer a terminal reward of −1 on action 0.
        let mut ctx = BatchInferCtx::new();
        for _ in 0..600 {
            let t = Transition { state: s.clone(), action: 0, reward: -1.0, next_state: None };
            q.observe_ctx(t, &mut ctx).unwrap();
        }
        let v = q.network_mut().forward(&s).unwrap().data()[0];
        assert!((v + 1.0).abs() < 0.2, "terminal Q should approach −1, got {v}");
    }
}
