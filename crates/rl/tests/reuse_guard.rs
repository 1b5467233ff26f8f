//! The TD update reuses the training forward `act_train_ctx` cached on
//! the same state instead of repeating it — but only while that forward
//! still describes the learner's weights and the transition's state.
//! Every case here must leave the weights bit-identical to an
//! `observe_ctx` on a clone of the learner that never acted.

use frlfi_nn::{BatchInferCtx, CachedForward};
use frlfi_rl::{Learner, QLearner, Transition};
use frlfi_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn learner(seed: u64) -> QLearner {
    QLearner::gridworld_default(&mut StdRng::seed_from_u64(seed)).expect("learner")
}

fn state(v: f32) -> Tensor {
    Tensor::from_vec(vec![6], vec![v, -1.0, 0.5, 0.0, 1.0, -v]).expect("state")
}

fn transition(s: &Tensor) -> Transition {
    Transition { state: s.clone(), action: 1, reward: 0.5, next_state: Some(state(0.25)) }
}

fn bits(q: &QLearner) -> Vec<u32> {
    q.network().snapshot().iter().map(|v| v.to_bits()).collect()
}

/// `reference` (which never acted) observes `t` on a fresh ctx; the
/// weights must then equal `q`'s bit for bit.
fn assert_matches_reference(q: &QLearner, mut reference: QLearner, t: Transition, case: &str) {
    reference.observe_ctx(t, &mut BatchInferCtx::new()).expect("reference observe");
    assert_eq!(bits(q), bits(&reference), "{case}: weights differ from the no-act reference");
}

fn act(q: &mut QLearner, s: &Tensor, ctx: &mut BatchInferCtx) -> Option<CachedForward> {
    q.act_train_ctx(s, &mut StdRng::seed_from_u64(9), ctx).expect("act");
    ctx.cached_forward()
}

#[test]
fn act_then_observe_on_the_same_state_reuses_the_acting_forward() {
    let mut q = learner(1);
    let reference = q.clone();
    let s = state(1.0);
    let mut ctx = BatchInferCtx::new();
    let stamp = act(&mut q, &s, &mut ctx);
    q.observe_ctx(transition(&s), &mut ctx).expect("observe");
    assert_eq!(ctx.cached_forward(), stamp, "the update must not run a second training forward");
    assert_matches_reference(&q, reference, transition(&s), "act → observe");
}

#[test]
fn another_learner_acting_on_the_shared_ctx_defeats_reuse() {
    let (mut a, mut b) = (learner(2), learner(3));
    let reference = a.clone();
    let s = state(1.0);
    let mut ctx = BatchInferCtx::new();
    let stamp = act(&mut a, &s, &mut ctx);
    act(&mut b, &s, &mut ctx);
    a.observe_ctx(transition(&s), &mut ctx).expect("observe");
    assert_ne!(ctx.cached_forward(), stamp);
    assert_matches_reference(&a, reference, transition(&s), "act A, act B, observe A");
}

#[test]
fn a_weight_edit_between_act_and_observe_defeats_reuse() {
    let mut q = learner(4);
    let s = state(1.0);
    let mut ctx = BatchInferCtx::new();
    act(&mut q, &s, &mut ctx);
    let edit = |q: &mut QLearner| q.network_mut().for_each_param_mut(|i, v| *v += i as f32 * 1e-3);
    edit(&mut q);
    let mut reference = learner(4);
    edit(&mut reference);
    q.observe_ctx(transition(&s), &mut ctx).expect("observe");
    assert_matches_reference(&q, reference, transition(&s), "act, network_mut edit, observe");
}

#[test]
fn observing_another_state_than_the_acted_one_defeats_reuse() {
    let mut q = learner(5);
    let reference = q.clone();
    let (acted, observed) = (state(1.0), state(-1.0));
    let mut ctx = BatchInferCtx::new();
    let stamp = act(&mut q, &acted, &mut ctx);
    q.observe_ctx(transition(&observed), &mut ctx).expect("observe");
    assert_ne!(ctx.cached_forward(), stamp);
    assert_matches_reference(&q, reference, transition(&observed), "act s, observe s'");
}

#[test]
fn a_failed_act_leaves_no_reusable_forward_behind() {
    // act → observe steps the weights while the ctx keeps the acting
    // forward (taken with the *old* weights); a failed act must not
    // revive it for the next observe on the same state.
    let mut q = learner(6);
    let mut reference = q.clone();
    let s = state(1.0);
    let mut ctx = BatchInferCtx::new();
    act(&mut q, &s, &mut ctx);
    q.observe_ctx(transition(&s), &mut ctx).expect("observe");
    let bad = Tensor::zeros(vec![9]);
    assert!(q.act_train_ctx(&bad, &mut StdRng::seed_from_u64(9), &mut ctx).is_err());
    q.observe_ctx(transition(&s), &mut ctx).expect("observe after a failed act");
    reference.observe_ctx(transition(&s), &mut BatchInferCtx::new()).expect("reference observe");
    assert_matches_reference(&q, reference, transition(&s), "failed act, observe");
}
