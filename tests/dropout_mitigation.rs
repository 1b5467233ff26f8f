//! Dropout × mitigation interplay: checkpoint mitigation deployed on
//! a drone fleet with unreliable links (per-round dropout), under
//! server-side faults.
//!
//! Dropout makes communication rounds partial ([`frlfi::federated`]'s
//! `aggregate_subset`), so server checkpoints are taken from partial
//! consensus states and pending server faults can straddle skipped
//! rounds — exactly the interaction the paper's mitigation scheme
//! never had to survive. These tests pin that the combination stays
//! fully deterministic: same trial + same seed ⇒ the same detections,
//! the same checkpoint restores and bit-identical weights/values.

use frlfi::experiments::harness::{
    drone_geometry, run_drone_trial, DroneTrial, PretrainedWeights, TrialFault,
};
use frlfi::fault::{Ber, FaultSide};
use frlfi::{DroneFrlSystem, DroneSystemConfig, InjectionPlan, Scale, TrainingMitigation};
use frlfi_repro as _;

fn mitigation() -> TrainingMitigation {
    // Tight detector + every-round checkpoints: at smoke scale the
    // fault must be caught within a handful of episodes.
    TrainingMitigation { p_percent: 10.0, k_consecutive: 2, checkpoint_interval: 1 }
}

#[test]
fn dropout_trial_with_mitigation_is_deterministic() {
    let g = drone_geometry(Scale::Smoke);
    let weights = PretrainedWeights::lazy(g.pretrain_episodes);
    let t = DroneTrial::new(&g, weights, 3)
        .with_dropout(0.4)
        .with_mitigation(mitigation())
        .with_fault(TrialFault::transient_int8(FaultSide::ServerSide, 4, 0.1));

    // Pure in the seed: mitigation restores and dropout skips replay
    // identically run over run.
    for seed in [3u64, 17, 99] {
        let a = run_drone_trial(&t, seed).expect("drone trial runs");
        let b = run_drone_trial(&t, seed).expect("drone trial runs");
        assert_eq!(a.to_bits(), b.to_bits(), "seed {seed}: trial must be pure in its seed");
    }
}

#[test]
fn checkpoint_restores_replay_identically_across_skipped_rounds() {
    // Heavy dropout (half the fleet sits out each round) with a
    // mid-training server fault: the pending fault and the checkpoint
    // scheme both straddle partial rounds.
    let plan = InjectionPlan::server(3, Ber::new(0.2).expect("valid BER"));
    let run = || {
        let mut sys = DroneFrlSystem::new(DroneSystemConfig {
            n_drones: 3,
            dropout: Some(0.5),
            pretrain_episodes: 4,
            ..Default::default()
        })
        .expect("valid config");
        sys.pretrain().expect("pretraining");
        sys.reseed_faults(77);
        sys.fine_tune(16, Some(&plan), Some(&mitigation())).expect("fine-tune");
        (sys.fleet_weights(), sys.mitigation_stats())
    };
    let (weights_a, stats_a) = run();
    let (weights_b, stats_b) = run();

    assert_eq!(
        stats_a, stats_b,
        "detections (and therefore checkpoint restores) must replay identically"
    );
    assert!(
        stats_a.total() > 0,
        "the server fault must trip the detector, or this test exercises no restores: {stats_a:?}"
    );
    assert_eq!(weights_a.len(), weights_b.len());
    for (i, (a, b)) in weights_a.iter().zip(weights_b.iter()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "weight {i} drifted between identical runs");
    }
}
