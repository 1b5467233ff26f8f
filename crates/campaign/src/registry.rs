//! Named built-in scenarios.
//!
//! The `fig*` entries expand to exactly the trial cells their
//! `frlfi::experiments` figure drivers run (same geometry, same master
//! seed), so `campaign run fig3a` reproduces the Fig. 3a table. The
//! remaining entries are scenario variants beyond the paper's
//! evaluation: dynamic-obstacle layouts, unreliable federated links
//! and heterogeneous fleets, for both systems.
//!
//! Entries are grouped by system and kept alphabetical within each
//! group, so `campaign list` output is deterministic and stable across
//! releases (a test enforces the ordering).

use frlfi::experiments::DEFAULT_SEED;
use frlfi::Scale;

use crate::spec::{MitigationSpec, Scenario, SideKind, StudySpec, SystemKind};

/// One registry entry.
#[derive(Debug, Clone, Copy)]
pub struct RegistryEntry {
    /// The scenario name used on the CLI.
    pub name: &'static str,
    /// Which system the scenario runs (entries are grouped by system).
    pub system: SystemKind,
    /// One-line description.
    pub description: &'static str,
    builder: fn(Scale) -> Scenario,
}

impl RegistryEntry {
    /// Builds the scenario at `scale`.
    pub fn scenario(&self, scale: Scale) -> Scenario {
        (self.builder)(scale)
    }
}

/// All built-in scenarios, grouped by system ([`SystemKind::GridWorld`]
/// first) and alphabetical by name within each group.
pub fn entries() -> &'static [RegistryEntry] {
    &[
        RegistryEntry {
            name: "datatypes",
            system: SystemKind::GridWorld,
            description: "per-datatype inference resilience study, train-once (paper §IV-C)",
            builder: datatypes,
        },
        RegistryEntry {
            name: "fig3a",
            system: SystemKind::GridWorld,
            description: "GridWorld training, agent-side faults (paper Fig. 3a)",
            builder: fig3a,
        },
        RegistryEntry {
            name: "fig3b",
            system: SystemKind::GridWorld,
            description: "GridWorld training, server-side faults (paper Fig. 3b)",
            builder: fig3b,
        },
        RegistryEntry {
            name: "fig3c",
            system: SystemKind::GridWorld,
            description: "GridWorld training, single-agent baseline (paper Fig. 3c)",
            builder: fig3c,
        },
        RegistryEntry {
            name: "fig4",
            system: SystemKind::GridWorld,
            description: "GridWorld inference faults, FRL vs single-agent (paper Fig. 4)",
            builder: fig4,
        },
        RegistryEntry {
            name: "fig7a",
            system: SystemKind::GridWorld,
            description: "GridWorld server faults with checkpoint mitigation (paper Fig. 7a)",
            builder: fig7a,
        },
        RegistryEntry {
            name: "fig8a",
            system: SystemKind::GridWorld,
            description: "GridWorld inference faults with range-detector mitigation (paper Fig. 8)",
            builder: fig8a,
        },
        RegistryEntry {
            name: "grid-dropout",
            system: SystemKind::GridWorld,
            description: "federated rounds with 20% agent dropout under server faults",
            builder: grid_dropout,
        },
        RegistryEntry {
            name: "grid-dynamic",
            system: SystemKind::GridWorld,
            description: "dynamic-obstacle GridWorld layout under agent faults",
            builder: grid_dynamic,
        },
        RegistryEntry {
            name: "grid-fleet",
            system: SystemKind::GridWorld,
            description: "heterogeneous fleet sizes × BER (mid-training agent faults)",
            builder: grid_fleet,
        },
        RegistryEntry {
            name: "layers",
            system: SystemKind::GridWorld,
            description: "per-layer inference resilience study, train-once (paper §IV-C)",
            builder: layers,
        },
        RegistryEntry {
            name: "drone-dropout",
            system: SystemKind::DroneNav,
            description: "drone fleet with 20% per-round dropout under server faults",
            builder: drone_dropout,
        },
        RegistryEntry {
            name: "drone-dynamic",
            system: SystemKind::DroneNav,
            description: "oscillating-obstacle corridors under agent faults",
            builder: drone_dynamic,
        },
        RegistryEntry {
            name: "drone-motion",
            system: SystemKind::DroneNav,
            description: "fast wide-sweep obstacle motion (explicit env.motion) under agent faults",
            builder: drone_motion,
        },
        RegistryEntry {
            name: "fig5a",
            system: SystemKind::DroneNav,
            description: "DroneNav fine-tuning, agent-side faults (paper Fig. 5a)",
            builder: fig5a,
        },
        RegistryEntry {
            name: "fig5b",
            system: SystemKind::DroneNav,
            description: "DroneNav fine-tuning, server-side faults (paper Fig. 5b)",
            builder: fig5b,
        },
        RegistryEntry {
            name: "fig8b",
            system: SystemKind::DroneNav,
            description: "DroneNav inference faults with range-detector mitigation (paper Fig. 8)",
            builder: fig8b,
        },
    ]
}

/// Looks a built-in up by name.
pub fn builtin(name: &str, scale: Scale) -> Option<Scenario> {
    entries().iter().find(|e| e.name == name).map(|e| e.scenario(scale))
}

fn fig3a(scale: Scale) -> Scenario {
    let mut s = Scenario::new("fig3a", SystemKind::GridWorld, scale);
    s.fault.side = SideKind::Agent;
    s
}

fn fig3b(scale: Scale) -> Scenario {
    let mut s = Scenario::new("fig3b", SystemKind::GridWorld, scale);
    s.fault.side = SideKind::Server;
    s
}

fn fig3c(scale: Scale) -> Scenario {
    let mut s = Scenario::new("fig3c", SystemKind::GridWorld, scale);
    s.fault.side = SideKind::Agent;
    s.fleet.agents = Some(1);
    s
}

fn fig5a(scale: Scale) -> Scenario {
    let mut s = Scenario::new("fig5a", SystemKind::DroneNav, scale);
    s.fault.side = SideKind::Agent;
    s.master_seed = Some(DEFAULT_SEED ^ 0xF15);
    s
}

fn fig5b(scale: Scale) -> Scenario {
    let mut s = Scenario::new("fig5b", SystemKind::DroneNav, scale);
    s.fault.side = SideKind::Server;
    s.master_seed = Some(DEFAULT_SEED ^ 0xF15);
    s
}

fn fig7a(scale: Scale) -> Scenario {
    let mut s = Scenario::new("fig7a", SystemKind::GridWorld, scale);
    s.fault.side = SideKind::Server;
    s.master_seed = Some(DEFAULT_SEED ^ 0x7A);
    // Fig. 7a's geometry diverges from the Fig. 3 defaults: a trimmed
    // BER grid, a smoke late-inject with recovery room, and a full
    // grid without the final ep995 point; see experiments::fig7.
    s.fault.bers = match scale {
        Scale::Smoke => vec![0.0, 0.2],
        Scale::Bench => vec![0.0, 0.02, 0.05, 0.1, 0.2],
        Scale::Full => vec![0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5],
    };
    s.fault.inject_episodes = match scale {
        Scale::Smoke => vec![40, 110],
        Scale::Bench => vec![90, 240, 390, 510, 570, 595],
        Scale::Full => (0..10).map(|i| 100 * i + 50).collect(),
    };
    s.mitigation = Some(MitigationSpec {
        p_percent: 25.0,
        k_consecutive: scale.pick(4, 10, 50),
        checkpoint_interval: 5,
    });
    s
}

fn grid_dynamic(scale: Scale) -> Scenario {
    let mut s = Scenario::new("grid-dynamic", SystemKind::GridWorld, scale);
    s.env.layout = crate::spec::LayoutKind::DynamicObstacles;
    s.fault.side = SideKind::Agent;
    s.master_seed = Some(DEFAULT_SEED ^ 0xD1A);
    s
}

fn grid_dropout(scale: Scale) -> Scenario {
    let mut s = Scenario::new("grid-dropout", SystemKind::GridWorld, scale);
    s.fault.side = SideKind::Server;
    s.fleet.dropout = Some(0.2);
    s.master_seed = Some(DEFAULT_SEED ^ 0xD07);
    s
}

fn grid_fleet(scale: Scale) -> Scenario {
    let mut s = Scenario::new("grid-fleet", SystemKind::GridWorld, scale);
    s.fault.side = SideKind::Agent;
    s.fleet.agents_sweep = scale.pick(vec![1, 2, 3], vec![1, 2, 4, 8], vec![1, 4, 8, 12]);
    s.master_seed = Some(DEFAULT_SEED ^ 0xF1E);
    s
}

fn drone_dynamic(scale: Scale) -> Scenario {
    let mut s = Scenario::new("drone-dynamic", SystemKind::DroneNav, scale);
    s.env.layout = crate::spec::LayoutKind::DynamicObstacles;
    s.fault.side = SideKind::Agent;
    s.master_seed = Some(DEFAULT_SEED ^ 0xDD1A);
    s
}

fn drone_motion(scale: Scale) -> Scenario {
    let mut s = Scenario::new("drone-motion", SystemKind::DroneNav, scale);
    s.env.layout = crate::spec::LayoutKind::DynamicObstacles;
    // A harsher world than drone-dynamic's default (2 m over 24
    // steps): wider sweeps on a faster clock.
    s.env.motion = Some(crate::spec::MotionSpec { amplitude: 3.0, period: 16.0 });
    s.fault.side = SideKind::Agent;
    s.master_seed = Some(DEFAULT_SEED ^ 0xDD40);
    s
}

// The train-once / eval-many studies: each expands to a task DAG —
// train tasks that publish frozen weight artifacts, then eval trials
// over them — whose summary.txt is byte-identical to the sequential
// `experiments::fig4::run` / `fig8::*` / `datatypes::run` /
// `layers::run` drivers (the geometry supplies the master seed).

fn fig4(scale: Scale) -> Scenario {
    Scenario::study("fig4", StudySpec::Fig4, scale)
}

fn fig8a(scale: Scale) -> Scenario {
    Scenario::study("fig8a", StudySpec::Fig8a, scale)
}

fn fig8b(scale: Scale) -> Scenario {
    Scenario::study("fig8b", StudySpec::Fig8b, scale)
}

fn datatypes(scale: Scale) -> Scenario {
    Scenario::study("datatypes", StudySpec::Datatypes, scale)
}

fn layers(scale: Scale) -> Scenario {
    Scenario::study("layers", StudySpec::Layers, scale)
}

fn drone_dropout(scale: Scale) -> Scenario {
    let mut s = Scenario::new("drone-dropout", SystemKind::DroneNav, scale);
    s.fault.side = SideKind::Server;
    s.fleet.dropout = Some(0.2);
    s.master_seed = Some(DEFAULT_SEED ^ 0xDD07);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_builtins_expand_at_every_scale() {
        // Expansion is declaration only (drone pre-training is lazy),
        // so every entry expands cheaply at every scale.
        for e in entries() {
            for scale in [Scale::Smoke, Scale::Bench, Scale::Full] {
                let s = e.scenario(scale);
                let c = s.expand().unwrap_or_else(|err| panic!("{} @ {scale:?}: {err}", e.name));
                assert!(!c.trials.is_empty());
                // Every training fault fires within its trial.
                let reached = match &c.trials {
                    crate::spec::Trials::Grid(t) => {
                        t.iter().all(|t| t.fault.is_none_or(|f| f.episode < t.total_episodes))
                    }
                    crate::spec::Trials::Drone(t) => {
                        t.iter().all(|t| t.fault.is_none_or(|f| f.episode < t.fine_tune_episodes))
                    }
                    crate::spec::Trials::Study(_) => true,
                };
                assert!(reached, "{} @ {scale:?}: a fault lies past the training", e.name);
                assert_eq!(c.grid.cell_count(), c.trials.len(), "{}", e.name);
                assert_eq!(s.system, e.system, "{}: entry system must match the scenario", e.name);
            }
        }
    }

    #[test]
    fn entries_are_grouped_by_system_and_alphabetical_within() {
        let list = entries();
        // GridWorld block first, DroneNav block second, no interleaving.
        let first_drone =
            list.iter().position(|e| e.system == SystemKind::DroneNav).expect("drone entries");
        assert!(
            list[..first_drone].iter().all(|e| e.system == SystemKind::GridWorld)
                && list[first_drone..].iter().all(|e| e.system == SystemKind::DroneNav),
            "entries must be grouped by system"
        );
        for block in [&list[..first_drone], &list[first_drone..]] {
            let names: Vec<&str> = block.iter().map(|e| e.name).collect();
            let mut sorted = names.clone();
            sorted.sort_unstable();
            assert_eq!(names, sorted, "entries must be alphabetical within each system");
        }
    }

    #[test]
    fn descriptions_carry_no_stale_markers() {
        for e in entries() {
            assert!(
                !e.description.contains("NEW:"),
                "{}: shipped scenarios must not advertise themselves as new",
                e.name
            );
        }
    }

    #[test]
    fn drone_variants_expand_with_their_knobs() {
        use crate::spec::Trials;
        use frlfi::DroneLayout;
        let c = builtin("drone-dynamic", Scale::Smoke).expect("built-in").expand().expect("ok");
        match &c.trials {
            Trials::Drone(t) => {
                assert!(t.iter().all(|t| t.layout == DroneLayout::DynamicObstacles));
                assert!(t.iter().all(|t| t.dropout.is_none()));
            }
            _ => panic!("drone campaign expected"),
        }
        let c = builtin("drone-dropout", Scale::Smoke).expect("built-in").expand().expect("ok");
        match &c.trials {
            Trials::Drone(t) => {
                assert!(t.iter().all(|t| t.layout == DroneLayout::Standard));
                assert!(t.iter().all(|t| t.dropout == Some(0.2)));
            }
            _ => panic!("drone campaign expected"),
        }
    }

    #[test]
    fn fig_builtins_expand_to_their_drivers_cells() {
        use crate::spec::Trials;
        use frlfi::experiments::{fig3, fig7};
        use frlfi::fault::FaultSide;
        for scale in [Scale::Smoke, Scale::Bench, Scale::Full] {
            let cases: Vec<(&str, Vec<frlfi::experiments::harness::GridTrial>)> = vec![
                ("fig3a", fig3::heatmap_cells(scale, Some(FaultSide::AgentSide))),
                ("fig3b", fig3::heatmap_cells(scale, Some(FaultSide::ServerSide))),
                ("fig3c", fig3::heatmap_cells(scale, None)),
                ("fig7a", fig7::gridworld_cells(scale)),
            ];
            for (name, driver_cells) in cases {
                let campaign = builtin(name, scale).expect("built-in").expand().expect("expands");
                match &campaign.trials {
                    Trials::Grid(cells) => {
                        assert_eq!(cells, &driver_cells, "{name} @ {scale:?}");
                    }
                    _ => panic!("grid campaign expected"),
                }
            }
        }
    }

    #[test]
    fn builtin_lookup() {
        assert!(builtin("fig3a", Scale::Smoke).is_some());
        assert!(builtin("drone-dynamic", Scale::Smoke).is_some());
        assert!(builtin("no-such", Scale::Smoke).is_none());
    }

    #[test]
    fn builtin_round_trips_through_toml() {
        for e in entries() {
            let s = e.scenario(Scale::Bench);
            let back = crate::spec::Scenario::from_toml(&s.to_toml())
                .unwrap_or_else(|err| panic!("{}: {err}", e.name));
            assert_eq!(s, back, "{}", e.name);
        }
    }
}
