//! Behavioural tests of the deterministic fault-injection plane: MSS
//! fail-stop crashes with stable state, wired-plane partitions, handoff
//! storms — and the determinism/accounting contracts SCENARIOS.md
//! documents for them.

use mobidist_net::prelude::*;
use mobidist_net::time::SimTime;

/// Minimal recording protocol (fault hooks included).
#[derive(Debug, Default)]
struct Recorder {
    mss_msgs: Vec<(MssId, Src, String)>,
    crashed: Vec<MssId>,
    recovered: Vec<MssId>,
}

impl Protocol for Recorder {
    type Msg = String;
    type Timer = ();

    fn on_mss_msg(&mut self, _: &mut Ctx<'_, String, ()>, at: MssId, src: Src, msg: String) {
        self.mss_msgs.push((at, src, msg));
    }
    fn on_mh_msg(&mut self, _: &mut Ctx<'_, String, ()>, _: MhId, _: Src, _: String) {}
    fn on_mss_crashed(&mut self, _: &mut Ctx<'_, String, ()>, mss: MssId) {
        self.crashed.push(mss);
    }
    fn on_mss_recovered(&mut self, _: &mut Ctx<'_, String, ()>, mss: MssId) {
        self.recovered.push(mss);
    }
}

fn crash_cfg(m: usize, n: usize, mss: u32, at: u64, down_for: u64) -> NetworkConfig {
    NetworkConfig::new(m, n)
        .with_seed(42)
        .with_fault(FaultConfig::none().with_event(at, FaultKind::MssCrash { mss, down_for }))
}

#[test]
fn crash_defers_wired_traffic_and_recovery_flushes_it() {
    let mut s = Simulation::new(crash_cfg(4, 4, 3, 10, 1_000), Recorder::default());
    s.run_until(SimTime::from_ticks(50));
    assert!(s.kernel().mss_down(MssId(3)), "mss3 is crashed at t=50");
    assert_eq!(s.protocol().crashed, vec![MssId(3)]);
    // Fail-stop with stable state: a wired message to the down MSS is
    // deferred, not lost.
    s.with_ctx(|ctx, _| ctx.send_fixed(MssId(0), MssId(3), "stable".into()));
    s.run_until(SimTime::from_ticks(900));
    assert!(
        s.protocol().mss_msgs.is_empty(),
        "nothing delivered while down"
    );
    s.run_to_quiescence(100_000);
    assert!(!s.kernel().mss_down(MssId(3)));
    assert_eq!(s.protocol().recovered, vec![MssId(3)]);
    assert_eq!(s.protocol().mss_msgs.len(), 1, "flushed after recovery");
    assert_eq!(s.protocol().mss_msgs[0].2, "stable");
    let l = s.ledger();
    assert_eq!(l.custom("fault_crashes"), 1);
    assert_eq!(l.custom("fault_recovers"), 1);
    assert_eq!(l.fixed_msgs, 1, "the deferred send is charged exactly once");
}

#[test]
fn crash_evacuates_residents_and_redirects_joins() {
    // mh1 and mh5 live at mss1 (round-robin placement, m=4 n=8).
    let mut s = Simulation::new(crash_cfg(4, 8, 1, 10, 1_000_000), Recorder::default());
    s.run_until(SimTime::from_ticks(50_000));
    assert!(s.kernel().mss_down(MssId(1)));
    assert_eq!(
        s.kernel().local_mhs(MssId(1)).count(),
        0,
        "residents evacuated"
    );
    for mh in [MhId(1), MhId(5)] {
        let cell = s.kernel().current_cell(mh).expect("re-homed somewhere");
        assert_ne!(cell, MssId(1), "{mh:?} must not re-join the down cell");
    }
    assert!(s.ledger().moves >= 2, "evacuation uses ordinary handoffs");
}

#[test]
fn partition_defers_cross_half_traffic_and_heals_in_fifo_order() {
    let cfg = NetworkConfig::new(4, 4)
        .with_seed(7)
        .with_fault(FaultConfig::none().with_event(
            10,
            FaultKind::Partition {
                cut: 2,
                heal_after: 500,
            },
        ));
    let mut s = Simulation::new(cfg, Recorder::default());
    s.run_until(SimTime::from_ticks(100));
    s.with_ctx(|ctx, _| {
        // Cross-half (0|1 vs 2|3): deferred until the heal.
        for i in 0..5 {
            ctx.send_fixed(MssId(0), MssId(3), format!("x{i}"));
        }
        // Same-half: unaffected.
        ctx.send_fixed(MssId(0), MssId(1), "same-half".into());
    });
    s.run_until(SimTime::from_ticks(400));
    let got: Vec<&str> = s
        .protocol()
        .mss_msgs
        .iter()
        .map(|(_, _, m)| m.as_str())
        .collect();
    assert_eq!(got, vec!["same-half"], "cross-half traffic held back");
    s.run_to_quiescence(100_000);
    let got: Vec<&str> = s
        .protocol()
        .mss_msgs
        .iter()
        .map(|(_, _, m)| m.as_str())
        .collect();
    assert_eq!(
        got,
        vec!["same-half", "x0", "x1", "x2", "x3", "x4"],
        "heal flushes in arrival order"
    );
    let l = s.ledger();
    assert_eq!(l.custom("fault_partitions"), 1);
    assert_eq!(l.custom("fault_heals"), 1);
    assert_eq!(l.fixed_msgs, 6, "deferral never re-charges");
}

#[test]
fn handoff_storm_forces_mass_moves() {
    let cfg = NetworkConfig::new(4, 16)
        .with_seed(5)
        .with_fault(FaultConfig::none().with_event(10, FaultKind::HandoffStorm { count: 6 }));
    let mut s = Simulation::new(cfg, Recorder::default());
    s.run_to_quiescence(1_000_000);
    let l = s.ledger();
    assert_eq!(l.custom("fault_storms"), 1);
    assert!(l.moves >= 6, "at least the stormed hosts complete handoffs");
}

#[test]
fn fault_schedules_replay_bit_identically() {
    // The fault plane draws no scheduling randomness, so the same config
    // replays the same run — including evacuations and flush timing.
    let cfg = NetworkConfig::new(4, 8)
        .with_seed(11)
        .with_mobility(MobilityConfig::moving(200))
        .with_fault(
            FaultConfig::none()
                .with_event(
                    100,
                    FaultKind::MssCrash {
                        mss: 2,
                        down_for: 400,
                    },
                )
                .with_event(
                    700,
                    FaultKind::Partition {
                        cut: 2,
                        heal_after: 300,
                    },
                )
                .with_event(1_500, FaultKind::HandoffStorm { count: 4 }),
        );
    let mut a = Simulation::new(cfg.clone(), Recorder::default());
    let mut b = Simulation::new(cfg, Recorder::default());
    a.run_until(SimTime::from_ticks(5_000));
    b.run_until(SimTime::from_ticks(5_000));
    assert_eq!(a.ledger(), b.ledger(), "same seed+schedule ⇒ identical run");
    assert_eq!(a.protocol().crashed, b.protocol().crashed);
}

#[test]
fn fault_free_configs_are_unchanged_by_the_fault_plane() {
    // FaultConfig::none() must be a perfect no-op: same ledger as a config
    // that never mentions faults (the plane schedules nothing and draws no
    // rng, so pre-fault-plane runs replay identically).
    let base = NetworkConfig::new(4, 8)
        .with_seed(3)
        .with_mobility(MobilityConfig::moving(100));
    let explicit = base.clone().with_fault(FaultConfig::none());
    let mut a = Simulation::new(base, Recorder::default());
    let mut b = Simulation::new(explicit, Recorder::default());
    a.run_until(SimTime::from_ticks(5_000));
    b.run_until(SimTime::from_ticks(5_000));
    assert_eq!(a.ledger(), b.ledger());
}

#[test]
fn zoo_patterns_drive_the_kernel_deterministically() {
    // Each zoo pattern runs the full kernel loop and replays identically;
    // patterns produce different trajectories from the same seed.
    let mut move_counts = Vec::new();
    for pattern in [
        MovePattern::RandomWaypoint { leg: 4 },
        MovePattern::GaussMarkov { memory: 0.8 },
        MovePattern::GroupPlatoon {
            groups: 2,
            p_follow: 0.9,
        },
    ] {
        let cfg = NetworkConfig::new(8, 16)
            .with_seed(17)
            .with_mobility(MobilityConfig::moving(100).with_pattern(pattern));
        let mut a = Simulation::new(cfg.clone(), Recorder::default());
        let mut b = Simulation::new(cfg, Recorder::default());
        a.run_until(SimTime::from_ticks(10_000));
        b.run_until(SimTime::from_ticks(10_000));
        assert_eq!(a.ledger(), b.ledger(), "{pattern:?} must replay");
        assert!(a.ledger().moves > 20, "{pattern:?} generates churn");
        move_counts.push(a.ledger().moves);
    }
}
