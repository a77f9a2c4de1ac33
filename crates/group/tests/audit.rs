//! The group harness's delivery audit, pinned field by field against a
//! scripted strategy whose deliveries are known in advance.

use mobidist_group::prelude::*;
use mobidist_net::prelude::*;

/// Delivers, on the `k`-th group send, exactly the `(member, msg_id)` pairs
/// of `script[k]` — no network traffic, so every receipt is the script's.
#[derive(Debug)]
struct Scripted {
    script: Vec<Vec<(u32, u64)>>,
}

impl LocationStrategy for Scripted {
    type Msg = ();
    type Timer = ();

    fn name(&self) -> &'static str {
        "scripted"
    }

    fn send_group_message(&mut self, ctx: &mut GroupCtx<'_, '_, (), ()>, _: MhId, msg_id: u64) {
        for &(to, id) in &self.script[msg_id as usize] {
            ctx.deliver(MhId(to), id);
        }
    }

    fn on_mss_msg(&mut self, _: &mut GroupCtx<'_, '_, (), ()>, _: MssId, _: Src, _: ()) {}

    fn on_mh_msg(&mut self, _: &mut GroupCtx<'_, '_, (), ()>, _: MhId, _: Src, _: ()) {}
}

#[test]
fn report_counts_each_delivery_once_by_kind() {
    // Members mh0..mh3 of five hosts, static. Senders go round-robin, so
    // message 0 comes from mh0 (expects mh1..mh3) and message 1 from mh1
    // (expects mh0, mh2, mh3).
    let script = vec![
        // mh1 twice (one duplicate), mh2 once, mh3 never (a miss), and the
        // non-member mh4 twice (both unexpected).
        vec![(1, 0), (1, 0), (2, 0), (4, 0), (4, 0)],
        // Every expected member, mh3 twice; the sender mh1 is not expected,
        // nor is anyone a receipt of message 7, which was never sent.
        vec![(0, 1), (2, 1), (3, 1), (3, 1), (1, 1), (2, 7)],
    ];
    let wl = GroupWorkload::new((0..4).map(MhId).collect(), 2, 10);
    let cfg = NetworkConfig::new(2, 5).with_seed(1);
    let mut sim = Simulation::new(cfg, GroupHarness::new(Scripted { script }, wl));
    sim.run_until(SimTime::from_ticks(100_000));
    let h = sim.protocol();
    assert_eq!(
        h.report(),
        GroupReport {
            sent: 2,
            member_moves: 0,
            expected: 6,
            delivered: 5,
            missed: 1,
            duplicates: 2,
            unexpected: 4,
        }
    );
    // First receipts of sent messages, expected or not, in arrival order;
    // mh2's receipt of the never-sent message 7 is counted `unexpected`
    // above and is kept out of its sequence.
    let seqs: Vec<(MhId, Vec<u64>)> = h
        .delivery_sequences()
        .iter()
        .map(|(mh, s)| (mh, s.clone()))
        .collect();
    let want = [
        (0, vec![1]),
        (1, vec![0, 1]),
        (2, vec![0, 1]),
        (3, vec![1]),
        (4, vec![0]),
    ];
    assert_eq!(seqs, want.map(|(mh, s)| (MhId(mh), s)));
}
