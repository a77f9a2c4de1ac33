//! Cost and energy accounting.
//!
//! Every kernel operation charges the [`CostLedger`]: message counts per
//! channel class, abstract cost units per the paper's
//! [`CostModel`] abstraction, per-MH battery energy, and the
//! event counters the paper's arguments turn on (searches, re-searches after
//! a move, doze interruptions, handoffs). Experiments measure an algorithm by
//! snapshotting the ledger before and after and taking [`CostLedger::delta`].

use crate::cost::CostModel;
use crate::ids::MhId;
use std::collections::BTreeMap;
use std::fmt;

/// Accumulated message, cost and energy counters.
///
/// # Examples
///
/// ```
/// use mobidist_net::ledger::CostLedger;
/// use mobidist_net::cost::CostModel;
/// use mobidist_net::ids::MhId;
///
/// let mut l = CostLedger::new(4);
/// let c = CostModel::default();
/// l.charge_fixed(&c);
/// l.charge_wireless_tx(&c, MhId(0), 1);
/// assert_eq!(l.fixed_msgs, 1);
/// assert_eq!(l.wireless_msgs, 1);
/// assert_eq!(l.total_cost(), c.c_fixed + c.c_wireless);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CostLedger {
    /// Messages sent on the fixed (wired) network.
    pub fixed_msgs: u64,
    /// Messages sent on wireless channels (either direction).
    pub wireless_msgs: u64,
    /// Searches performed (initial locate-and-forward operations).
    pub searches: u64,
    /// Additional searches caused by the target moving while a message was in
    /// flight (the "eventual delivery regardless of moves" guarantee).
    pub re_searches: u64,
    /// Searches that terminated at a disconnected MH (the local MSS of the
    /// disconnection cell informed the searcher).
    pub search_failures: u64,
    /// Cost units accumulated on the fixed network (`n · C_fixed`).
    pub fixed_cost: u64,
    /// Cost units accumulated on wireless channels (`n · C_wireless`).
    pub wireless_cost: u64,
    /// Cost units accumulated by searches (`n · C_search` for the oracle
    /// policy; real control-message cost for flooding).
    pub search_cost: u64,
    /// Wireless transmissions per MH (battery-relevant).
    pub mh_tx: Vec<u64>,
    /// Wireless receptions per MH (battery-relevant).
    pub mh_rx: Vec<u64>,
    /// Energy units consumed per MH.
    pub mh_energy: Vec<u64>,
    /// Deliveries that interrupted an MH in doze mode.
    pub doze_interruptions: u64,
    /// Cell switches completed (join after leave).
    pub moves: u64,
    /// Handoff state transfers between MSSs.
    pub handoffs: u64,
    /// Voluntary disconnections.
    pub disconnects: u64,
    /// Reconnections.
    pub reconnects: u64,
    /// Messages lost on a wireless downlink because the MH left the cell
    /// (delivered sequence is a prefix of the sent sequence).
    pub wireless_losses: u64,
    /// Protocol-defined named counters (e.g. `"location_updates"`).
    pub custom: BTreeMap<String, u64>,
}

impl CostLedger {
    /// Creates a ledger for a population of `num_mh` mobile hosts.
    pub fn new(num_mh: usize) -> Self {
        CostLedger {
            mh_tx: vec![0; num_mh],
            mh_rx: vec![0; num_mh],
            mh_energy: vec![0; num_mh],
            ..CostLedger::default()
        }
    }

    /// Total abstract cost units across all channel classes.
    pub fn total_cost(&self) -> u64 {
        self.fixed_cost + self.wireless_cost + self.search_cost
    }

    /// Total energy consumed across all MHs.
    pub fn total_energy(&self) -> u64 {
        self.mh_energy.iter().sum()
    }

    /// Charges one fixed-network message.
    pub fn charge_fixed(&mut self, cost: &CostModel) {
        self.fixed_msgs += 1;
        self.fixed_cost += cost.c_fixed;
    }

    /// Charges `n` fixed-network messages at once (e.g. a flood).
    pub fn charge_fixed_n(&mut self, cost: &CostModel, n: u64) {
        self.fixed_msgs += n;
        self.fixed_cost += n * cost.c_fixed;
    }

    /// Charges a wireless uplink transmission at `mh` with `tx_energy` units.
    pub fn charge_wireless_tx(&mut self, cost: &CostModel, mh: MhId, tx_energy: u64) {
        self.wireless_msgs += 1;
        self.wireless_cost += cost.c_wireless;
        self.mh_tx[mh.index()] += 1;
        self.mh_energy[mh.index()] += tx_energy;
    }

    /// Charges a wireless downlink reception at `mh` with `rx_energy` units.
    pub fn charge_wireless_rx(&mut self, cost: &CostModel, mh: MhId, rx_energy: u64) {
        self.wireless_msgs += 1;
        self.wireless_cost += cost.c_wireless;
        self.mh_rx[mh.index()] += 1;
        self.mh_energy[mh.index()] += rx_energy;
    }

    /// Charges one abstract search (oracle policy).
    pub fn charge_search_abstract(&mut self, cost: &CostModel, re_search: bool) {
        self.searches += 1;
        if re_search {
            self.re_searches += 1;
        }
        self.search_cost += cost.c_search;
    }

    /// Charges a flooding search realised as `msgs` fixed-network control
    /// messages.
    pub fn charge_search_flood(&mut self, cost: &CostModel, msgs: u64, re_search: bool) {
        self.searches += 1;
        if re_search {
            self.re_searches += 1;
        }
        self.search_cost += msgs * cost.c_fixed;
    }

    /// Increments a protocol-defined named counter.
    pub fn bump(&mut self, name: &str) {
        self.bump_by(name, 1);
    }

    /// Adds `by` to a protocol-defined named counter.
    pub fn bump_by(&mut self, name: &str, by: u64) {
        // get_mut-then-insert rather than `entry(name.to_owned())`: the hit
        // path (every bump after the first) must not allocate a String.
        if let Some(v) = self.custom.get_mut(name) {
            *v += by;
        } else {
            self.custom.insert(name.to_owned(), by);
        }
    }

    /// Reads a protocol-defined named counter (0 when never bumped).
    pub fn custom(&self, name: &str) -> u64 {
        self.custom.get(name).copied().unwrap_or(0)
    }

    /// Adds every counter of `other` into `self` (per-shard ledgers of a
    /// space-sharded run merge into the global ledger this way; all counters
    /// are commutative sums, so the merge order never matters).
    ///
    /// Destructures `self` so adding a ledger field without updating the
    /// merge is a compile error.
    pub fn merge(&mut self, other: &CostLedger) {
        let CostLedger {
            fixed_msgs,
            wireless_msgs,
            searches,
            re_searches,
            search_failures,
            fixed_cost,
            wireless_cost,
            search_cost,
            mh_tx,
            mh_rx,
            mh_energy,
            doze_interruptions,
            moves,
            handoffs,
            disconnects,
            reconnects,
            wireless_losses,
            custom,
        } = self;
        *fixed_msgs += other.fixed_msgs;
        *wireless_msgs += other.wireless_msgs;
        *searches += other.searches;
        *re_searches += other.re_searches;
        *search_failures += other.search_failures;
        *fixed_cost += other.fixed_cost;
        *wireless_cost += other.wireless_cost;
        *search_cost += other.search_cost;
        let mv = |dst: &mut Vec<u64>, src: &[u64]| {
            if dst.len() < src.len() {
                dst.resize(src.len(), 0);
            }
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        };
        mv(mh_tx, &other.mh_tx);
        mv(mh_rx, &other.mh_rx);
        mv(mh_energy, &other.mh_energy);
        *doze_interruptions += other.doze_interruptions;
        *moves += other.moves;
        *handoffs += other.handoffs;
        *disconnects += other.disconnects;
        *reconnects += other.reconnects;
        *wireless_losses += other.wireless_losses;
        for (k, v) in &other.custom {
            if let Some(c) = custom.get_mut(k) {
                *c += v;
            } else {
                custom.insert(k.clone(), *v);
            }
        }
    }

    /// Counter difference `self - earlier`, for measuring one phase of an
    /// experiment.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is not an earlier snapshot of the
    /// same ledger (any counter would go negative).
    pub fn delta(&self, earlier: &CostLedger) -> CostLedger {
        fn d(a: u64, b: u64) -> u64 {
            debug_assert!(a >= b, "ledger delta would be negative ({a} < {b})");
            a - b
        }
        let dv = |a: &[u64], b: &[u64]| -> Vec<u64> {
            a.iter()
                .zip(b.iter().chain(std::iter::repeat(&0)))
                .map(|(x, y)| d(*x, *y))
                .collect()
        };
        let mut custom = BTreeMap::new();
        for (k, v) in &self.custom {
            let prev = earlier.custom.get(k).copied().unwrap_or(0);
            custom.insert(k.clone(), d(*v, prev));
        }
        CostLedger {
            fixed_msgs: d(self.fixed_msgs, earlier.fixed_msgs),
            wireless_msgs: d(self.wireless_msgs, earlier.wireless_msgs),
            searches: d(self.searches, earlier.searches),
            re_searches: d(self.re_searches, earlier.re_searches),
            search_failures: d(self.search_failures, earlier.search_failures),
            fixed_cost: d(self.fixed_cost, earlier.fixed_cost),
            wireless_cost: d(self.wireless_cost, earlier.wireless_cost),
            search_cost: d(self.search_cost, earlier.search_cost),
            mh_tx: dv(&self.mh_tx, &earlier.mh_tx),
            mh_rx: dv(&self.mh_rx, &earlier.mh_rx),
            mh_energy: dv(&self.mh_energy, &earlier.mh_energy),
            doze_interruptions: d(self.doze_interruptions, earlier.doze_interruptions),
            moves: d(self.moves, earlier.moves),
            handoffs: d(self.handoffs, earlier.handoffs),
            disconnects: d(self.disconnects, earlier.disconnects),
            reconnects: d(self.reconnects, earlier.reconnects),
            wireless_losses: d(self.wireless_losses, earlier.wireless_losses),
            custom,
        }
    }
}

impl fmt::Display for CostLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fixed={} wireless={} searches={} (re={}, failed={})",
            self.fixed_msgs,
            self.wireless_msgs,
            self.searches,
            self.re_searches,
            self.search_failures
        )?;
        writeln!(
            f,
            "cost: fixed={} wireless={} search={} total={}",
            self.fixed_cost,
            self.wireless_cost,
            self.search_cost,
            self.total_cost()
        )?;
        write!(
            f,
            "energy={} doze_intr={} moves={} handoffs={} disc={} reconn={} losses={}",
            self.total_energy(),
            self.doze_interruptions,
            self.moves,
            self.handoffs,
            self.disconnects,
            self.reconnects,
            self.wireless_losses
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::new(1, 10, 5)
    }

    #[test]
    fn charges_accumulate() {
        let mut l = CostLedger::new(2);
        let c = model();
        l.charge_fixed(&c);
        l.charge_fixed_n(&c, 3);
        l.charge_wireless_tx(&c, MhId(0), 2);
        l.charge_wireless_rx(&c, MhId(1), 3);
        l.charge_search_abstract(&c, false);
        l.charge_search_abstract(&c, true);
        assert_eq!(l.fixed_msgs, 4);
        assert_eq!(l.fixed_cost, 4);
        assert_eq!(l.wireless_msgs, 2);
        assert_eq!(l.wireless_cost, 20);
        assert_eq!(l.searches, 2);
        assert_eq!(l.re_searches, 1);
        assert_eq!(l.search_cost, 10);
        assert_eq!(l.total_cost(), 34);
        assert_eq!(l.mh_tx[0], 1);
        assert_eq!(l.mh_rx[1], 1);
        assert_eq!(l.mh_energy, vec![2, 3]);
        assert_eq!(l.total_energy(), 5);
    }

    #[test]
    fn flood_search_costs_fixed_messages() {
        let mut l = CostLedger::new(1);
        let c = model();
        l.charge_search_flood(&c, 9, false);
        assert_eq!(l.searches, 1);
        assert_eq!(l.search_cost, 9 * c.c_fixed);
    }

    #[test]
    fn delta_subtracts_counters() {
        let c = model();
        let mut l = CostLedger::new(2);
        l.charge_fixed(&c);
        let snap = l.clone();
        l.charge_fixed(&c);
        l.charge_wireless_tx(&c, MhId(1), 1);
        l.bump("updates");
        let d = l.delta(&snap);
        assert_eq!(d.fixed_msgs, 1);
        assert_eq!(d.wireless_msgs, 1);
        assert_eq!(d.mh_tx, vec![0, 1]);
        assert_eq!(d.custom("updates"), 1);
        assert_eq!(d.custom("never"), 0);
    }

    #[test]
    fn custom_counters() {
        let mut l = CostLedger::new(0);
        l.bump("x");
        l.bump_by("x", 4);
        assert_eq!(l.custom("x"), 5);
        assert_eq!(l.custom("y"), 0);
    }

    #[test]
    fn merge_sums_counters() {
        let c = model();
        let mut a = CostLedger::new(2);
        a.charge_fixed(&c);
        a.charge_wireless_tx(&c, MhId(0), 2);
        a.bump("x");
        let mut b = CostLedger::new(2);
        b.charge_fixed_n(&c, 2);
        b.charge_wireless_rx(&c, MhId(1), 3);
        b.bump_by("x", 4);
        b.bump("y");
        b.moves += 5;
        a.merge(&b);
        assert_eq!(a.fixed_msgs, 3);
        assert_eq!(a.wireless_msgs, 2);
        assert_eq!(a.mh_tx, vec![1, 0]);
        assert_eq!(a.mh_rx, vec![0, 1]);
        assert_eq!(a.mh_energy, vec![2, 3]);
        assert_eq!(a.custom("x"), 5);
        assert_eq!(a.custom("y"), 1);
        assert_eq!(a.moves, 5);
    }

    #[test]
    fn merge_grows_per_mh_vectors() {
        let c = model();
        let mut a = CostLedger::new(1);
        let mut b = CostLedger::new(3);
        b.charge_wireless_tx(&c, MhId(2), 7);
        a.merge(&b);
        assert_eq!(a.mh_tx, vec![0, 0, 1]);
        assert_eq!(a.mh_energy, vec![0, 0, 7]);
    }

    #[test]
    fn display_is_nonempty() {
        let l = CostLedger::new(1);
        assert!(!l.to_string().is_empty());
    }
}
