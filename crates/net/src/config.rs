//! Simulation configuration.

use crate::cost::{CostModel, EnergyModel};
use crate::fault::FaultConfig;
use crate::ids::MssId;
use crate::latency::LatencyModel;
use crate::mobility::{DisconnectConfig, MobilityConfig};
use crate::rng::SimRng;
use crate::search::SearchPolicy;

/// Per-channel-class latency distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyConfig {
    /// Wired MSS↔MSS latency.
    pub fixed: LatencyModel,
    /// Wireless MH↔MSS latency.
    pub wireless: LatencyModel,
    /// Latency of an oracle search (locate + forward to the current MSS).
    pub search: LatencyModel,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            fixed: LatencyModel::Fixed(5),
            wireless: LatencyModel::Fixed(2),
            search: LatencyModel::Fixed(12),
        }
    }
}

/// How the kernel dispatches deliveries that share a `(tick, destination)`.
///
/// Not a run-time choice: every run in this repository — experiments,
/// benchmark, examples — uses [`Batched`](DeliveryMode::Batched), the
/// default, and nothing reads an environment variable or flag to pick
/// another. [`Unbatched`](DeliveryMode::Unbatched) is the
/// one-event-per-message *reference* the batched engine is diffed against
/// (`crates/net/tests/delivery_equivalence.rs`,
/// `crates/core/tests/mutex_runs.rs`): both must give identical reports,
/// cost ledgers and logical event counts, and traces with identical per-kind
/// counts. (Within one tick the trace *interleaving* may differ: the batched
/// path emits a run's receive records before the fused callback fires; see
/// DESIGN.md §7.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeliveryMode {
    /// Coalesce same-tick runs to one fixed host into a single batch
    /// callback, and fuse broadcast fan-outs into one shared-payload wheel
    /// event per arrival tick.
    #[default]
    Batched,
    /// One wheel event and one protocol callback per message (test
    /// reference only).
    Unbatched,
}

/// How MHs are placed into cells at simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// MH `i` starts in cell `i mod M`.
    #[default]
    RoundRobin,
    /// Uniformly random initial cell.
    Random,
    /// All MHs packed into the first `cells` cells (localised groups).
    Clustered {
        /// Number of initial cells used.
        cells: usize,
    },
}

impl Placement {
    /// The cell host number `host` of a world of `m` cells starts in. `rng`
    /// is the caller's placement stream, drawn from only by
    /// [`Random`](Self::Random); calling in host order is what makes a
    /// placement reproducible.
    pub(crate) fn initial_cell(self, host: usize, m: usize, rng: &mut SimRng) -> MssId {
        MssId(match self {
            Placement::RoundRobin => (host % m) as u32,
            Placement::Random => rng.below(m as u64) as u32,
            Placement::Clustered { cells } => (host % cells.clamp(1, m)) as u32,
        })
    }
}

/// Complete description of a two-tier network instance.
///
/// The paper's population assumption is `N ≫ M`: many mobile hosts, fewer
/// but more powerful fixed hosts.
///
/// # Examples
///
/// ```
/// use mobidist_net::config::NetworkConfig;
/// let cfg = NetworkConfig::new(8, 64).with_seed(7);
/// assert_eq!(cfg.num_mss, 8);
/// assert_eq!(cfg.num_mh, 64);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Number of mobile support stations, `M`.
    pub num_mss: usize,
    /// Number of mobile hosts, `N`.
    pub num_mh: usize,
    /// The paper's message-cost parameters.
    pub cost: CostModel,
    /// Battery-energy parameters at MHs.
    pub energy: EnergyModel,
    /// Latency distributions per channel class.
    pub latency: LatencyConfig,
    /// How MHs are located (`C_search` abstraction or flooding).
    pub search: SearchPolicy,
    /// Autonomous mobility process.
    pub mobility: MobilityConfig,
    /// Autonomous disconnection process.
    pub disconnect: DisconnectConfig,
    /// Scheduled fault injection (MSS crashes, wired partitions, handoff
    /// storms). Default: no faults.
    pub fault: FaultConfig,
    /// Initial placement of MHs into cells.
    pub placement: Placement,
    /// Delivery dispatch strategy. Always [`DeliveryMode::Batched`] outside
    /// the equivalence tests that diff it against the per-event reference.
    pub delivery: DeliveryMode,
    /// Whether a `join()` carries the id of the previous MSS (required by the
    /// location-view protocol of Section 4; part of the handoff).
    pub supply_prev_on_join: bool,
    /// Root seed; fully determines the run.
    pub seed: u64,
}

impl NetworkConfig {
    /// A configuration with `m` MSSs and `n` MHs and defaults elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `n == 0`.
    pub fn new(m: usize, n: usize) -> Self {
        assert!(m > 0, "at least one MSS is required");
        assert!(n > 0, "at least one MH is required");
        NetworkConfig {
            num_mss: m,
            num_mh: n,
            cost: CostModel::default(),
            energy: EnergyModel::default(),
            latency: LatencyConfig::default(),
            search: SearchPolicy::default(),
            mobility: MobilityConfig::default(),
            disconnect: DisconnectConfig::default(),
            fault: FaultConfig::default(),
            placement: Placement::default(),
            delivery: DeliveryMode::Batched,
            supply_prev_on_join: true,
            seed: 0,
        }
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Replaces the search policy.
    pub fn with_search(mut self, search: SearchPolicy) -> Self {
        self.search = search;
        self
    }

    /// Replaces the mobility process.
    pub fn with_mobility(mut self, mobility: MobilityConfig) -> Self {
        self.mobility = mobility;
        self
    }

    /// Replaces the disconnection process.
    pub fn with_disconnect(mut self, disconnect: DisconnectConfig) -> Self {
        self.disconnect = disconnect;
        self
    }

    /// Replaces the fault-injection schedule.
    pub fn with_fault(mut self, fault: FaultConfig) -> Self {
        self.fault = fault;
        self
    }

    /// Replaces the initial placement.
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Replaces the latency configuration.
    pub fn with_latency(mut self, latency: LatencyConfig) -> Self {
        self.latency = latency;
        self
    }

    /// Replaces the delivery mode — for equivalence tests that run the
    /// per-event reference; production code never calls this.
    pub fn with_delivery(mut self, delivery: DeliveryMode) -> Self {
        self.delivery = delivery;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let cfg = NetworkConfig::new(4, 10)
            .with_seed(9)
            .with_search(SearchPolicy::Flood)
            .with_placement(Placement::Clustered { cells: 2 });
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.search, SearchPolicy::Flood);
        assert_eq!(cfg.placement, Placement::Clustered { cells: 2 });
        assert!(cfg.supply_prev_on_join);
    }

    #[test]
    #[should_panic(expected = "at least one MSS")]
    fn rejects_zero_mss() {
        let _ = NetworkConfig::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one MH")]
    fn rejects_zero_mh() {
        let _ = NetworkConfig::new(1, 0);
    }

    #[test]
    fn defaults_are_static_network() {
        let cfg = NetworkConfig::new(2, 2);
        assert!(!cfg.mobility.enabled);
        assert!(!cfg.disconnect.enabled);
        assert!(cfg.fault.is_empty());
        assert_eq!(cfg.placement, Placement::RoundRobin);
    }
}
