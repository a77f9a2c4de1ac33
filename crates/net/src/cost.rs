//! The paper's cost model.
//!
//! Section 2 assigns a cost to each kind of message:
//!
//! * `C_fixed` — point-to-point message between any two fixed hosts,
//! * `C_wireless` — message between an MH and its local MSS (either
//!   direction),
//! * `C_search` — locating an MH and forwarding a message to its current
//!   local MSS (always `>= C_fixed`; worst case the source MSS contacts each
//!   of the other `M - 1` MSSs).
//!
//! Derived costs follow the paper: an MH→MH message costs
//! `2·C_wireless + C_search`; an MSS→non-local-MH message costs
//! `C_search + C_wireless`.
//!
//! Battery consumption is charged separately, at MHs only (fixed hosts are
//! mains-powered): one energy unit per wireless transmission and one per
//! reception, since the paper argues energy use is proportional to their
//! number.

/// Per-message-class cost parameters (`C_fixed`, `C_wireless`, `C_search`).
///
/// The defaults reflect the paper's qualitative assumptions: wireless
/// bandwidth "an order of magnitude lower than wired links" (so a wireless
/// message is an order of magnitude more expensive) and `C_search > C_fixed`.
///
/// # Examples
///
/// ```
/// use mobidist_net::cost::CostModel;
/// let c = CostModel::default();
/// assert!(c.c_search >= c.c_fixed);
/// assert_eq!(c.mh_to_mh(), 2 * c.c_wireless + c.c_search);
/// assert_eq!(c.mss_to_remote_mh(), c.c_search + c.c_wireless);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CostModel {
    /// Cost of a point-to-point message between two fixed hosts.
    pub c_fixed: u64,
    /// Cost of a message over a wireless channel (MH↔local MSS).
    pub c_wireless: u64,
    /// Cost of locating an MH and forwarding a message to its current local
    /// MSS (used by the [`Oracle`](crate::search::SearchPolicy::Oracle)
    /// search policy; the `Flood` policy derives its cost from real control
    /// messages instead).
    pub c_search: u64,
}

impl CostModel {
    /// Creates a cost model after validating the paper's constraint
    /// `c_search >= c_fixed`.
    ///
    /// # Panics
    ///
    /// Panics if `c_search < c_fixed`, which the paper's model rules out.
    pub fn new(c_fixed: u64, c_wireless: u64, c_search: u64) -> Self {
        assert!(
            c_search >= c_fixed,
            "the system model requires C_search >= C_fixed ({c_search} < {c_fixed})"
        );
        CostModel {
            c_fixed,
            c_wireless,
            c_search,
        }
    }

    /// Cost of one MH→MH message: `2·C_wireless + C_search`.
    pub fn mh_to_mh(&self) -> u64 {
        2 * self.c_wireless + self.c_search
    }

    /// Cost of one MSS→non-local-MH message: `C_search + C_wireless`.
    pub fn mss_to_remote_mh(&self) -> u64 {
        self.c_search + self.c_wireless
    }
}

impl Default for CostModel {
    /// `C_fixed = 1`, `C_wireless = 10`, `C_search = 5`.
    fn default() -> Self {
        CostModel {
            c_fixed: 1,
            c_wireless: 10,
            c_search: 5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_respects_model_constraint() {
        let c = CostModel::default();
        assert!(c.c_search >= c.c_fixed);
        assert!(c.c_wireless > c.c_fixed, "wireless should dominate wired");
    }

    #[test]
    fn derived_costs_match_paper() {
        let c = CostModel::new(1, 7, 4);
        assert_eq!(c.mh_to_mh(), 18);
        assert_eq!(c.mss_to_remote_mh(), 11);
    }

    #[test]
    #[should_panic(expected = "C_search >= C_fixed")]
    fn rejects_cheap_search() {
        let _ = CostModel::new(10, 1, 5);
    }
}
