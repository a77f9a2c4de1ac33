//! The shared workload driver and invariant harness.
//!
//! [`MutexHarness`] wraps any [`MutexAlgorithm`] in a closed-loop workload:
//! each participating MH thinks, requests the critical section, holds it,
//! releases, and repeats — with optional doze mode while idle. The harness
//! records every episode in a [`SafetyChecker`] and produces a
//! [`MutexReport`] for experiments.

use crate::algorithm::{AlgoCtx, Effect, HarnessTimer, MutexAlgorithm};
use crate::checker::SafetyChecker;
use mobidist_net::host::MhStatus;
use mobidist_net::ids::{IdMap, MhId, MssId};
use mobidist_net::obs::TraceEvent;
use mobidist_net::proto::{Ctx, Protocol, Src};
use mobidist_net::time::SimTime;

/// Closed-loop workload parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// The MHs that issue critical-section requests.
    pub requesters: Vec<MhId>,
    /// Requests each requester issues before stopping.
    pub requests_per_mh: usize,
    /// Mean think time between a release and the next request.
    pub mean_think: u64,
    /// Mean critical-section hold time.
    pub mean_hold: u64,
    /// Per-requester mean hold times for mixed-CS-length (fairness)
    /// workloads: requester `i` uses `hold_profile[i % len]`. Empty means
    /// every requester uses `mean_hold`.
    pub hold_profile: Vec<u64>,
    /// Whether idle MHs (and non-requesters) enter doze mode.
    pub doze_when_idle: bool,
}

impl mobidist_net::fingerprint::CanonHash for WorkloadConfig {
    fn canon_hash(&self, h: &mut mobidist_net::fingerprint::CanonHasher) {
        // Destructured so a new workload knob cannot silently escape the
        // fingerprint (the benchmark's run-store micro-driver keys on it).
        let WorkloadConfig {
            requesters,
            requests_per_mh,
            mean_think,
            mean_hold,
            hold_profile,
            doze_when_idle,
        } = self;
        requesters.canon_hash(h);
        requests_per_mh.canon_hash(h);
        mean_think.canon_hash(h);
        mean_hold.canon_hash(h);
        hold_profile.canon_hash(h);
        doze_when_idle.canon_hash(h);
    }
}

impl WorkloadConfig {
    /// Every one of `n` MHs issues `requests_per_mh` requests.
    pub fn all_mhs(n: usize, requests_per_mh: usize) -> Self {
        WorkloadConfig {
            requesters: (0..n as u32).map(MhId).collect(),
            requests_per_mh,
            mean_think: 50,
            mean_hold: 10,
            hold_profile: Vec::new(),
            doze_when_idle: false,
        }
    }

    /// Only the given MHs request; the rest stay passive.
    pub fn only(requesters: Vec<MhId>, requests_per_mh: usize) -> Self {
        WorkloadConfig {
            requesters,
            requests_per_mh,
            mean_think: 50,
            mean_hold: 10,
            hold_profile: Vec::new(),
            doze_when_idle: false,
        }
    }

    /// Sets think time.
    pub fn with_think(mut self, mean_think: u64) -> Self {
        self.mean_think = mean_think;
        self
    }

    /// Sets hold time.
    pub fn with_hold(mut self, mean_hold: u64) -> Self {
        self.mean_hold = mean_hold;
        self
    }

    /// Sets a mixed-CS-length profile: requester `i` holds for a mean of
    /// `profile[i % profile.len()]` ticks (empty restores the uniform
    /// `mean_hold`).
    pub fn with_hold_profile(mut self, profile: Vec<u64>) -> Self {
        self.hold_profile = profile;
        self
    }

    /// Enables doze mode while idle.
    pub fn with_doze(mut self) -> Self {
        self.doze_when_idle = true;
        self
    }

    /// Mean hold time of requester index `i` under the profile.
    pub fn hold_mean_of(&self, i: usize) -> u64 {
        if self.hold_profile.is_empty() {
            self.mean_hold
        } else {
            self.hold_profile[i % self.hold_profile.len()]
        }
    }
}

/// Per-requester workload state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReqState {
    /// Waiting for the think timer; `left` requests remain.
    Idle { left: usize },
    /// Request issued at `since`, awaiting grant; `left` counts this one.
    Waiting { since: SimTime, left: usize },
    /// Inside the critical section.
    InCs { left: usize },
    /// All requests done (or aborted out).
    Done,
}

/// Final liveness/throughput summary of one harness run.
#[derive(Debug, Clone, PartialEq)]
pub struct MutexReport {
    /// Requests handed to the algorithm.
    pub issued: u64,
    /// Requests granted and released.
    pub completed: u64,
    /// Requests explicitly aborted by the algorithm.
    pub aborted: u64,
    /// Requests still outstanding when the run ended (stalls).
    pub outstanding: u64,
    /// Mutual-exclusion violations (must be 0).
    pub safety_violations: u64,
    /// Ordering-key violations (must be 0).
    pub order_violations: u64,
    /// Mean request→grant latency in ticks.
    pub mean_wait: f64,
    /// 95th-percentile request→grant latency in ticks.
    pub p95_wait: u64,
}

impl MutexReport {
    /// True when every issued request completed or aborted and no invariant
    /// broke.
    pub fn is_clean_and_live(&self) -> bool {
        self.safety_violations == 0 && self.order_violations == 0 && self.outstanding == 0
    }
}

/// Workload + invariant harness around a [`MutexAlgorithm`].
#[derive(Debug)]
pub struct MutexHarness<A: MutexAlgorithm> {
    algo: A,
    wl: WorkloadConfig,
    /// Per-MH mean hold overrides from the workload's `hold_profile`
    /// (empty for uniform workloads).
    hold_of: IdMap<MhId, u64>,
    states: IdMap<MhId, ReqState>,
    checker: SafetyChecker,
    effects: Vec<Effect>,
    issued: u64,
    completed: u64,
    aborted: u64,
}

impl<A: MutexAlgorithm> MutexHarness<A> {
    /// Wraps `algo` under the workload `wl`.
    pub fn new(algo: A, wl: WorkloadConfig) -> Self {
        let states = wl
            .requesters
            .iter()
            .map(|mh| {
                (
                    *mh,
                    if wl.requests_per_mh > 0 {
                        ReqState::Idle {
                            left: wl.requests_per_mh,
                        }
                    } else {
                        ReqState::Done
                    },
                )
            })
            .collect();
        let hold_of = if wl.hold_profile.is_empty() {
            IdMap::new()
        } else {
            wl.requesters
                .iter()
                .enumerate()
                .map(|(i, mh)| (*mh, wl.hold_mean_of(i)))
                .collect()
        };
        // Every completed request is one episode. The log is reserved at its
        // worst case, 45 B per entry, so it never regrows mid-run; it packs
        // about 6–10 B per entry, and the pages it never touches are never
        // resident.
        let episodes = wl
            .requesters
            .len()
            .saturating_mul(wl.requests_per_mh)
            .min(1 << 20);
        MutexHarness {
            algo,
            wl,
            hold_of,
            states,
            checker: SafetyChecker::with_capacity(episodes),
            effects: Vec::new(),
            issued: 0,
            completed: 0,
            aborted: 0,
        }
    }

    /// The wrapped algorithm.
    pub fn algorithm(&self) -> &A {
        &self.algo
    }

    /// The invariant checker.
    pub fn checker(&self) -> &SafetyChecker {
        &self.checker
    }

    /// Requests completed so far (granted and released) — the count a
    /// run loop polls; [`report`](Self::report) walks every episode to get
    /// its percentile.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Builds the final report.
    pub fn report(&self) -> MutexReport {
        let outstanding = self
            .states
            .values()
            .filter(|s| matches!(s, ReqState::Waiting { .. } | ReqState::InCs { .. }))
            .count() as u64;
        MutexReport {
            issued: self.issued,
            completed: self.completed,
            aborted: self.aborted,
            outstanding,
            safety_violations: self.checker.safety_violations(),
            order_violations: self.checker.order_violations(),
            mean_wait: self.checker.mean_wait(),
            p95_wait: self.checker.wait_percentile(0.95),
        }
    }

    fn schedule_think(ctx: &mut Ctx<'_, A::Msg, HarnessTimer<A::Timer>>, mean: u64, mh: MhId) {
        let d = ctx.rng().exp_delay(mean.max(1));
        ctx.set_timer(d, HarnessTimer::Think(mh));
    }

    fn apply_effects(&mut self, ctx: &mut Ctx<'_, A::Msg, HarnessTimer<A::Timer>>) {
        // Drain and hand the buffer back: consuming the `Vec` would free it,
        // and the next grant would have to allocate it again.
        let mut effects = std::mem::take(&mut self.effects);
        for e in effects.drain(..) {
            match e {
                Effect::Granted { mh, key } => {
                    let Some(st) = self.states.get_mut(&mh) else {
                        continue;
                    };
                    let ReqState::Waiting { since, left } = *st else {
                        // Spurious or duplicate grant: flag as a safety
                        // problem by counting it as an unmatched entry.
                        self.checker.enter(mh, ctx.now(), ctx.now(), key);
                        self.checker.exit(mh, ctx.now());
                        continue;
                    };
                    *st = ReqState::InCs { left };
                    self.checker.enter(mh, since, ctx.now(), key);
                    ctx.emit(TraceEvent::CsEnter { mh });
                    let mean = self.hold_of.get(&mh).copied().unwrap_or(self.wl.mean_hold);
                    let d = ctx.rng().exp_delay(mean.max(1));
                    ctx.set_timer(d, HarnessTimer::Hold(mh));
                }
                Effect::Aborted { mh } => {
                    if let Some(st) = self.states.get_mut(&mh) {
                        if let ReqState::Waiting { left, .. } = *st {
                            self.aborted += 1;
                            let left = left.saturating_sub(1);
                            *st = if left == 0 {
                                ReqState::Done
                            } else {
                                ReqState::Idle { left }
                            };
                            if left > 0 {
                                Self::schedule_think(ctx, self.wl.mean_think, mh);
                            }
                        }
                    }
                }
            }
        }
        self.effects = effects;
    }

    /// Runs an algorithm callback and applies resulting effects.
    fn with_algo(
        &mut self,
        ctx: &mut Ctx<'_, A::Msg, HarnessTimer<A::Timer>>,
        f: impl FnOnce(&mut A, &mut AlgoCtx<'_, '_, A::Msg, A::Timer>),
    ) {
        {
            let mut actx = AlgoCtx::new(ctx, &mut self.effects);
            f(&mut self.algo, &mut actx);
        }
        self.apply_effects(ctx);
    }
}

impl<A: MutexAlgorithm> Protocol for MutexHarness<A> {
    type Msg = A::Msg;
    type Timer = HarnessTimer<A::Timer>;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>) {
        self.with_algo(ctx, |a, actx| a.on_start(actx));
        // Doze every passive MH from the outset; requesters doze between
        // episodes.
        if self.wl.doze_when_idle {
            let all: Vec<MhId> = ctx.mh_ids().collect();
            for mh in all {
                ctx.set_doze(mh, true);
            }
        }
        let mean = self.wl.mean_think;
        for mh in self.wl.requesters.clone() {
            if self.wl.requests_per_mh > 0 {
                Self::schedule_think(ctx, mean, mh);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>, timer: Self::Timer) {
        match timer {
            HarnessTimer::Algo(t) => self.with_algo(ctx, |a, actx| a.on_timer(actx, t)),
            HarnessTimer::Think(mh) => {
                let Some(st) = self.states.get_mut(&mh) else {
                    return;
                };
                let ReqState::Idle { left } = *st else {
                    return;
                };
                if ctx.mh_status(mh) != MhStatus::Connected {
                    // Can't transmit a request right now; try again shortly.
                    Self::schedule_think(ctx, self.wl.mean_think, mh);
                    return;
                }
                *st = ReqState::Waiting {
                    since: ctx.now(),
                    left,
                };
                self.issued += 1;
                ctx.emit(TraceEvent::CsRequest { mh });
                if self.wl.doze_when_idle {
                    ctx.set_doze(mh, false);
                }
                self.with_algo(ctx, |a, actx| a.request(actx, mh));
            }
            HarnessTimer::Hold(mh) => {
                let Some(st) = self.states.get_mut(&mh) else {
                    return;
                };
                let ReqState::InCs { left } = *st else {
                    return;
                };
                self.checker.exit(mh, ctx.now());
                self.completed += 1;
                ctx.emit(TraceEvent::CsExit { mh });
                let left = left.saturating_sub(1);
                *st = if left == 0 {
                    ReqState::Done
                } else {
                    ReqState::Idle { left }
                };
                self.with_algo(ctx, |a, actx| a.release(actx, mh));
                if left > 0 {
                    Self::schedule_think(ctx, self.wl.mean_think, mh);
                } else if self.wl.doze_when_idle {
                    ctx.set_doze(mh, true);
                }
            }
        }
    }

    fn on_mss_msg(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        at: MssId,
        src: Src,
        msg: Self::Msg,
    ) {
        self.with_algo(ctx, |a, actx| a.on_mss_msg(actx, at, src, msg));
    }

    fn on_mh_msg(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        at: MhId,
        src: Src,
        msg: Self::Msg,
    ) {
        self.with_algo(ctx, |a, actx| a.on_mh_msg(actx, at, src, msg));
    }

    fn on_mh_joined(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        mh: MhId,
        mss: MssId,
        prev: Option<MssId>,
    ) {
        self.with_algo(ctx, |a, actx| a.on_mh_joined(actx, mh, mss, prev));
    }

    fn on_mh_disconnected(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        mh: MhId,
        mss: MssId,
    ) {
        self.with_algo(ctx, |a, actx| a.on_mh_disconnected(actx, mh, mss));
    }

    fn on_mh_reconnected(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        mh: MhId,
        mss: MssId,
        _prev: Option<MssId>,
    ) {
        self.with_algo(ctx, |a, actx| a.on_mh_reconnected(actx, mh, mss));
    }

    fn on_search_failed(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        origin: MssId,
        target: MhId,
        msg: Self::Msg,
    ) {
        self.with_algo(ctx, |a, actx| a.on_search_failed(actx, origin, target, msg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_builders() {
        let wl = WorkloadConfig::all_mhs(4, 2)
            .with_think(9)
            .with_hold(3)
            .with_doze();
        assert_eq!(wl.requesters.len(), 4);
        assert_eq!((wl.requests_per_mh, wl.mean_think, wl.mean_hold), (2, 9, 3));
        assert!(wl.doze_when_idle);
        let only = WorkloadConfig::only(vec![MhId(7)], 1);
        assert_eq!(only.requesters, vec![MhId(7)]);
    }

    #[test]
    fn report_cleanliness() {
        let clean = MutexReport {
            issued: 3,
            completed: 2,
            aborted: 1,
            outstanding: 0,
            safety_violations: 0,
            order_violations: 0,
            mean_wait: 1.0,
            p95_wait: 2,
        };
        assert!(clean.is_clean_and_live());
        let stalled = MutexReport {
            outstanding: 1,
            ..clean.clone()
        };
        assert!(!stalled.is_clean_and_live());
        let unsafe_run = MutexReport {
            safety_violations: 1,
            ..clean
        };
        assert!(!unsafe_run.is_clean_and_live());
    }
}
