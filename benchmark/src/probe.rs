//! Machine-speed probe: the benchmark's own yardstick for how fast the box is
//! *right now*.
//!
//! On a shared sandbox the same repetition takes 0.7 s one minute and 1.0 s
//! the next. Two things drift, independently, in regimes that last from under
//! a second to several minutes: how fast a core retires instructions, and how
//! long a load that misses the private caches takes (neighbours share the
//! last-level cache and the memory). Medians over one run cannot remove a
//! regime that outlasts the run. So every host-time figure of the untraced
//! run is taken between two [`Probe::sample`]s — a serial arithmetic chain and
//! a chain of dependent loads through a table larger than the private caches
//! — and scaled by what those loops read on the quiet reference box over what
//! they read now, the two loops weighing the same. The result reads "seconds
//! at the reference box's quiet speed".
//!
//! The loops are this package's code and touch nothing of the crates being
//! measured, so a change to them cannot move the yardstick. Weighing them
//! per workload was tried: the weight that left the least spread over ten
//! runs of a workload was a different one in the next ten, while equal
//! weights halved the spread on every workload both times (README.md).

use std::hint::black_box;
use std::time::Instant;

/// Table slots: 16 MiB of `u32`, beyond the private caches and inside the
/// shared one, where the contention is.
const SLOTS: usize = 4 << 20;

/// Dependent loads per sample (≈ 15 ms).
const LOADS: u32 = 100_000;

/// Arithmetic steps per sample (≈ 11 ms).
const STEPS: u32 = 6_000_000;

/// What the two loops read on the reference box in a quiet minute.
pub const NOMINAL: Speed = Speed {
    step_ns: 1.87,
    load_ns: 154.0,
};

/// One reading of the machine's speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speed {
    /// Nanoseconds per step of a serial xorshift-and-add chain.
    pub step_ns: f64,
    /// Nanoseconds per dependent load that misses the private caches.
    pub load_ns: f64,
}

/// A random single-cycle permutation and the walker's position in it.
#[derive(Debug)]
pub struct Probe {
    table: Vec<u32>,
    at: usize,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe {
    /// Builds the table: Sattolo's shuffle under a fixed xorshift stream, so
    /// the chain is one cycle through every slot and the same in every run.
    pub fn new() -> Self {
        Self::with_slots(SLOTS)
    }

    fn with_slots(slots: usize) -> Self {
        let mut table: Vec<u32> = (0..slots as u32).collect();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in (1..slots).rev() {
            table.swap(i, (xorshift(&mut x) % i as u64) as usize);
        }
        Probe { table, at: 0 }
    }

    /// Runs both loops (≈ 26 ms); the walker resumes where the last sample
    /// stopped.
    pub fn sample(&mut self) -> Speed {
        let t0 = Instant::now();
        let (mut x, mut sum) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
        for _ in 0..STEPS {
            sum = sum.wrapping_add(xorshift(&mut x));
        }
        black_box(sum);
        let step_ns = t0.elapsed().as_nanos() as f64 / f64::from(STEPS);

        let t0 = Instant::now();
        let mut i = self.at;
        for _ in 0..LOADS {
            i = self.table[i] as usize;
        }
        self.at = black_box(i);
        let load_ns = t0.elapsed().as_nanos() as f64 / f64::from(LOADS);
        Speed { step_ns, load_ns }
    }

    /// Resident size of the table, MiB — taken off the reported peak RSS.
    pub fn table_mib(&self) -> f64 {
        (self.table.len() * std::mem::size_of::<u32>()) as f64 / (1024.0 * 1024.0)
    }
}

/// The factor that turns a duration measured between two probe samples into
/// seconds at nominal machine speed: the inverse of the mean slowdown of the
/// two loops over the two samples.
pub fn correction(before: Speed, after: Speed) -> f64 {
    let step = (before.step_ns + after.step_ns) / NOMINAL.step_ns;
    let load = (before.load_ns + after.load_ns) / NOMINAL.load_ns;
    4.0 / (step + load)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chain_is_one_cycle_through_every_slot() {
        let p = Probe::with_slots(1 << 12);
        let (mut i, mut steps) = (0usize, 0usize);
        loop {
            i = p.table[i] as usize;
            steps += 1;
            if i == 0 {
                break;
            }
        }
        assert_eq!(steps, 1 << 12);
    }

    #[test]
    fn samples_resume_where_the_last_one_stopped() {
        let mut p = Probe::with_slots(1 << 12);
        let s = p.sample();
        assert!(s.step_ns > 0.0 && s.load_ns > 0.0);
        // LOADS is not a multiple of the cycle length, so the walker moved.
        assert_ne!(p.at, 0);
    }

    #[test]
    fn correction_is_the_inverse_of_the_mean_slowdown() {
        let slow = |step: f64, load: f64| Speed {
            step_ns: NOMINAL.step_ns * step,
            load_ns: NOMINAL.load_ns * load,
        };
        assert_eq!(correction(NOMINAL, NOMINAL), 1.0);
        // Both loops twice as slow, before and after: a second is half one.
        assert_eq!(correction(slow(2.0, 2.0), slow(2.0, 2.0)), 0.5);
        // Before and after are averaged, and so are the two loops.
        assert_eq!(correction(slow(1.0, 1.0), slow(3.0, 1.0)), 1.0 / 1.5);
        assert_eq!(correction(slow(1.0, 2.0), slow(1.0, 2.0)), 1.0 / 1.5);
    }
}
