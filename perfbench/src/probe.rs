//! Host-speed probe.
//!
//! On a shared virtual machine the speed a process gets drifts by tens of
//! percent over seconds to minutes. The drift is not stolen time: CPU time
//! per request moves with it, so neighbours on the same physical host slow
//! the caches and the core themselves. The benchmark therefore interleaves
//! the load with a fixed piece of work of its own on the same CPU — random
//! read-modify-write updates to a 2 MiB table, the probe that tracked the
//! advise path's speed best among those tried — and reports every
//! end-to-end time scaled to the probe's speed on a reference host.
//! The probe never calls into the program, so a change to the program
//! shows in full while the host's drift cancels.

use std::hint::black_box;
use std::time::Instant;

/// Words in the table (2 MiB).
const TABLE_WORDS: usize = 1 << 18;
/// Timed rounds per probe; the probe reports the median round, so that
/// an interrupt or a preemption inside one round does not move it.
const ROUNDS: usize = 9;
/// Updates per round (about 2.5 ms).
const UPDATES: u64 = 1 << 20;
/// Updates per second on the reference host: the two-vCPU virtual machine
/// the benchmark was built on. A speed of 1 means the host runs the probe
/// as fast as that one did.
pub const REFERENCE_UPDATES_PER_S: f64 = 3.6e8;

/// The probe's table, allocated and touched once.
pub struct Probe {
    table: Vec<u64>,
    seed: u64,
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe {
    pub fn new() -> Self {
        Self {
            table: (0..TABLE_WORDS as u64).collect(),
            seed: 1,
        }
    }

    /// The host's speed now, relative to the reference host: the median
    /// rate of [`ROUNDS`] rounds of [`UPDATES`] updates on the calling
    /// thread.
    pub fn speed(&mut self) -> f64 {
        let mut rates: Vec<f64> = (0..ROUNDS)
            .map(|_| {
                self.seed += 1;
                let started = Instant::now();
                black_box(update(&mut self.table, self.seed, UPDATES));
                UPDATES as f64 / started.elapsed().as_secs_f64()
            })
            .collect();
        rates.sort_by(f64::total_cmp);
        rates[ROUNDS / 2] / REFERENCE_UPDATES_PER_S
    }
}

/// `n` updates at pseudo-random places of `table` (a power-of-two long),
/// each depending on the last, so the loop can neither be skipped nor
/// vectorised; returns a checksum.
fn update(table: &mut [u64], seed: u64, n: u64) -> u64 {
    let mask = table.len() - 1;
    let mut x = seed;
    let mut sum = 0u64;
    for _ in 0..n {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let i = (x >> 40) as usize & mask;
        table[i] = table[i].wrapping_add(x);
        sum = sum.wrapping_add(table[i]);
    }
    sum
}

/// Wall time spent while the host ran at `speed`, as seconds on the
/// reference host: a host twice as fast does the same work in half the
/// wall time, so its seconds count double.
pub fn reference_seconds(wall_s: f64, speed: f64) -> f64 {
    wall_s * speed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn updates_are_deterministic_and_stay_in_the_table() {
        let mut a = vec![0u64; 1 << 10];
        let mut b = vec![0u64; 1 << 10];
        assert_eq!(update(&mut a, 7, 10_000), update(&mut b, 7, 10_000));
        assert_eq!(a, b);
        assert!(a.iter().any(|&w| w != 0));
    }

    #[test]
    fn reference_seconds_cancel_a_uniform_slowdown() {
        // The same work on a host running at 0.8 of the reference speed
        // takes 1 / 0.8 as long, and counts as the same reference time.
        let work_on_reference = 2.0;
        let slow_wall = work_on_reference / 0.8;
        assert!((reference_seconds(slow_wall, 0.8) - work_on_reference).abs() < 1e-12);
        assert_eq!(reference_seconds(3.0, 1.0), 3.0);
    }
}
