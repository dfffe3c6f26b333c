//! The benchmark's clock, and its measure of how fast the host runs.
//!
//! Two things besides the code move a timing on a shared virtual
//! machine. One is time the process spends off the CPU: the hypervisor
//! giving its vCPU to another tenant (steal), the guest's scheduler, the
//! disk. The other is how fast the CPU runs the process while it is on
//! it, which follows how hard the other tenants of the host press on the
//! shared caches and memory. On a 2-vCPU Xeon virtual machine shared
//! with other tenants, both swung over minutes: the on-CPU time of one simulated
//! year moved between 117 and 165 ms and that of a served request
//! between 0.37 and 0.65 ms from one run to the next, while a loop that
//! stays in the core's own cache moved by less than 5 %.
//!
//! [`Busy`] takes out the first: every timing is read on the process's
//! on-CPU clock. [`sample_ms`] measures the second: a fixed kernel of
//! random reads over a table larger than a last-level cache share, run
//! before every unit of work. Its time moved with the workloads' (2.2 ms
//! when the year took 117 ms, 3.2 ms when it took 165 ms), so every
//! timing of a phase is reported at the host speed where the kernel
//! takes [`NOMINAL_MS`]: multiplied by [`speed_factor`] of the phase's
//! samples. A change to the program does not change the kernel, so it
//! moves the reported figures as much as it moves the measured ones.

use std::ops::Sub;
use std::sync::OnceLock;
use std::time::Duration;

use crate::common::median;

/// A reading of the benchmark's clock: the on-CPU time of this process,
/// all threads, user and kernel, in nanoseconds
/// (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// A Linux kernel built with `PARAVIRT_TIME_ACCOUNTING` leaves steal out
/// of a task's CPU time. The clock also leaves out time blocked on the
/// disk: the serve soak's WAL and snapshot syncs count only for their
/// CPU work.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Busy(u64);

impl Busy {
    pub fn now() -> Busy {
        Busy(process_cpu_ns())
    }

    /// Busy time since `self`.
    pub fn elapsed(self) -> Duration {
        Busy::now() - self
    }
}

impl Sub for Busy {
    type Output = Duration;

    /// Busy time between two readings (zero if `rhs` is later).
    fn sub(self, rhs: Busy) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(rhs.0))
    }
}

#[cfg(target_os = "linux")]
fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux) through the pointer, which points at a
    // live, writable `Timespec` of that layout.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Elsewhere the clock falls back to wall time since first use.
#[cfg(not(target_os = "linux"))]
fn process_cpu_ns() -> u64 {
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    EPOCH
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

/// Entries of the reference table: 16 MiB of `u32`.
const TABLE_ENTRIES: usize = 1 << 22;
/// The table's resident size, MB. It stays resident from the first
/// sample on, which comes before the first unit of work, so the
/// benchmark takes it off the process's peak memory.
pub const TABLE_MB: f64 = (TABLE_ENTRIES * 4) as f64 / (1024.0 * 1024.0);
/// Reads per sample.
const SAMPLE_READS: u64 = 200_000;
/// The sample's on-CPU time at the host speed timings are reported at.
pub const NOMINAL_MS: f64 = 2.5;

/// One sample of the reference kernel: its on-CPU time, ms.
pub fn sample_ms() -> f64 {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        (0..TABLE_ENTRIES as u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect()
    });
    let t0 = Busy::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 1.0f64;
    for _ in 0..SAMPLE_READS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        // The top 22 bits: an index into the whole table.
        let i = (x >> 42) as usize;
        acc = (acc + f64::from(table[i]) * 1e-9).sqrt() + 0.5;
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64() * 1e3
}

/// What a phase's timings are multiplied by: [`NOMINAL_MS`] over the
/// median of its samples (1 without samples).
pub fn speed_factor(samples_ms: &[f64]) -> f64 {
    let m = median(samples_ms);
    if m > 0.0 {
        NOMINAL_MS / m
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sample_is_busy_time() {
        let t0 = Busy::now();
        let ms = sample_ms();
        assert!(ms > 0.0);
        assert!(t0.elapsed().as_secs_f64() * 1e3 >= ms);
    }

    #[test]
    fn speed_factor_scales_to_the_nominal_sample() {
        assert_eq!(speed_factor(&[]), 1.0);
        assert_eq!(speed_factor(&[5.0, 5.0, 100.0]), NOMINAL_MS / 5.0);
    }
}
