//! Pieces every workload shares: the measured loop's budget, the
//! per-phase result, sample statistics, process memory, and the input
//! digest.

use std::collections::BTreeMap;
use std::time::Instant;

/// How long one phase measures, and the fewest units it completes.
///
/// The unit floor fixes how many samples the slow-tail percentile and
/// the objective are taken over, so neither changes definition with the
/// machine's speed.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    pub seconds: f64,
    pub min_units: usize,
}

impl Budget {
    /// True while the phase should start another unit.
    pub fn more(&self, started: Instant, done: usize) -> bool {
        done < self.min_units || started.elapsed().as_secs_f64() < self.seconds
    }
}

/// What one measured phase of a workload produced.
#[derive(Default)]
pub struct Phase {
    /// One set-up time per unit, seconds.
    pub setup_s: Vec<f64>,
    /// One latency sample per plan, repetition or request, milliseconds.
    pub latency_ms: Vec<f64>,
    /// Per unit: work completed (plans, simulated days, dispatched
    /// requests) and the busy time it took, seconds — the whole unit for
    /// plan and sim, the load phase for a serve soak.
    pub units: Vec<(f64, f64)>,
    /// One objective value per unit, in unit order.
    pub objective: Vec<f64>,
    /// Operations attempted and failed (a failed correctness check is a
    /// failed operation).
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed, capped to the first few.
    pub problems: Vec<String>,
    /// Per-layer metrics (traced phase only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Digest of the inputs of the first `min_units` units.
    pub digest: u64,
    /// Workload-specific counts for the full result file.
    pub counts: BTreeMap<&'static str, f64>,
    /// The span log (traced phase only).
    pub tree: Option<crate::trace::SpanTree>,
    /// Peak resident memory of the process when the phase completed
    /// its `min_units`-th unit, MB, without the reference table: later
    /// units depend on the clock, so a peak taken at the end would not
    /// repeat.
    pub peak_rss_mb: f64,
    /// One sample of the host's speed per unit, taken before the unit
    /// (see [`crate::host`]), ms.
    pub reference_ms: Vec<f64>,
}

impl Phase {
    /// Samples the host's speed; called before every unit.
    pub fn sample_host(&mut self) {
        self.reference_ms.push(crate::host::sample_ms());
    }

    /// Marks unit `done - 1` finished.
    pub fn unit_done(&mut self, done: usize, budget: Budget) {
        if done == budget.min_units {
            self.peak_rss_mb = rss_mb().0 - crate::host::TABLE_MB;
        }
    }

    /// Counts one attempted operation and records its failure, if any.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 16 {
                self.problems.push(what());
            }
        }
    }
}

/// Work per busy second over the whole phase: the units' total work
/// over their total busy time. On a shared host whose speed swings
/// within a run this read steadier across runs than a median over
/// single units or windows of them (3–7 % against up to 10 % spread).
pub fn throughput(units: &[(f64, f64)]) -> f64 {
    let work: f64 = units.iter().map(|u| u.0).sum();
    ratio(work, units.iter().map(|u| u.1).sum())
}

/// Median of `v` (mean of the middle two for even lengths); 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Nearest-rank percentile `p` (0 < p < 100) of `v`; 0 if empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank(s.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Percentiles a slow tail may be reported at, lowest first.
const TAIL_LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// The highest ladder percentile that leaves at least 10 of `n`
/// samples beyond it.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= 10)
        .unwrap_or(50.0)
}

/// Peak and current resident memory of this process, MB, from
/// `/proc/self/status` (0 where unavailable).
pub fn rss_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (field("VmHWM:"), field("VmRSS:"))
}

/// 64-bit FNV-1a, for the input digest.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.bytes(&x.to_bits().to_le_bytes());
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Folds a network's geometry and energy state.
    pub fn network(&mut self, net: &wrsn_net::Network) {
        for s in net.sensors() {
            self.f64(s.pos.x);
            self.f64(s.pos.y);
            self.f64(s.residual_j);
            self.f64(s.consumption_w);
        }
    }
}

/// Seed of unit `i` of a run seeded `seed` (SplitMix64 finalizer), so
/// units draw distinct, reproducible inputs.
pub fn unit_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What Appro's reports say about wasted work, accumulated over calls.
#[derive(Default)]
pub struct ApproStats {
    core_share: Vec<f64>,
    inserted: f64,
    skipped: f64,
}

impl ApproStats {
    /// Notes one `plan_detailed` report: |S_I|, |V'_H|, and the inserted
    /// and skipped candidates of S_I \ V'_H.
    pub fn note(&mut self, mis: usize, core: usize, inserted: usize, skipped: usize) {
        if mis > 0 {
            self.core_share.push(core as f64 / mis as f64);
        }
        self.inserted += inserted as f64;
        self.skipped += skipped as f64;
    }

    /// `core.appro.core_share` and `core.appro.skip_share`.
    pub fn metrics(&self, m: &mut BTreeMap<&'static str, f64>) {
        m.insert("core.appro.core_share", mean(&self.core_share));
        m.insert(
            "core.appro.skip_share",
            ratio(self.skipped, self.inserted + self.skipped),
        );
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        for n in [10, 20, 39, 40, 99, 100, 101, 1000, 5000, 100_000, 250_000] {
            let p = tail_percentile(n);
            if n >= 20 {
                assert!(beyond(n, p) >= 10, "n={n} p={p}");
            }
            // The next rung up would leave fewer than ten.
            if let Some(&next) = TAIL_LADDER.iter().find(|&&q| q > p) {
                assert!(beyond(n, next) < 10, "n={n} next={next}");
            }
        }
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
    }

    #[test]
    fn nearest_rank_percentile_and_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(median(&v), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn unit_seeds_differ() {
        assert_ne!(unit_seed(7, 0), unit_seed(7, 1));
        assert_ne!(unit_seed(7, 0), unit_seed(8, 0));
        assert_eq!(unit_seed(7, 3), unit_seed(7, 3));
    }
}
