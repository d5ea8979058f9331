//! Small numeric and process helpers: quantiles, a seeded generator, and
//! readings from `/proc/self`.

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`); NaN when
/// empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (the mean of the two middle values for an
/// even count); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// SplitMix64: the benchmark's only source of generated randomness, so a
/// seed fixes every input it generates.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * u64::from(n)) >> 32) as u32
    }
}

/// A popularity-skewed rank in `0..n` (`n > 0`): a uniform draw raised to
/// `1 + exponent`, so rank 0 is the most popular and `exponent = 0` is
/// uniform. This is the skew of the repository's own load generator
/// (`bench_scale`'s `zipf_user`), which takes `exponent` from the dataset
/// profile's `popularity_exponent`, the same skew the dataset generator gives
/// item popularity.
pub fn skewed_rank(rng: &mut SplitMix64, n: usize, exponent: f64) -> usize {
    ((rng.unit().powf(1.0 + exponent) * n as f64) as usize).min(n - 1)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

/// Resets the peak RSS to the current RSS (`/proc/self/clear_refs`), so
/// that input preparation does not count towards it. Without kernel
/// support the peak keeps counting from process start.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn proc_status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(f64::NAN)
}

/// User plus system CPU time of this process, in ms (`/proc/self/stat`
/// fields 14 and 15, at the kernel's usual 100 ticks per second).
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i - 3).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(14) + ticks(15)) * 10.0
}

/// CPU time the hypervisor gave to other guests while this machine's
/// virtual CPUs were ready to run ("steal", `/proc/stat`), summed over all
/// CPUs, in seconds. 0 where the kernel does not report it.
pub fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let line = stat.lines().find(|l| l.starts_with("cpu ")).unwrap_or("");
    // cpu user nice system idle iowait irq softirq steal ...
    line.split_whitespace().nth(8).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0) / 100.0
}

/// Tracks the share of the machine's CPU capacity lost to steal over an
/// interval.
pub struct StealMeter {
    cpus: f64,
    start: std::time::Instant,
    steal: f64,
}

impl StealMeter {
    pub fn start() -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        Self { cpus, start: std::time::Instant::now(), steal: steal_s() }
    }

    /// Steal since `start` as a share of the CPU capacity over that time.
    pub fn share(&self) -> f64 {
        let elapsed = self.start.elapsed().as_secs_f64();
        if elapsed <= 0.0 {
            return 0.0;
        }
        (steal_s() - self.steal) / (elapsed * self.cpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn skewed_rank_prefers_low_ranks() {
        let mut rng = SplitMix64::new(1);
        let draws: Vec<usize> = (0..20_000).map(|_| skewed_rank(&mut rng, 200, 0.3)).collect();
        assert!(draws.iter().all(|&r| r < 200));
        let head = draws.iter().filter(|&&r| r < 20).count();
        let tail = draws.iter().filter(|&&r| r >= 180).count();
        // P(rank < 20) = 0.1^(1/1.3) = 0.17; P(rank >= 180) = 1 - 0.9^(1/1.3) = 0.078.
        assert!(head > 2 * tail, "head {head} tail {tail}");
        let mut uniform = SplitMix64::new(1);
        let flat: Vec<usize> = (0..20_000).map(|_| skewed_rank(&mut uniform, 200, 0.0)).collect();
        let low = flat.iter().filter(|&&r| r < 100).count();
        assert!((9_500..10_500).contains(&low), "{low}");
    }
}
