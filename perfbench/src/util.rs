//! Small shared pieces: the seeded generator, per-unit minima, medians,
//! block timing, peak resident memory and the result line.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// splitmix64, the repository's stock deterministic generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded Fisher-Yates permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed ^ 0x7065_7266_6265_6e63; // "perfbenc"
    for i in (1..n).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// `items` in the seeded order.
pub fn shuffled<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    permutation(items.len(), seed)
        .into_iter()
        .map(|i| items[i].clone())
        .collect()
}

/// The sum over units of each unit's fastest time across passes.
pub fn fastest_sum<'a>(passes: impl Iterator<Item = &'a Vec<(String, f64)>>) -> f64 {
    let mut fastest: HashMap<&str, f64> = HashMap::new();
    for units in passes {
        for (key, secs) in units {
            let t = fastest.entry(key).or_insert(f64::INFINITY);
            *t = t.min(*secs);
        }
    }
    fastest.values().sum()
}

/// The median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Mean time of one call of `f`, from one block of calls that lasts at
/// least `min_s` seconds (one call at least). A set-up of microseconds
/// is too short to time on its own; the block's mean is not, and it does
/// not depend on how many calls fit in the block.
pub fn block_mean(min_s: f64, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut calls = 0u32;
    loop {
        f();
        calls += 1;
        let elapsed = t.elapsed().as_secs_f64();
        if elapsed >= min_s {
            return elapsed / calls as f64;
        }
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`). Each
/// benchmark process runs exactly one workload, so this is the
/// workload's peak.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The outcome of one benchmark run: the operation tally and named
/// metrics with units.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }

    /// Counts `n` attempted operations of which `bad` failed.
    pub fn tally(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_seeded_bijection() {
        let a = permutation(50, 7);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_eq!(a, permutation(50, 7));
        assert_ne!(a, permutation(50, 8));
    }

    #[test]
    fn fastest_sum_takes_each_units_minimum() {
        let unit = |k: &str, s: f64| (k.to_owned(), s);
        let passes = [
            vec![unit("a", 2.0), unit("b", 5.0)],
            vec![unit("b", 3.0), unit("a", 4.0)],
        ];
        assert_eq!(fastest_sum(passes.iter()), 5.0);
    }

    #[test]
    fn block_mean_divides_the_block_by_its_calls() {
        let mut calls = 0;
        let mean = block_mean(0.002, || {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_micros(100));
        });
        assert!(calls > 1);
        assert!((1e-4..2.1e-3).contains(&mean), "{mean}");
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
