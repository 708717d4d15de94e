//! Program recorder snapshots and their deltas, the environment stamp,
//! and the result line.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ecfrm_obs::{HistogramSnapshot, NetStats, Snapshot};
use ecfrm_store::StoreStats;

use crate::stack::Stack;

/// Every public recorder of the program, read at one instant.
pub struct Probe {
    pub at: Instant,
    pub store: Snapshot,
    pub front_serve: HistogramSnapshot,
    pub shard_serve: Vec<HistogramSnapshot>,
    pub cache: (u64, u64),
    pub loads: Vec<u64>,
    pub net: NetStats,
    pub decoder: (u64, u64),
    pub stats: StoreStats,
}

fn serve_us(r: &ecfrm_obs::Recorder) -> HistogramSnapshot {
    r.snapshot()
        .histograms
        .remove("serve_us")
        .unwrap_or_else(|| ecfrm_obs::Histogram::new().snapshot())
}

impl Probe {
    pub fn take(stack: &Stack) -> Self {
        let store = stack.store();
        Self {
            at: Instant::now(),
            store: store.recorder().snapshot(),
            front_serve: serve_us(stack.front_server.recorder()),
            shard_serve: stack
                .shard_servers()
                .map(|s| serve_us(s.recorder()))
                .collect(),
            cache: stack.front.cache_stats(),
            loads: store.disk_loads().elements,
            net: stack.remotes.iter().fold(NetStats::default(), |acc, r| {
                acc.merge(&r.counters().snapshot())
            }),
            decoder: store.decoder_cache_stats(),
            stats: store.stats(),
        }
    }
}

/// The change between two probes.
pub struct Delta<'a> {
    pub a: &'a Probe,
    pub b: &'a Probe,
}

impl Delta<'_> {
    pub fn counter(&self, name: &str) -> f64 {
        let get = |p: &Probe| p.store.counters.get(name).copied().unwrap_or(0);
        get(self.b).saturating_sub(get(self.a)) as f64
    }

    /// Summed microseconds recorded into store histogram `name`.
    pub fn hist_sum(&self, name: &str) -> f64 {
        self.hist(name).0
    }

    /// (sum, count) recorded into store histogram `name`.
    pub fn hist(&self, name: &str) -> (f64, f64) {
        let get = |p: &Probe| {
            p.store
                .histograms
                .get(name)
                .map_or((0, 0), |h| (h.sum, h.count))
        };
        let (s0, c0) = get(self.a);
        let (s1, c1) = get(self.b);
        (s1.saturating_sub(s0) as f64, c1.saturating_sub(c0) as f64)
    }

    pub fn front_serve_sum(&self) -> f64 {
        self.b
            .front_serve
            .sum
            .saturating_sub(self.a.front_serve.sum) as f64
    }

    /// Mean service time per request over every shard server. Servers
    /// that were replaced between the probes are skipped.
    pub fn shard_serve_mean(&self) -> f64 {
        let (mut sum, mut count) = (0u64, 0u64);
        for (a, b) in self.a.shard_serve.iter().zip(&self.b.shard_serve) {
            if b.count >= a.count {
                sum += b.sum - a.sum;
                count += b.count - a.count;
            }
        }
        ratio(sum as f64, count as f64)
    }

    pub fn cache_hit_rate(&self) -> f64 {
        let hits = self.b.cache.0 - self.a.cache.0;
        let misses = self.b.cache.1 - self.a.cache.1;
        ratio(hits as f64, (hits + misses) as f64)
    }

    pub fn cache_misses(&self) -> f64 {
        (self.b.cache.1 - self.a.cache.1) as f64
    }

    pub fn decoder_hit_rate(&self) -> f64 {
        let hits = self.b.decoder.0 - self.a.decoder.0;
        let misses = self.b.decoder.1 - self.a.decoder.1;
        ratio(hits as f64, (hits + misses) as f64)
    }

    /// max / mean of planned fetches per disk.
    pub fn load_imbalance(&self) -> f64 {
        let d: Vec<f64> = self
            .b
            .loads
            .iter()
            .zip(&self.a.loads)
            .map(|(b, a)| b.saturating_sub(*a) as f64)
            .collect();
        let mean = d.iter().sum::<f64>() / d.len().max(1) as f64;
        ratio(d.iter().cloned().fold(0.0, f64::max), mean)
    }

    pub fn retries(&self) -> f64 {
        self.b.net.since(&self.a.net).retries as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Value at quantile `q` of `v` (nearest rank), 0 when empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Cumulative CPU jiffies from the first line of `/proc/stat`:
/// (steal, total).
fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    let steal = fields.get(7).copied().unwrap_or(0);
    (steal, fields.iter().sum())
}

/// Samples `/proc/stat` every 100 ms on a background thread, so the
/// host's CPU steal share over any interval of the run can be read
/// afterwards.
pub struct StealMeter {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<Vec<(Instant, (u64, u64))>>,
}

impl StealMeter {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut log = vec![(Instant::now(), cpu_jiffies())];
            while !flag.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(100));
                log.push((Instant::now(), cpu_jiffies()));
            }
            log
        });
        Self { stop, thread }
    }

    pub fn finish(self) -> StealLog {
        self.stop.store(true, Ordering::Release);
        StealLog(self.thread.join().expect("steal sampler panicked"))
    }
}

/// The samples of a [`StealMeter`].
pub struct StealLog(Vec<(Instant, (u64, u64))>);

/// One repetition of a repeated measurement: its value and when it ran.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    pub value: f64,
    pub from: Instant,
    pub to: Instant,
}

impl StealLog {
    /// Steal share of the CPU time between the last sample at or before
    /// `a` and the first at or after `b`.
    pub fn share(&self, a: Instant, b: Instant) -> f64 {
        let i = self.0.partition_point(|(t, _)| *t <= a).saturating_sub(1);
        let j = self
            .0
            .partition_point(|(t, _)| *t < b)
            .min(self.0.len() - 1);
        let ((s0, t0), (s1, t1)) = (self.0[i].1, self.0[j].1);
        ratio(s1.saturating_sub(s0) as f64, t1.saturating_sub(t0) as f64)
    }

    /// Median value over the repetitions that ran with no more host CPU
    /// steal than the median repetition did, so a steal burst over part
    /// of a run leaves the figure alone. 0 when there are none.
    pub fn calm_median(&self, reps: &[Rep]) -> f64 {
        let steal: Vec<f64> = reps.iter().map(|r| self.share(r.from, r.to)).collect();
        let cut = median(&mut steal.clone());
        let mut calm: Vec<f64> = reps
            .iter()
            .zip(&steal)
            .filter(|(_, &s)| s <= cut)
            .map(|(r, _)| r.value)
            .collect();
        median(&mut calm)
    }
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the benchmark was built from, when run inside a git
/// checkout.
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One metric: value and unit.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                if value.is_finite() { *value } else { 0.0 }
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut m = Metrics::new();
        m.insert("setup_s", (1.25, "s"));
        let line = result_line(true, 3, 0, &m);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
    }
}
