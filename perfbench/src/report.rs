//! Result lines, percentiles and the host fingerprint.

use std::fmt::Write as _;
use std::time::Duration;

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples.
/// Percentile (`q` in 0..=1) of unsorted samples, interpolated between
/// the two nearest ranks so a small sample does not jump between them.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (s[pos.floor() as usize], s[pos.ceil() as usize]);
    lo + (hi - lo) * pos.fract()
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Metrics of one run, in the order they were added.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// How a run went: answers tried, answers missing (refused, errored or
/// wrong), and of those the wrong ones.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

impl Tally {
    pub fn ok(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }
}

/// The last line of standard output.
pub fn result_line(tally: Tally, metrics: &Metrics) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            m,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .unwrap();
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    )
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// nproc, CPU model, cache sizes and kernel release, as a JSON object.
pub fn host() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = read("/proc/cpuinfo")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut caches = String::new();
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let (Some(level), Some(size)) =
            (read(&format!("{dir}/level")), read(&format!("{dir}/size")))
        else {
            continue;
        };
        if read(&format!("{dir}/type")).as_deref() == Some("Unified") {
            let sep = if caches.is_empty() { "" } else { ", " };
            write!(caches, "{sep}\"L{level}\": \"{size}\"").unwrap();
        }
    }
    let kernel = read("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {cpu:?}, \"caches\": {{{caches}}}, \"kernel\": {kernel:?}, \"arch\": {:?}}}",
        std::env::consts::ARCH
    )
}
