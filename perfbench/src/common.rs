//! Shared pieces: metrics, failure accounting, statistics helpers,
//! digests and the digests recorded in `digests.json`.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

use eole_core::canon::{Fnv64, SIM_FINGERPRINT_VERSION};
use eole_core::stats::SimStats;
use eole_stats::json::Json;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collected metrics, in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// Locks a mutex whose every update leaves its data valid, so a guard
/// left by a panicking holder is safe to reuse.
pub fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Cells attempted, and cells that returned a `RunError` or failed an
/// output check.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Fails `cells` attempted cells unless `ok`.
    pub fn require(&mut self, ok: bool, cells: u64, what: &str) {
        if !ok {
            self.failed += cells;
            eprintln!("CHECK FAILED ({cells} cell(s)): {what}");
        }
    }

    /// Failed cells, each counted once.
    pub fn failed(&self) -> u64 {
        self.failed.min(self.attempted)
    }
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
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

pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// The `p`-quantile (0..=1) by the nearest-rank rule.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn gmean(values: &[f64]) -> f64 {
    eole_stats::summary::geometric_mean(values).unwrap_or(0.0)
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Digest over every `SimStats` field of every cell, in cell order (the
/// `Debug` form names and prints each counter).
pub fn sim_digest(cells: &[SimStats]) -> String {
    let mut h = Fnv64::new();
    for s in cells {
        h.write(format!("{s:?}").as_bytes());
        h.write(b"\n");
    }
    format!("{:016x}", h.finish())
}

pub fn text_digest(text: &str) -> String {
    format!("{:016x}", Fnv64::digest(text.as_bytes()))
}

/// Peak resident set of this process in MB (`VmHWM`), since the last
/// [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restarts the `VmHWM` count, so [`peak_rss_mb`] reports the peak since
/// this call (Linux `clear_refs` code 5; ignored where unsupported).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The benchmark's output directory (stores, span dumps), inside the
/// benchmark package and ignored by git.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create the benchmark's out/ directory");
    dir
}

/// A fresh, empty directory under [`out_dir`] for one result store.
pub fn fresh_store_dir(tag: &str) -> PathBuf {
    let dir = out_dir().join(format!("store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The digests recorded in `digests.json`.
const RECORDED: &str = include_str!("../digests.json");

/// Outcome of comparing a digest with the recorded one.
#[derive(Debug, PartialEq, Eq)]
pub enum DigestCheck {
    Match,
    Mismatch {
        recorded: String,
    },
    /// Recorded under another `SIM_FINGERPRINT_VERSION`: a declared model
    /// change, reported but not failed.
    ModelChange {
        recorded_version: u64,
    },
    NotRecorded,
}

/// Compares `digest` with `digests.json[workload][key]`.
pub fn check_digest(workload: &str, key: &str, digest: &str) -> DigestCheck {
    let json = Json::parse(RECORDED).expect("digests.json is valid JSON");
    let version = json
        .get("sim_fingerprint_version")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let Some(recorded) = json
        .get(workload)
        .and_then(|w| w.get(key))
        .and_then(Json::as_str)
    else {
        return DigestCheck::NotRecorded;
    };
    if version != u64::from(SIM_FINGERPRINT_VERSION) {
        return DigestCheck::ModelChange {
            recorded_version: version,
        };
    }
    if recorded == digest {
        DigestCheck::Match
    } else {
        DigestCheck::Mismatch {
            recorded: recorded.to_string(),
        }
    }
}

/// Checks a digest and reports the outcome on stderr; a mismatch fails
/// the `cells` it covers.
pub fn account_digest(checks: &mut Checks, cells: u64, workload: &str, key: &str, digest: &str) {
    match check_digest(workload, key, digest) {
        DigestCheck::Match => {
            eprintln!("sim_digest {workload}[{key}] = {digest} (matches digests.json)");
        }
        DigestCheck::Mismatch { recorded } => checks.require(
            false,
            cells,
            &format!(
                "sim_digest {workload}[{key}] = {digest}, digests.json has {recorded} for \
                 the same SIM_FINGERPRINT_VERSION {SIM_FINGERPRINT_VERSION}"
            ),
        ),
        DigestCheck::ModelChange { recorded_version } => {
            eprintln!(
                "MODEL CHANGE: sim_digest {workload}[{key}] = {digest}; digests.json was \
                 recorded at SIM_FINGERPRINT_VERSION {recorded_version}, the program is at \
                 {SIM_FINGERPRINT_VERSION}"
            );
        }
        DigestCheck::NotRecorded => {
            eprintln!("sim_digest {workload}[{key}] = {digest} (no recorded digest)");
        }
    }
}
