//! A [`ResultStore`] wrapper that times every get and put of the
//! `DirStore` it delegates to, and derives per-cell executor times from
//! them: the executor consults the store before it prepares and simulates
//! a cell and saves right after, so on one worker thread the interval
//! from a missing get to the put is that cell's whole serial cost.

use std::cell::Cell;
use std::sync::Mutex;
use std::time::Instant;

use eole_bench::{DirStore, ResultStore, RunKey, StoreError, WarmKey};
use eole_core::stats::SimStats;

use crate::trace;

/// One simulated cell: key stem, configuration name, seconds from the
/// missing get to the end of the put, and the statistics stored.
#[derive(Clone, Debug)]
pub struct SimCell {
    pub stem: String,
    pub config: String,
    pub secs: f64,
    pub stats: SimStats,
}

#[derive(Clone, Debug, Default)]
pub struct StoreLog {
    pub gets: u64,
    pub get_secs: f64,
    pub hits: u64,
    pub misses: u64,
    pub puts: u64,
    pub put_secs: f64,
    /// Get time of each hit (a hit is a whole cell for the executor).
    pub hit_secs: Vec<f64>,
    pub sims: Vec<SimCell>,
}

impl StoreLog {
    /// Simulated cells sorted by key, so sums over them do not depend on
    /// the order workers finished in.
    pub fn sorted_sims(&self) -> Vec<SimCell> {
        let mut v = self.sims.clone();
        v.sort_by(|a, b| a.stem.cmp(&b.stem));
        v
    }
}

thread_local! {
    static MISS_AT: Cell<Option<Instant>> = const { Cell::new(None) };
}

#[derive(Debug)]
pub struct TimedStore {
    inner: DirStore,
    log: Mutex<StoreLog>,
}

impl TimedStore {
    pub fn open(dir: &std::path::Path) -> Result<TimedStore, String> {
        Ok(TimedStore {
            inner: DirStore::open(dir)?,
            log: Mutex::new(StoreLog::default()),
        })
    }

    fn log(&self) -> std::sync::MutexGuard<'_, StoreLog> {
        crate::common::lock_clean(&self.log)
    }

    /// Takes the log accumulated so far, leaving an empty one.
    pub fn take_log(&self) -> StoreLog {
        std::mem::take(&mut *self.log())
    }
}

impl ResultStore for TimedStore {
    fn load(&self, key: &RunKey) -> Option<SimStats> {
        let start = Instant::now();
        let out = trace::span("bench.store.get", 1, || self.inner.load(key));
        let secs = start.elapsed().as_secs_f64();
        let mut log = self.log();
        log.gets += 1;
        log.get_secs += secs;
        if out.is_some() {
            log.hits += 1;
            log.hit_secs.push(secs);
        } else {
            log.misses += 1;
            MISS_AT.with(|m| m.set(Some(start)));
        }
        out
    }

    fn save(&self, key: &RunKey, stats: &SimStats) -> Result<(), StoreError> {
        let start = Instant::now();
        let out = trace::span("bench.store.put", 1, || self.inner.save(key, stats));
        let secs = start.elapsed().as_secs_f64();
        let cell_secs = MISS_AT
            .with(|m| m.take())
            .map(|t| t.elapsed().as_secs_f64());
        let mut log = self.log();
        log.puts += 1;
        log.put_secs += secs;
        if let Some(cell_secs) = cell_secs {
            log.sims.push(SimCell {
                stem: key.file_stem(),
                config: key.config_name.clone(),
                secs: cell_secs,
                stats: *stats,
            });
        }
        out
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn abandon(&self, key: &RunKey) {
        self.inner.abandon(key);
    }

    fn load_warm(&self, key: &WarmKey) -> Option<Vec<u8>> {
        self.inner.load_warm(key)
    }

    fn save_warm(&self, key: &WarmKey, bytes: &[u8]) -> Result<(), StoreError> {
        self.inner.save_warm(key, bytes)
    }

    fn abandon_warm(&self, key: &WarmKey) {
        self.inner.abandon_warm(key);
    }

    fn degraded(&self) -> bool {
        self.inner.degraded()
    }

    fn observed_evictions(&self) -> u64 {
        self.inner.observed_evictions()
    }

    fn quarantined(&self) -> u64 {
        self.inner.quarantined()
    }
}

/// Total size in bytes of the regular files directly under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
