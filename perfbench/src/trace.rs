//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into a simulator layer in [`span`]. With
//! tracing off (`--trace 0`) that is one relaxed atomic load and a direct
//! call. With tracing on, each span records its name, start, end, parent
//! (the innermost open span on the same thread, else the open section
//! root, so executor-worker spans hang under the call that spawned them)
//! and a work count (µ-ops, lookups, accesses, cells). Spans stay in
//! memory until [`write`] dumps them at the end of the run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the first span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub thread: u64,
    pub count: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

static ON: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
/// Innermost open span on the main thread, the parent of spans that
/// worker threads open with an empty stack of their own.
static ROOT: AtomicUsize = AtomicUsize::new(usize::MAX);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) as u64;
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    crate::common::lock_clean(&SPANS)
}

/// Turns recording on or off for the spans opened from now on.
pub fn set_enabled(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Runs `f` inside a span named `name`; `f` returns its result and the
/// units of work it did. Section roots (`root = true`) run on the main
/// thread, so that spans opened by executor workers find their parent.
fn record<T>(name: &'static str, root: bool, f: impl FnOnce() -> (T, u64)) -> T {
    if !enabled() {
        return f().0;
    }
    let thread = THREAD.with(|t| *t);
    let local_parent = STACK.with(|s| s.borrow().last().copied());
    let parent = local_parent.or_else(|| {
        let r = ROOT.load(Ordering::SeqCst);
        (r != usize::MAX).then_some(r)
    });
    let idx = {
        let mut all = spans();
        all.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            thread,
            count: 0,
        });
        all.len() - 1
    };
    STACK.with(|s| s.borrow_mut().push(idx));
    let saved_root = root.then(|| ROOT.swap(idx, Ordering::SeqCst));
    let (out, count) = f();
    let end = now_ns();
    if let Some(prev) = saved_root {
        ROOT.store(prev, Ordering::SeqCst);
    }
    STACK.with(|s| s.borrow_mut().pop());
    let mut all = spans();
    all[idx].end_ns = end;
    all[idx].count = count;
    out
}

/// A span around one call into a layer.
pub fn span<T>(name: &'static str, count: u64, f: impl FnOnce() -> T) -> T {
    record(name, false, || (f(), count))
}

/// A span whose work count is known only once the call returns.
pub fn span_counted<T>(name: &'static str, f: impl FnOnce() -> (T, u64)) -> T {
    record(name, false, f)
}

/// A span around a whole section, run on the main thread; spans that
/// worker threads open inside it become its children.
pub fn section<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    record(name, true, || (f(), 0))
}

/// A copy of every span recorded so far.
pub fn snapshot() -> Vec<Span> {
    spans().clone()
}

/// Per-name totals: calls, work count, wall seconds, and self seconds (a
/// span's duration minus the durations of its children on the same
/// thread; children on other threads run in parallel and are not
/// subtracted).
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub calls: u64,
    pub count: u64,
    pub secs: f64,
    pub self_secs: f64,
}

impl Totals {
    /// Nanoseconds per unit of work.
    pub fn ns_per_unit(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.secs * 1e9 / self.count as f64
        }
    }
}

/// True if `span` lies under a section span named `root`.
pub fn under(all: &[Span], mut span: usize, root: &str) -> bool {
    loop {
        if all[span].name == root {
            return true;
        }
        match all[span].parent {
            Some(p) => span = p,
            None => return false,
        }
    }
}

/// Per-name totals over the spans lying under a section named `root`
/// (every span when `root` is `None`).
pub fn totals(all: &[Span], root: Option<&str>) -> BTreeMap<&'static str, Totals> {
    let mut child_secs = vec![0.0f64; all.len()];
    for s in all {
        if let Some(p) = s.parent {
            if all[p].thread == s.thread {
                child_secs[p] += s.secs();
            }
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (i, s) in all.iter().enumerate() {
        if root.is_some_and(|r| !under(all, i, r)) {
            continue;
        }
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.count += s.count;
        t.secs += s.secs();
        t.self_secs += (s.secs() - child_secs[i]).max(0.0);
    }
    out
}

/// Writes every span plus the per-name totals as one JSON document.
pub fn write(path: &std::path::Path, header: &str) -> std::io::Result<()> {
    let all = snapshot();
    let mut out = String::with_capacity(all.len() * 96 + 1024);
    out.push_str(&format!(
        "{{\"schema\":\"eole-perfbench-spans/v1\",{header},\"totals\":{{"
    ));
    let totals = totals(&all, None);
    let rows: Vec<String> = totals
        .iter()
        .map(|(name, t)| {
            format!(
                "\"{name}\":{{\"calls\":{},\"count\":{},\"secs\":{},\"self_secs\":{}}}",
                t.calls, t.count, t.secs, t.self_secs
            )
        })
        .collect();
    out.push_str(&rows.join(","));
    out.push_str("},\"spans\":[");
    let rows: Vec<String> = all
        .iter()
        .map(|s| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "[\"{}\",{},{},{},{},{}]",
                s.name, s.thread, s.start_ns, s.end_ns, parent, s.count
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("]}\n");
    std::fs::write(path, out)
}
