//! `hot-alloc`: no allocating idioms in hot modules.
//!
//! PR 3 made the simulator's steady-state loop allocation-free and pinned
//! it with `tests/zero_alloc.rs` — but that test proves exactly one
//! configuration on one workload. This rule turns the property into an
//! all-paths static check: the modules the hot loop lives in may not
//! mention `vec!`, `Vec::new`, `Box::new`, `format!`, `.to_string()`,
//! `.clone()`, or `.collect()` outside test code. Cold construction paths
//! (table/ring builders) that legitimately allocate carry an item-level
//! `// lint:allow(hot-alloc) <reason>`.

use super::{macro_lines, method_lines, path_lines};
use crate::{Finding, Workspace};

/// Rule name (allow grammar and baseline key).
pub const NAME: &str = "hot-alloc";

/// Directory prefixes (workspace-relative) whose files are "hot modules".
pub const HOT_DIRS: &[&str] = &[
    "crates/core/src/pipeline/",
    "crates/predictors/src/value/",
    "crates/predictors/src/history.rs",
    "crates/predictors/src/branch/",
    "crates/mem/src/",
];

/// True when `rel` lives in a hot module.
pub fn is_hot(rel: &str) -> bool {
    HOT_DIRS.iter().any(|d| rel.starts_with(d))
}

/// Runs the rule.
pub fn check(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in ws.files.iter().filter(|f| is_hot(&f.rel)) {
        let mut hit = |line: u32, what: &str| {
            if !f.in_test(line) {
                out.push(Finding::new(
                    NAME,
                    &f.rel,
                    line,
                    format!("{what} in a hot module (allocation-free hot loop, PERF.md)"),
                ));
            }
        };
        for l in macro_lines(f, "vec").collect::<Vec<_>>() {
            hit(l, "`vec!` allocates");
        }
        for l in macro_lines(f, "format").collect::<Vec<_>>() {
            hit(l, "`format!` allocates");
        }
        for l in path_lines(f, "Vec", "new").collect::<Vec<_>>() {
            hit(l, "`Vec::new`");
        }
        for l in path_lines(f, "Box", "new").collect::<Vec<_>>() {
            hit(l, "`Box::new` allocates");
        }
        for l in method_lines(f, "to_string").collect::<Vec<_>>() {
            hit(l, "`.to_string()` allocates");
        }
        for l in method_lines(f, "clone").collect::<Vec<_>>() {
            hit(l, "`.clone()` (possible hidden allocation)");
        }
        for l in method_lines(f, "collect").collect::<Vec<_>>() {
            hit(l, "`.collect()` allocates");
        }
    }
}
