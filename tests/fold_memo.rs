//! The fold memo inside VTAGE-2DStride and D-VTAGE is invisible state: it
//! is not in their snapshots, so a predictor restored into a fresh
//! instance starts with a cold memo, and must still predict exactly like
//! the original, whose memo is warm.

use eole_core::pipeline::PreparedTrace;
use eole_predictors::snapshot::{SnapReader, SnapWriter, Snapshot};
use eole_predictors::value::{DVtage, ValuePredictor, VtageTwoDeltaStride};
use eole_workloads::workload_by_name;

fn trace(name: &str) -> PreparedTrace {
    let w = workload_by_name(name).expect("kernel is in the registry");
    PreparedTrace::new(w.trace(40_000).expect("kernel traces"))
}

/// A fresh predictor restored from `warm`'s snapshot.
fn restored<P: Snapshot>(warm: &P, mut fresh: P) -> P {
    let mut w = SnapWriter::new();
    warm.snapshot(&mut w);
    let bytes = w.into_bytes();
    let mut r = SnapReader::new(&bytes);
    fresh.restore(&mut r).expect("same geometry");
    r.finish().expect("whole snapshot consumed");
    fresh
}

fn snapshot_bytes<P: Snapshot>(p: &P) -> Vec<u8> {
    let mut w = SnapWriter::new();
    p.snapshot(&mut w);
    w.into_bytes()
}

/// Trains `warm` on the first half of the kernel's VP stream, restores it
/// into `fresh`, then replays the second half through both in lockstep.
fn check_value<P: ValuePredictor + Snapshot>(name: &str, mut warm: P, fresh: P) {
    let trace = trace(name);
    let stream = eole_bench::vp_stream(&trace);
    let (head, tail) = stream.split_at(stream.len() / 2);
    let hist = trace.history();
    for &(pc, pos, actual) in head {
        let _ = warm.predict(pc, hist.view(pos as usize));
        warm.train(pc, hist.view(pos as usize), actual);
    }
    let mut cold = restored(&warm, fresh);
    for &(pc, pos, actual) in tail {
        let view = hist.view(pos as usize);
        assert_eq!(warm.predict(pc, view), cold.predict(pc, view), "{name}: pc {pc:#x} at {pos}");
        warm.train(pc, view, actual);
        cold.train(pc, view, actual);
    }
    assert_eq!(snapshot_bytes(&warm), snapshot_bytes(&cold), "{name}: final tables differ");
}

#[test]
fn restored_value_predictors_predict_like_the_original() {
    for name in ["hmmer", "wupwise"] {
        check_value(name, VtageTwoDeltaStride::paper(7), VtageTwoDeltaStride::paper(7));
        check_value(name, DVtage::paper(4, 4, 7), DVtage::paper(4, 4, 7));
    }
}
