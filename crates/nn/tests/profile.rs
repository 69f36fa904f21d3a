//! The per-op profiler is compiled in always: a profiled tape run fills
//! its rows, and with profiling switched off the hooks record nothing.
//! The profiler's counters are process-global, so this binary holds one
//! test.

use typilus_nn::profile::OpKind;
use typilus_nn::{
    profile_report, profile_rows, profiling_enabled, reset_profile, set_profiling, ParamSet, Tape,
    Tensor,
};

/// One forward and backward pass of `sum((x · W)²)`.
fn tape_step(params: &ParamSet, w: typilus_nn::ParamId) {
    let mut tape = Tape::new(params);
    let x = tape.input(Tensor::full(4, 3, 0.5));
    let w = tape.param(w);
    let y = tape.matmul(x, w);
    let sq = tape.mul(y, y);
    let loss = tape.sum_all(sq);
    let _ = tape.backward(loss);
}

#[test]
fn profiled_tape_run_fills_the_rows_and_unprofiled_runs_record_nothing() {
    let mut params = ParamSet::new();
    let w = params.add("w", Tensor::full(3, 2, 0.25));

    assert!(!profiling_enabled(), "profiling starts switched off");
    reset_profile();
    tape_step(&params, w);
    assert!(
        profile_rows().is_empty(),
        "hooks must not record while profiling is off"
    );

    set_profiling(true);
    tape_step(&params, w);
    set_profiling(false);
    let rows = profile_rows();
    for kind in [OpKind::Matmul, OpKind::Elementwise, OpKind::Backward] {
        let row = rows
            .iter()
            .find(|r| r.kind == kind)
            .unwrap_or_else(|| panic!("no {} row in {rows:?}", kind.name()));
        assert!(row.calls > 0, "{row:?}");
    }
    let matmul = rows.iter().find(|r| r.kind == OpKind::Matmul).unwrap();
    assert_eq!(matmul.bytes, 4 * 2 * 4, "one 4x2 f32 output");
    assert!(profile_report().contains("matmul"));

    // Switched off again: a further run leaves every row as it was.
    let calls: Vec<u64> = rows.iter().map(|r| r.calls).collect();
    tape_step(&params, w);
    let after: Vec<u64> = profile_rows().iter().map(|r| r.calls).collect();
    assert_eq!(after, calls);
}
