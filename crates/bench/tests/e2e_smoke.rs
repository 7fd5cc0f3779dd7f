//! Integration smoke of the measured-vs-predicted harness: one real
//! profile → optimize → execute → compare loop at tiny scale, asserting the
//! invariants CI's full smoke run gates (non-zero throughput, sane report
//! wiring, well-formed JSON with a guard section).

use brisk_bench::e2e::{extract_guard, run_app, run_injected, to_json, E2eOptions, INJECT_MODES};

#[test]
fn wc_measured_vs_predicted_loop_closes() {
    let opts = E2eOptions::tiny();
    let r = run_app("WC", &opts).expect("harness runs");

    assert_eq!(r.app, "WC");
    assert_eq!(r.operators.len(), 5);
    assert_eq!(r.operators.len(), r.replication.len());
    assert!(r.predicted_throughput > 0.0, "model predicts nothing");

    let m = &r.measured;
    assert_eq!(m.input_events, opts.event_budget, "sized spouts drained");
    assert!(m.throughput > 0.0, "zero measured throughput");
    assert!(m.sink_events > 0);
    assert!(m.measured_over_predicted > 0.0);
    assert!(m.p99_latency_us >= m.p50_latency_us);
    // WC's splitter fan-out (selectivity 10) must appear in both the
    // predicted and the measured per-operator output rates.
    let rate = |rates: &[(String, f64)], n: &str| -> f64 {
        rates.iter().find(|(name, _)| name == n).expect("present").1
    };
    let pred_ratio = rate(&r.predicted_output_rates, "splitter")
        / rate(&r.predicted_output_rates, "parser").max(f64::MIN_POSITIVE);
    let meas_ratio = rate(&m.per_operator_output_rate, "splitter")
        / rate(&m.per_operator_output_rate, "parser").max(f64::MIN_POSITIVE);
    assert!((9.0..=11.0).contains(&pred_ratio), "predicted {pred_ratio}");
    assert!((9.0..=11.0).contains(&meas_ratio), "measured {meas_ratio}");

    // The RR baseline ran; at tiny scale scheduling noise can wobble the
    // ratio, so only assert it is a sane positive number here — the
    // committed full-mode BENCH_e2e.json is where the RLAS >= RR ordering
    // is gated.
    assert!(r.rr_throughput > 0.0);
    assert!(r.rlas_over_rr.is_finite() && r.rlas_over_rr > 0.0);

    let json = to_json(&[r], "tiny", &opts);
    let guard = extract_guard(&json);
    assert_eq!(guard.len(), 1);
    assert_eq!(guard[0].0, "wc");
    assert!(guard[0].1 > 0.0);
}

#[test]
fn injected_faults_leave_survivable_reported_runs() {
    // The `--inject` smoke leg's contract, at tiny scale: each mode's
    // deterministic panic is survived (nonzero throughput), restarted,
    // and reported in a nonempty fault summary.
    let opts = E2eOptions::tiny();
    for mode in INJECT_MODES {
        let r = run_injected("WC", mode, &opts).expect("injected run completes");
        assert!(r.throughput > 0.0, "{mode}: zero throughput");
        assert!(r.sink_events > 0, "{mode}");
        assert_eq!(r.restarts, 1, "{mode}: one granted restart");
        assert_eq!(r.fault_count, 1, "{mode}: one structured fault");
        assert!(!r.fault_summary.is_empty(), "{mode}: empty summary");
        // The spout fires before generating and recovers its cursor;
        // bolt/sink faults quarantine exactly the poison tuple.
        let expected_quarantined = if mode == "spout-panic" { 0 } else { 1 };
        assert_eq!(r.quarantined, expected_quarantined, "{mode}");
    }

    let err = run_injected("WC", "nonsense", &opts).unwrap_err();
    assert!(err.contains("unknown inject mode"), "{err}");
}
