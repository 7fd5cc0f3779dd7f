//! `e2e` — the end-to-end measured-vs-predicted harness driver.
//!
//! Runs the profile → optimize → execute → compare loop
//! ([`brisk_bench::e2e`]) for the six benchmark applications, prints a summary
//! table, and writes `BENCH_e2e.json`. Exits non-zero when any app fails to
//! plan, panics, or measures zero throughput — the CI smoke gate.
//!
//! ```text
//! cargo run --release -p brisk-bench --bin e2e -- [--smoke|--full] \
//!     [--elastic] [--out PATH] [--apps WC,FD,SD,LR,SJ,SI] \
//!     [--inject spout-panic|mid-bolt-panic|sink-panic]
//! ```
//!
//! With `--inject`, the harness instead runs each app once with a
//! deterministic panic injected into the selected operator under a bounded
//! restart policy, and gates on surviving it: nonzero throughput plus a
//! nonempty fault summary.
//!
//! With `--elastic`, the harness runs only the drifting-workload leg: an
//! elastic engine rides through a deterministic mid-run cost step, and the
//! gate asks for at least one migration, exact tuple conservation, and
//! post-migration throughput within 10% of a freshly planned post-drift
//! oracle. Writes `BENCH_elastic.json` (or `--out PATH`).

use brisk_bench::e2e::{
    elastic_to_json, run_app, run_elastic, run_injected, to_json, AppE2e, E2eOptions, ElasticE2e,
    APPS, INJECT_MODES,
};
use brisk_bench::harness::markdown_table;

/// `--inject MODE`: run every requested app once with a deterministic
/// panic injected into the selected operator, under a bounded restart
/// policy. The gate: every run must survive (nonzero throughput) and
/// report the fault (nonempty fault summary with ≥ 1 restart).
fn run_inject_mode(inject: &str, apps: &[&'static str], opts: &E2eOptions) -> i32 {
    println!(
        "# e2e supervised fault injection ({inject}, {} input events/app)\n",
        opts.event_budget
    );
    let mut failures = Vec::new();
    for &app in apps {
        match run_injected(app, inject, opts) {
            Ok(r) => {
                println!(
                    "{app}: {:.1}k ev/s through an injected {} panic \
                     ({} restarts, {} quarantined) — {}",
                    r.throughput / 1e3,
                    r.injected_op_name,
                    r.restarts,
                    r.quarantined,
                    r.fault_summary.replace('\n', "; ")
                );
                if r.throughput <= 0.0 || !r.throughput.is_finite() {
                    failures.push(format!("{app}: zero throughput under injected fault"));
                }
                if r.fault_count == 0 || r.fault_summary.is_empty() {
                    failures.push(format!("{app}: injected fault left no fault summary"));
                }
                if r.restarts == 0 {
                    failures.push(format!("{app}: injected fault triggered no restart"));
                }
            }
            Err(e) => failures.push(format!("{app}: {e}")),
        }
    }
    if failures.is_empty() {
        return 0;
    }
    eprintln!("\ne2e fault-injection failures:");
    for f in &failures {
        eprintln!("  - {f}");
    }
    1
}

/// Gate failures for one app's elastic leg (empty = pass).
fn elastic_failures(e: &ElasticE2e) -> Vec<String> {
    let app = e.app;
    let mut failures = Vec::new();
    if e.replans < 1 {
        failures.push(format!(
            "{app}: workload drift triggered no migration ({} attempts)",
            e.replan_attempts
        ));
    }
    if !e.tuples_conserved {
        failures.push(format!(
            "{app}: migration lost or duplicated tuples (input {}/{}, sink {} vs expected {:?})",
            e.input_events, e.event_budget, e.sink_events, e.expected_sink_events
        ));
    }
    if e.recovery < 0.9 || e.recovery.is_nan() {
        failures.push(format!(
            "{app}: post-migration throughput recovered only {:.2}x the post-drift oracle \
             ({:.1}k vs {:.1}k ev/s)",
            e.recovery,
            e.post_migration_throughput / 1e3,
            e.oracle_throughput / 1e3
        ));
    }
    failures
}

/// `--elastic`: run only the drifting-workload leg per app, print the
/// migration story, write the standalone JSON, and gate on the elastic
/// acceptance bar (>= 1 re-plan, conservation, 0.9x oracle recovery).
fn run_elastic_mode(apps: &[&'static str], opts: &E2eOptions, mode: &str, out_path: &str) -> i32 {
    println!(
        "# e2e elastic drifting workload ({mode} mode, {} input events/app, machine: {})\n",
        opts.event_budget,
        opts.machine.name()
    );
    let mut results: Vec<ElasticE2e> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for &app in apps {
        print!("{app}: profiling + planning + drifting... ");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        match run_elastic(app, opts) {
            Ok(e) => {
                println!(
                    "{} re-plan(s), pause {:.1} ms, recovery {:.2}x oracle, conserved: {}",
                    e.replans, e.max_pause_ms, e.recovery, e.tuples_conserved
                );
                failures.extend(elastic_failures(&e));
                results.push(e);
            }
            Err(err) => {
                println!("FAILED");
                failures.push(format!("{app}: {err}"));
            }
        }
    }
    if !results.is_empty() {
        let rows: Vec<Vec<String>> = results
            .iter()
            .map(|e| {
                vec![
                    e.app.to_string(),
                    e.drifted_op.clone(),
                    format!("{}", e.replans),
                    format!("{}", e.replan_attempts),
                    format!("{:.1}", e.max_pause_ms),
                    format!(
                        "{}->{}",
                        e.plan_before.iter().sum::<usize>(),
                        e.plan_after.iter().sum::<usize>()
                    ),
                    format!("{:.1}", e.post_migration_throughput / 1e3),
                    format!("{:.1}", e.oracle_throughput / 1e3),
                    format!("{:.2}", e.recovery),
                    format!("{}", e.tuples_conserved),
                ]
            })
            .collect();
        println!();
        println!(
            "{}",
            markdown_table(
                &[
                    "App",
                    "drifted op",
                    "re-plans",
                    "attempts",
                    "pause ms",
                    "replicas",
                    "post k ev/s",
                    "oracle k ev/s",
                    "recovery",
                    "conserved"
                ],
                &rows
            )
        );
        let json = elastic_to_json(&results, mode, opts);
        std::fs::write(out_path, &json).expect("write elastic json");
        println!("wrote {out_path}");
    }
    if failures.is_empty() {
        return 0;
    }
    eprintln!("\ne2e elastic failures:");
    for f in &failures {
        eprintln!("  - {f}");
    }
    1
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode = "smoke".to_string();
    let mut out_path: Option<String> = None;
    let mut apps: Vec<&'static str> = APPS.to_vec();
    let mut inject: Option<String> = None;
    let mut elastic = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => mode = "smoke".into(),
            "--full" => mode = "full".into(),
            "--elastic" => elastic = true,
            "--out" => out_path = Some(it.next().expect("--out needs a path").clone()),
            "--inject" => {
                let m = it.next().expect("--inject needs a mode").clone();
                assert!(
                    INJECT_MODES.contains(&m.as_str()),
                    "unknown inject mode '{m}' (use {})",
                    INJECT_MODES.join("|")
                );
                inject = Some(m);
            }
            "--apps" => {
                let list = it.next().expect("--apps needs a list");
                apps = list
                    .split(',')
                    .map(|a| {
                        *APPS
                            .iter()
                            .find(|k| k.eq_ignore_ascii_case(a.trim()))
                            .unwrap_or_else(|| panic!("unknown app '{a}' (use WC,FD,SD,LR,SJ,SI)"))
                    })
                    .collect();
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: e2e [--smoke|--full] [--elastic] [--out PATH] \
                     [--apps WC,FD,SD,LR,SJ,SI] [--inject {}]",
                    INJECT_MODES.join("|")
                );
                std::process::exit(2);
            }
        }
    }
    let opts = match mode.as_str() {
        "full" => E2eOptions::full(),
        _ => E2eOptions::smoke(),
    };

    if let Some(inject) = inject {
        std::process::exit(run_inject_mode(&inject, &apps, &opts));
    }
    if elastic {
        let out = out_path.unwrap_or_else(|| "BENCH_elastic.json".to_string());
        std::process::exit(run_elastic_mode(&apps, &opts, &mode, &out));
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_e2e.json".to_string());

    println!(
        "# e2e measured vs predicted ({mode} mode, {} input events/app, machine: {})\n",
        opts.event_budget,
        opts.machine.name()
    );

    let mut results: Vec<AppE2e> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for app in apps {
        print!("{app}: profiling + optimizing + executing... ");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        match run_app(app, &opts) {
            Ok(r) => {
                println!(
                    "measured {:.1}k ev/s (predicted {:.1}k, rlas/rr {:.2}, fused/unfused {:.2}, \
                     pool/thread {:.2}, elastic {} re-plan(s) at {:.2}x oracle)",
                    r.measured.throughput / 1e3,
                    r.predicted_throughput / 1e3,
                    r.rlas_over_rr,
                    r.fusion.fused_over_unfused,
                    r.scheduler.core_pool_over_thread,
                    r.elastic.replans,
                    r.elastic.recovery
                );
                // Zero-throughput smoke covers the fused run AND the
                // fusion-disabled A/B leg.
                let fused = r.measured.throughput;
                if fused <= 0.0 || !fused.is_finite() {
                    failures.push(format!("{app}: zero throughput with fusion on"));
                }
                if r.fusion.unfused_throughput <= 0.0 || !r.fusion.unfused_throughput.is_finite() {
                    failures.push(format!("{app}: zero throughput with fusion disabled"));
                }
                let pool = r.scheduler.core_pool_throughput;
                if pool <= 0.0 || !pool.is_finite() {
                    failures.push(format!("{app}: zero throughput under the core pool"));
                }
                // Deterministic gate: fully fused producers must have
                // pushed nothing. (The total-crossings delta also appears
                // in the JSON, but it carries partial-flush timing noise
                // on unfused edges, so it is reported rather than gated.)
                // Exactly-once accounting: where the app has a
                // content-independent expected sink count (SJ: the
                // reference join oracle's match count), every
                // steady-state leg must deliver it exactly.
                if !r.sink_exact {
                    failures.push(format!(
                        "{app}: a steady-state leg missed the expected sink count {:?} \
                         (SJ: the reference join oracle)",
                        r.expected_sink_events
                    ));
                }
                if r.fusion.fused_ops > 0 && !r.fusion.fused_edges_silent {
                    failures.push(format!(
                        "{app}: fusion did not silence fused edges ({} fused ops, crossings {} vs {})",
                        r.fusion.fused_ops, r.fusion.fused_crossings, r.fusion.unfused_crossings
                    ));
                }
                failures.extend(elastic_failures(&r.elastic));
                results.push(r);
            }
            Err(e) => {
                println!("FAILED");
                failures.push(format!("{app}: {e}"));
            }
        }
    }

    if !results.is_empty() {
        let rows: Vec<Vec<String>> = results
            .iter()
            .map(|r| {
                vec![
                    r.app.to_string(),
                    format!("{}", r.replication.iter().sum::<usize>()),
                    format!("{:.1}", r.predicted_throughput / 1e3),
                    format!("{:.1}", r.measured.throughput / 1e3),
                    format!("{:.2}", r.measured.measured_over_predicted),
                    format!("{:.1}", r.rr_throughput / 1e3),
                    format!("{:.2}", r.rlas_over_rr),
                    format!("{}", r.fusion.fused_ops),
                    format!("{:.2}", r.fusion.fused_over_unfused),
                    format!("{:.2}", r.scheduler.core_pool_over_thread),
                    format!("{}", r.elastic.replans),
                    format!("{:.2}", r.elastic.recovery),
                ]
            })
            .collect();
        println!();
        println!(
            "{}",
            markdown_table(
                &[
                    "App",
                    "replicas",
                    "predicted k ev/s",
                    "measured k ev/s",
                    "meas/pred",
                    "RR k ev/s",
                    "RLAS/RR",
                    "fused ops",
                    "fused/unfused",
                    "pool/thread",
                    "re-plans",
                    "recovery"
                ],
                &rows
            )
        );
        let json = to_json(&results, &mode, &opts);
        std::fs::write(&out_path, &json).expect("write bench json");
        println!("wrote {out_path}");
    }

    if !failures.is_empty() {
        eprintln!("\ne2e harness failures:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}
