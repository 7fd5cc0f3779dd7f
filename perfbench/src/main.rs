//! BriskStream benchmark: runs one workload on the threaded engine under
//! its RLAS plan, checks the outputs, and prints end-to-end metrics (or,
//! with `--trace 1`, per-layer metrics), ending with one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wc_saturate --seed 0 --seconds 10 --trace 0
//! ```
//!
//! See `perfbench/README.md` for the workloads and metrics.

mod digest;
mod gate;
mod host;
mod spout;
mod stats;
mod trace;
mod workload;

use brisk_dag::{FusionPlan, LogicalTopology, OperatorId, OperatorKind, Partitioning};
use brisk_metrics::Histogram;
use brisk_numa::{Machine, SocketId};
use brisk_rlas::OptimizedPlan;
use brisk_runtime::{
    plan_replica_sockets, AppRuntime, Engine, EngineConfig, OperatorRuntime, RunLimit, RunReport,
    Scheduler,
};
use digest::Digest;
use spout::{BenchSpout, Source, SpoutLog};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use trace::{BoltShim, SpoutShim, TraceLog};
use workload::{Workload, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <wc_saturate|sd_saturate|wc_paced|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Set-up-only repetitions before the measured ones (they also warm up).
const SETUP_PROBES: usize = 5;
/// Measured repetitions per run at least (per kind, traced and untraced).
const MIN_REPS: usize = 3;
/// Safety net on one repetition (a healthy one takes well under a second);
/// a repetition cut by it fails the sink-count check.
const REP_TIMEOUT: Duration = Duration::from_secs(30);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err(format!(
            "--seconds must be in (0, 120], got {}",
            args.seconds
        ));
    }
    Ok(args)
}

fn main() {
    host::populate_file_mappings();
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let selected: Vec<&'static Workload> = if args.workload == "all" {
        WORKLOADS.iter().collect()
    } else {
        match Workload::find(&args.workload) {
            Some(w) => vec![w],
            None => {
                eprintln!("perfbench: unknown workload {}\n{USAGE}", args.workload);
                std::process::exit(2);
            }
        }
    };
    let mut all_correct = true;
    for w in selected {
        match Bench::new(w, &args).and_then(|b| b.run()) {
            Ok(correct) => all_correct &= correct,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", w.name);
                std::process::exit(1);
            }
        }
    }
    if !all_correct {
        std::process::exit(1);
    }
}

/// Times of one set-up: optimize, then build and start the engine, then
/// wait for the first sink tuple.
#[derive(Debug, Clone, Copy)]
struct Setup {
    optimize_s: f64,
    wire_s: f64,
    first_tuple_s: f64,
}

impl Setup {
    fn total_s(&self) -> f64 {
        self.optimize_s + self.wire_s + self.first_tuple_s
    }
}

/// One measured repetition.
struct Rep {
    setup: Setup,
    traced: bool,
    report: RunReport,
    cpu_s: f64,
    /// Peak RSS from optimize to engine teardown, in MiB.
    peak_rss_mb: f64,
    spouts: SpoutLog,
    outcome: gate::Outcome,
}

/// A workload prepared to run: its machine, plan and oracle.
struct Bench<'a> {
    w: &'static Workload,
    args: &'a Args,
    machine: Machine,
    topology: LogicalTopology,
    spout_op: OperatorId,
    sink_op: OperatorId,
    plan: OptimizedPlan,
    sockets: Vec<SocketId>,
    fusion: FusionPlan,
    workers: usize,
    oracle: Digest,
    log: Arc<Mutex<TraceLog>>,
    spout_log: Arc<Mutex<SpoutLog>>,
}

impl<'a> Bench<'a> {
    fn new(w: &'static Workload, args: &'a Args) -> Result<Bench<'a>, String> {
        let machine = w.machine.build();
        let topology = w.app.topology();
        let single = |kind: OperatorKind| {
            let mut ops = topology.operators().filter(|(_, s)| s.kind == kind);
            match (ops.next(), ops.next()) {
                (Some((id, _)), None) => Ok(id),
                _ => Err(format!("expected exactly one {kind:?}")),
            }
        };
        let (spout_op, sink_op) = (single(OperatorKind::Spout)?, single(OperatorKind::Sink)?);
        let plan = brisk_rlas::optimize(&machine, &topology, &w.scaling_options(&topology))
            .ok_or("RLAS found no feasible plan")?;
        let sockets = plan_replica_sockets(&topology, &plan.plan);
        let replication = &plan.plan.replication;
        let fusion = FusionPlan::compute(&topology, replication, Some(&sockets));
        let workers = host::nproc().clamp(1, fusion.spawned_executors(replication).max(1));
        let spouts = replication[spout_op.0];
        if w.app == workload::App::SpikeDetection && spouts != 1 {
            return Err(format!(
                "the SD oracle needs one spout replica, the plan has {spouts}"
            ));
        }
        let shares: Vec<u64> = (0..spouts)
            .map(|r| brisk_apps::replica_share(w.input, r, spouts))
            .collect();
        let oracle = digest::oracle(w.app, args.seed, &shares);
        Ok(Bench {
            w,
            args,
            machine,
            topology,
            spout_op,
            sink_op,
            plan,
            sockets,
            fusion,
            workers,
            oracle,
            log: Arc::new(Mutex::new(TraceLog::default())),
            spout_log: Arc::new(Mutex::new(SpoutLog::default())),
        })
    }

    /// The app with the benchmark's spout and the digesting sink; in a
    /// traced repetition every operator is wrapped in a span recorder.
    fn build_app(&self, traced: bool) -> AppRuntime {
        let (w, seed) = (self.w, self.args.seed);
        let base = brisk_apps::app_sized(w.app.abbrev(), 0).expect("WC and SD are brisk apps");
        let spout_op = self.spout_op.0;
        let spout_log = self.spout_log.clone();
        let log = self.log.clone();
        let spout_factory = move |ctx: brisk_runtime::BoltContext| {
            let share = brisk_apps::replica_share(w.input, ctx.replica, ctx.replicas);
            let spout = BenchSpout::new(
                Source::new(w.app, seed, ctx.replica),
                share,
                w.pace.map(|p| p.per_replica(ctx.replicas)),
                traced,
                spout_log.clone(),
            );
            SpoutShim::new(spout, spout_op, ctx.replica, traced, log.clone())
        };
        let mut app = base.spout(self.spout_op, spout_factory);
        if !traced {
            return self.wrap_bolt(app, self.sink_op, false);
        }
        let bolts: Vec<OperatorId> = self
            .topology
            .operators()
            .filter(|(_, s)| s.kind != OperatorKind::Spout)
            .map(|(id, _)| id)
            .collect();
        for op in bolts {
            app = self.wrap_bolt(app, op, true);
        }
        app
    }

    /// Re-register `op` behind a [`BoltShim`] over the app's own factory.
    fn wrap_bolt(&self, app: AppRuntime, op: OperatorId, traced: bool) -> AppRuntime {
        let is_sink = op == self.sink_op;
        let digest = is_sink.then_some(self.w.app);
        let original = Arc::new(brisk_apps::app_sized(self.w.app.abbrev(), 0).expect("brisk app"));
        let log = self.log.clone();
        let factory = move |ctx: brisk_runtime::BoltContext| {
            let inner = match original.runtime(op) {
                OperatorRuntime::Bolt(f) | OperatorRuntime::Sink(f) => f(ctx),
                OperatorRuntime::Spout(_) => unreachable!("only bolts and sinks are wrapped"),
            };
            BoltShim::new(inner, op.0, ctx.replica, traced, digest, log.clone())
        };
        if is_sink {
            app.sink(op, factory)
        } else {
            app.bolt(op, factory)
        }
    }

    /// Optimize, wire and start the engine, wait for the first sink tuple,
    /// then either stop it (`probe`) or let it drain its input.
    fn run_once(&self, traced: bool, probe: bool) -> Result<(Setup, RunReport, f64), String> {
        let t0 = trace::now_ns();
        let plan = brisk_rlas::optimize(
            &self.machine,
            &self.topology,
            &self.w.scaling_options(&self.topology),
        )
        .ok_or("RLAS found no feasible plan")?;
        let t1 = trace::now_ns();
        if plan.plan.replication != self.plan.plan.replication {
            return Err(format!(
                "RLAS plan changed between repetitions: {:?} vs {:?}",
                plan.plan.replication, self.plan.plan.replication
            ));
        }
        let config = EngineConfig::builder()
            .scheduler(Scheduler::CorePool { workers: 0 })
            .build();
        let engine = Engine::with_plan(self.build_app(traced), &plan.plan, &self.machine, config)?;
        let cpu0 = host::cpu_seconds();
        let t2 = trace::now_ns();
        let handle = engine.start(RunLimit::Events {
            events: u64::MAX,
            timeout: REP_TIMEOUT,
        });
        let t3 = trace::now_ns();
        let timed_out = || handle.elapsed() > REP_TIMEOUT;
        while handle.sink_events() == 0 && !handle.is_finished() && !timed_out() {
            std::thread::yield_now();
        }
        let t4 = trace::now_ns();
        if probe {
            handle.request_stop();
        }
        while !handle.is_finished() && !timed_out() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let t5 = trace::now_ns();
        let report = handle.join();
        let cpu_s = host::cpu_seconds() - cpu0;
        drop(engine);
        let t6 = trace::now_ns();
        if traced {
            let phases = [
                ("optimize", t0, t1),
                ("wire", t1, t2),
                ("start", t2, t3),
                ("first_tuple", t3, t4),
                ("run", t4, t5),
                ("join", t5, t6),
            ];
            let mut log = self.log.lock().map_err(|e| e.to_string())?;
            log.phases.extend(phases);
        }
        let secs = |from: u64, to: u64| (to - from) as f64 / 1e9;
        let setup = Setup {
            optimize_s: secs(t0, t1),
            wire_s: secs(t1, t3),
            first_tuple_s: secs(t3, t4),
        };
        Ok((setup, report, cpu_s))
    }

    fn measure(&self, traced: bool) -> Result<Rep, String> {
        host::reset_peak_rss();
        let (setup, report, cpu_s) = self.run_once(traced, false)?;
        let peak_rss_mb = host::peak_rss_mb();
        let spouts = std::mem::take(&mut *self.spout_log.lock().map_err(|e| e.to_string())?);
        let digest = self.log.lock().map_err(|e| e.to_string())?.take_digest();
        let summary = report.fault_summary();
        let w = self.w;
        let outcome = gate::Outcome {
            input: w.input,
            emitted: spouts.emitted,
            expected_sink: w.expected_sink(),
            sink_events: report.sink_events,
            faults: summary.faults.len(),
            restarts: summary.restarts,
            quarantined: summary.quarantined,
            digest,
            expected_digest: self.oracle,
            paced: w.pace.map(|pace| gate::Paced {
                spout_span_s: spouts.paced_span_ns as f64 / 1e9,
                scheduled_s: pace.last_due_s(w.input),
                throughput: report.throughput,
                offered: pace.rate * w.app.sink_per_input() as f64,
            }),
        };
        Ok(Rep {
            setup,
            traced,
            report,
            cpu_s,
            peak_rss_mb,
            spouts,
            outcome,
        })
    }

    fn run(&self) -> Result<bool, String> {
        let mut setups = Vec::new();
        for _ in 0..SETUP_PROBES {
            setups.push(self.run_once(false, true)?.0);
            self.spout_log.lock().map_err(|e| e.to_string())?.emitted = 0;
            self.log.lock().map_err(|e| e.to_string())?.take_digest();
        }
        let kinds = if self.args.trace { 2 } else { 1 };
        let mut reps: Vec<Rep> = Vec::new();
        let mut measured_s = 0.0;
        while reps.len() < MIN_REPS * kinds || measured_s < self.args.seconds {
            let traced = self.args.trace && reps.len() % 2 == 1;
            let rep = self.measure(traced)?;
            measured_s += rep.report.elapsed.as_secs_f64();
            reps.push(rep);
        }
        // Set-up figures, like every end-to-end figure, come from untraced
        // engines only.
        setups.extend(reps.iter().filter(|r| !r.traced).map(|r| r.setup));
        if self.args.trace {
            let names: Vec<String> = self
                .topology
                .operators()
                .map(|(_, s)| s.name.clone())
                .collect();
            let path = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("{}-spans.csv", self.w.name));
            let log = self.log.lock().map_err(|e| e.to_string())?;
            log.write_spans(&path, &names)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!("spans: {} written to {}", log.spans.len(), path.display());
        }
        self.report(&reps, &setups)
    }

    /// Print the context, the metrics and the result line; return whether
    /// every repetition passed the gate.
    fn report(&self, reps: &[Rep], setups: &[Setup]) -> Result<bool, String> {
        let w = self.w;
        println!("context: {}", self.context_json());
        let mut failures = Vec::new();
        for (i, rep) in reps.iter().enumerate() {
            for f in rep.outcome.failures() {
                failures.push(format!("{}: repetition {i}: {f}", w.name));
            }
        }
        for f in &failures {
            eprintln!("CHECK FAILED {f}");
        }
        let per_rep: Vec<String> = reps
            .iter()
            .map(|r| {
                format!(
                    "{:.0}/{:.0}{}",
                    r.report.throughput,
                    stats::quantile(&r.report.latency_ns, 0.5) / 1e3,
                    if r.traced { "t" } else { "" }
                )
            })
            .collect();
        eprintln!(
            "{} repetitions (sink tuples/s / p50 us, t = traced): {}",
            w.name,
            per_rep.join(" ")
        );
        let attempted: u64 = reps.iter().map(|r| r.outcome.expected_sink).sum();
        let failed: u64 = reps.iter().map(|r| r.outcome.failed_tuples()).sum();

        let plain: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
        let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
        // Latency percentiles pool every untraced sample; the other figures
        // are medians over repetitions.
        let mut latency = Histogram::new();
        for r in &plain {
            latency.merge(&r.report.latency_ns);
        }
        let median_of = |f: &dyn Fn(&Rep) -> f64| {
            stats::median(&plain.iter().map(|r| f(r)).collect::<Vec<_>>())
        };
        let throughput = median_of(&|r| r.report.throughput);
        let e2e: Vec<(String, f64, &str)> = vec![
            ("throughput_eps", throughput, "1/s"),
            (
                "latency_p50_us",
                stats::quantile(&latency, 0.50) / 1e3,
                "us",
            ),
            (
                "latency_p90_us",
                stats::quantile(&latency, 0.90) / 1e3,
                "us",
            ),
            (
                "cpu_ns_per_tuple",
                median_of(&|r| r.cpu_s * 1e9 / r.report.sink_events.max(1) as f64),
                "ns",
            ),
            ("peak_rss_mb", median_of(&|r| r.peak_rss_mb), "MB"),
            (
                "setup_s",
                stats::median(&setups.iter().map(Setup::total_s).collect::<Vec<_>>()),
                "s",
            ),
        ]
        .into_iter()
        .map(|(name, value, unit)| (name.to_string(), value, unit))
        .collect();
        for (name, value, unit) in &e2e {
            println!("{} {name} {value} {unit}", w.name);
        }
        println!(
            "{} failed_frac {} share ({failed} of {attempted} sink tuples; latency samples {}, p99 {} us)",
            w.name,
            failed as f64 / attempted.max(1) as f64,
            latency.count(),
            stats::quantile(&latency, 0.99) / 1e3,
        );
        let metrics = if self.args.trace {
            let layers = self.per_layer(&traced, setups, &latency, throughput);
            for (name, value, unit) in &layers {
                println!("{} {name} {value} {unit}", w.name);
            }
            layers
        } else {
            e2e
        };
        let mut json = String::new();
        for (i, (name, value, unit)) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
            failures.is_empty()
        );
        Ok(failures.is_empty())
    }

    /// Per-layer metrics from the traced repetitions (spans, engine
    /// counters) and the plan, plus the tracing overhead against the
    /// untraced repetitions.
    fn per_layer(
        &self,
        traced: &[&Rep],
        setups: &[Setup],
        latency: &Histogram,
        untraced_eps: f64,
    ) -> Vec<(String, f64, &'static str)> {
        let log = self
            .log
            .lock()
            .expect("no wrapper panicked holding the log");
        let topology = &self.topology;
        let n_ops = topology.operator_count();
        let mut out: Vec<(String, f64, &'static str)> = Vec::new();
        let per_tuple = |ns: u64, tuples: u64| ns as f64 / tuples.max(1) as f64;
        let op_totals = |op: usize| log.ops.get(op).copied().unwrap_or_default();

        let spout = op_totals(self.spout_op.0);
        out.push((
            "apps.spout_ns_per_tuple".into(),
            per_tuple(spout.self_ns, spout.tuples),
            "ns",
        ));
        for op in 1..n_ops {
            let t = op_totals(op);
            out.push((
                format!("apps.busy_ns_per_tuple.op{op}"),
                per_tuple(t.busy_ns, t.tuples),
                "ns",
            ));
        }
        for op in 1..n_ops {
            let t = op_totals(op);
            out.push((
                format!("apps.self_ns_per_tuple.op{op}"),
                per_tuple(t.self_ns, t.tuples),
                "ns",
            ));
        }

        // Engine counters summed over the traced repetitions.
        let mut ops = vec![brisk_runtime::OpStats::default(); n_ops];
        let (mut allocs, mut recycled, mut wall_s) = (0u64, 0u64, 0.0);
        let mut replica_tuples: Vec<u64> = Vec::new();
        for r in traced {
            for (acc, s) in ops.iter_mut().zip(r.report.per_operator()) {
                acc.processed += s.processed;
                acc.queue_pushes += s.queue_pushes;
                acc.queue_full_events += s.queue_full_events;
            }
            allocs += r.report.slab_allocs;
            recycled += r.report.slab_recycled;
            wall_s += r.report.elapsed.as_secs_f64();
            let rates = r.report.replica_rates();
            replica_tuples.resize(rates.len(), 0);
            for (acc, rate) in replica_tuples.iter_mut().zip(&rates) {
                *acc += rate.tuples;
            }
        }
        let pushes: u64 = ops.iter().map(|s| s.queue_pushes).sum();
        let crossed: u64 = topology
            .operators()
            .filter(|(id, s)| s.kind != OperatorKind::Spout && !self.fusion.is_fused_away(*id))
            .map(|(id, _)| ops[id.0].processed)
            .sum();
        let full: u64 = ops.iter().map(|s| s.queue_full_events).sum();
        out.push((
            "runtime.queue.tuples_per_crossing".into(),
            per_tuple(crossed, pushes),
            "tuples",
        ));
        out.push((
            "runtime.queue.full_per_kcrossing".into(),
            1e3 * per_tuple(full, pushes),
            "count",
        ));
        out.push((
            "runtime.batch.slab_hit_ratio".into(),
            recycled as f64 / (allocs + recycled).max(1) as f64,
            "share",
        ));
        let call_ns: f64 = log.ops.iter().map(|t| t.estimated_call_ns()).sum();
        out.push((
            "runtime.scheduler.busy_share".into(),
            call_ns / 1e9 / (wall_s * self.workers as f64).max(f64::MIN_POSITIVE),
            "share",
        ));
        out.push((
            "runtime.partition.keyby_skew".into(),
            self.keyby_skew(&replica_tuples),
            "ratio",
        ));
        out.push((
            "runtime.fusion.fused_ops".into(),
            self.fusion.fused_op_count() as f64,
            "count",
        ));
        out.push((
            "numa.remote_pair_share".into(),
            self.remote_pair_share(),
            "share",
        ));

        let predicted =
            brisk_model::predict_for_plan(&self.machine, topology, &self.plan.plan).throughput;
        out.push(("model.predicted_eps".into(), predicted, "1/s"));
        out.push((
            "model.meas_over_pred".into(),
            untraced_eps / predicted,
            "ratio",
        ));

        let med = |f: fn(&Setup) -> f64| stats::median(&setups.iter().map(f).collect::<Vec<_>>());
        out.push(("rlas.optimize_s".into(), med(|s| s.optimize_s), "s"));
        out.push((
            "rlas.bnb_nodes".into(),
            self.plan.explored_nodes as f64,
            "count",
        ));
        out.push(("runtime.engine.wire_s".into(), med(|s| s.wire_s), "s"));
        out.push((
            "runtime.engine.first_tuple_s".into(),
            med(|s| s.first_tuple_s),
            "s",
        ));

        let mut lag = Histogram::new();
        for r in traced {
            lag.merge(&r.spouts.lag_ns);
        }
        out.push((
            "apps.gen_lag_p50_us".into(),
            stats::quantile(&lag, 0.50) / 1e3,
            "us",
        ));
        out.push((
            "apps.gen_lag_p99_us".into(),
            stats::quantile(&lag, 0.99) / 1e3,
            "us",
        ));
        out.push((
            "latency_p99_us".into(),
            stats::quantile(latency, 0.99) / 1e3,
            "us",
        ));
        out.push((
            "latency_p999_us".into(),
            stats::quantile(latency, 0.999) / 1e3,
            "us",
        ));
        out.push(("latency_samples".into(), latency.count() as f64, "count"));

        let traced_eps = stats::median(
            &traced
                .iter()
                .map(|r| r.report.throughput)
                .collect::<Vec<_>>(),
        );
        out.push((
            "trace.overhead_share".into(),
            1.0 - traced_eps / untraced_eps,
            "share",
        ));
        out
    }

    /// Global index of each operator's first replica (replicas are
    /// numbered operator-major, as in `plan_replica_sockets`).
    fn replica_base(&self) -> Vec<usize> {
        self.plan
            .plan
            .replication
            .iter()
            .scan(0, |next, &n| {
                let first = *next;
                *next += n;
                Some(first)
            })
            .collect()
    }

    /// Largest max/mean tuple ratio across the replicas of any operator fed
    /// by a KeyBy edge (1 when every such operator runs one replica).
    fn keyby_skew(&self, replica_tuples: &[u64]) -> f64 {
        let replication = &self.plan.plan.replication;
        let base = self.replica_base();
        let mut skew: f64 = 1.0;
        for e in self.topology.edges() {
            let (op, n) = (e.to.0, replication[e.to.0]);
            if e.partitioning != Partitioning::KeyBy || n < 2 {
                continue;
            }
            let Some(counts) = replica_tuples.get(base[op]..base[op] + n) else {
                continue;
            };
            let mean = counts.iter().sum::<u64>() as f64 / n as f64;
            let max = counts.iter().copied().max().unwrap_or(0) as f64;
            if mean > 0.0 {
                skew = skew.max(max / mean);
            }
        }
        skew
    }

    /// Share of communicating producer→consumer replica pairs whose
    /// replicas sit on different sockets.
    fn remote_pair_share(&self) -> f64 {
        let replication = &self.plan.plan.replication;
        let base = self.replica_base();
        let (mut pairs, mut remote) = (0u64, 0u64);
        for e in self.topology.edges() {
            let (p, c) = (e.from.0, e.to.0);
            let (np, nc) = (replication[p], replication[c]);
            for i in 0..np {
                let targets: Vec<usize> = match e.partitioning {
                    Partitioning::Global => vec![0],
                    Partitioning::Forward if np == nc => vec![i],
                    _ => (0..nc).collect(),
                };
                for j in targets {
                    pairs += 1;
                    remote += u64::from(self.sockets[base[p] + i] != self.sockets[base[c] + j]);
                }
            }
        }
        remote as f64 / pairs.max(1) as f64
    }

    fn context_json(&self) -> String {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let sockets: Vec<usize> = self.sockets.iter().map(|s| s.0).collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"nproc\": {}, \"cpu_model\": \"{}\", \"kernel\": \"{}\", \"git_commit\": \"{}\", \
             \"machine\": \"{}\", \"replication\": {:?}, \"replica_sockets\": {:?}, \
             \"pool_workers\": {}, \"fused_ops\": {}, \"input_per_rep\": {}, \"offered_rate\": {}, \"burst\": {}}}",
            self.w.name,
            self.args.seed,
            self.args.seconds,
            u8::from(self.args.trace),
            host::nproc(),
            host::cpu_model().replace('"', "'"),
            host::kernel(),
            host::git_commit(&root),
            self.machine.name(),
            self.plan.plan.replication,
            sockets,
            self.workers,
            self.fusion.fused_op_count(),
            self.w.input,
            self.w.pace.map_or("null".to_string(), |p| p.rate.to_string()),
            self.w.pace.map_or("null".to_string(), |p| p.burst.to_string()),
        )
    }
}
