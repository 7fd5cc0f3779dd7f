//! The threaded execution engine.
//!
//! One OS thread per operator replica, wired by bounded queues carrying
//! jumbo tuples. Shutdown cascades topologically: the run deadline stops the
//! spouts; a bolt exits once every producer operator has finished *and* its
//! input queues are drained, so no tuple in flight is lost.
//!
//! On a development host there is no 8-socket NUMA machine to pin against,
//! so the engine keeps placement as bookkeeping and can optionally *inject*
//! the remote-fetch penalty of a virtual machine ([`NumaPenalty`]): when a
//! consumer pops a jumbo produced on a different (virtual) socket it spins
//! for `tuples × ceil(N/S) × L(i,j)` nanoseconds — the exact Formula 2 cost
//! the real hardware would charge. This keeps execution-plan shapes
//! meaningful end to end.

use crate::batch::{Batch, BatchCursor, SlabPool, SlabStats};
use crate::fusion::{FusedSinkState, FusedTarget, SinkLocal, SinkProgress};
use crate::operator::{
    AppRuntime, BoltContext, Collector, DynBolt, DynSpout, EngineClock, OperatorRuntime,
    OutputEdge, SpoutStatus, StateEntry,
};
use crate::partition::Partitioner;
use crate::scheduler::{self, PoolRun, Scheduler, WakeHub};
use crate::spsc::{Backoff, BackoffProfile, SpscQueue};
use crate::supervise::{
    self, panic_message, FaultKind, FaultSummary, ReplicaFault, RestartPolicy, StallEvent,
    WatchEntry,
};
use crate::tuple::JumboTuple;
use brisk_dag::{
    ExecutionGraph, ExecutionPlan, FusionPlan, LogicalTopology, OperatorId, OperatorKind,
    Partitioning,
};
use brisk_metrics::Histogram;
use brisk_numa::{Machine, SocketId, CACHE_LINE_BYTES};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Injected NUMA fetch costs for a virtual machine.
#[derive(Debug, Clone)]
pub struct NumaPenalty {
    /// The virtual machine whose latency matrix is charged.
    pub machine: Machine,
    /// Virtual socket of every global replica index.
    pub replica_socket: Vec<SocketId>,
    /// Scale factor on the injected spin (1.0 = charge full Formula 2 cost).
    pub scale: f64,
}

impl NumaPenalty {
    fn fetch_ns(&self, producer: usize, consumer: usize, bytes: f64, tuples: usize) -> u64 {
        let (i, j) = (self.replica_socket[producer], self.replica_socket[consumer]);
        if i == j {
            return 0;
        }
        let lines = (bytes / CACHE_LINE_BYTES as f64).ceil().max(1.0);
        (lines * self.machine.latency_ns(i, j) * self.scale * tuples as f64) as u64
    }
}

/// Engine tuning knobs.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`EngineConfig::builder`] (or start from [`EngineConfig::default`] and
/// assign fields), so new knobs — like [`EngineConfig::scheduler`] — stop
/// being breaking changes.
///
/// ```
/// use brisk_runtime::{EngineConfig, Scheduler};
///
/// let config = EngineConfig::builder()
///     .fusion(false)
///     .scheduler(Scheduler::CorePool { workers: 4 })
///     .build();
/// assert_eq!(config.scheduler, Scheduler::CorePool { workers: 4 });
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct EngineConfig {
    /// Queue capacity in jumbo tuples.
    pub queue_capacity: usize,
    /// Tuples batched per jumbo tuple (1 disables the jumbo optimization).
    ///
    /// This is a seal threshold, not a cap. Under [`Scheduler::CorePool`]
    /// a back-pressured task stops sealing at this size: its open batch
    /// keeps growing until the next flush, which ships it as one jumbo
    /// larger than `jumbo_size`. That is why tuples per crossing can
    /// exceed `jumbo_size` in pool runs.
    pub jumbo_size: usize,
    /// Park interval ceiling for the adaptive spin → yield → park back-off
    /// ladder (see [`Backoff`]) — governs both idle executors polling
    /// empty inputs and producers blocked on a full SPSC ring.
    pub poll_backoff: Duration,
    /// Emit-side flush cadence, in operator invocations.
    pub flush_every: u32,
    /// Optional virtual-NUMA fetch penalty.
    pub numa_penalty: Option<NumaPenalty>,
    /// Artificial extra cost per consumed tuple, in nanoseconds — lets tests
    /// and examples emulate heavier (distributed-style) engines. Charged on
    /// the queue pop path, so fused edges (which never cross a queue) skip
    /// it, like they skip the NUMA penalty.
    pub extra_cost_ns_per_tuple: u64,
    /// Operator-chain fusion (default on): 1:1 collocated producer→consumer
    /// chains collapse into a single executor calling the downstream
    /// operator inline instead of routing through a queue (see
    /// [`brisk_dag::FusionPlan`] for eligibility). Disable for A/B runs.
    pub fusion: bool,
    /// How replicas map onto OS threads: one thread per replica (default)
    /// or the work-stealing core pool (see [`Scheduler`]).
    pub scheduler: Scheduler,
    /// What happens when a replica's operator panics: retire it on first
    /// fault (default) or restart it with exponential backoff (see
    /// [`RestartPolicy`]). Either way the panic is contained, the faulting
    /// tuple (when attributable) is quarantined, and the run terminates
    /// cleanly with the fault in [`RunReport::faults`].
    pub restart: RestartPolicy,
    /// Optional stall watchdog: when set, a supervisor thread samples
    /// per-replica progress counters and records a [`StallEvent`] for any
    /// bolt/sink replica that makes no progress within the deadline while
    /// input is pending and no output queue is full (back-pressured
    /// replicas are never flagged). Observation only — no replica is ever
    /// killed by the watchdog.
    pub stall_deadline: Option<Duration>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            queue_capacity: 64,
            jumbo_size: 64,
            poll_backoff: Duration::from_micros(100),
            flush_every: 256,
            numa_penalty: None,
            extra_cost_ns_per_tuple: 0,
            fusion: true,
            scheduler: Scheduler::default(),
            restart: RestartPolicy::default(),
            stall_deadline: None,
        }
    }
}

impl EngineConfig {
    /// Chainable builder starting from [`EngineConfig::default`].
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            config: EngineConfig::default(),
        }
    }
}

/// Chainable builder for [`EngineConfig`]; see [`EngineConfig::builder`].
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Queue capacity in jumbos ([`EngineConfig::queue_capacity`]).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Tuples per jumbo ([`EngineConfig::jumbo_size`]).
    pub fn jumbo_size(mut self, size: usize) -> Self {
        self.config.jumbo_size = size;
        self
    }

    /// Park ceiling of the wait ladder ([`EngineConfig::poll_backoff`]).
    pub fn poll_backoff(mut self, interval: Duration) -> Self {
        self.config.poll_backoff = interval;
        self
    }

    /// Emit-side flush cadence ([`EngineConfig::flush_every`]).
    pub fn flush_every(mut self, invocations: u32) -> Self {
        self.config.flush_every = invocations;
        self
    }

    /// Inject a virtual-NUMA fetch penalty ([`EngineConfig::numa_penalty`]).
    pub fn numa_penalty(mut self, penalty: NumaPenalty) -> Self {
        self.config.numa_penalty = Some(penalty);
        self
    }

    /// Artificial per-tuple consume cost
    /// ([`EngineConfig::extra_cost_ns_per_tuple`]).
    pub fn extra_cost_ns_per_tuple(mut self, ns: u64) -> Self {
        self.config.extra_cost_ns_per_tuple = ns;
        self
    }

    /// Toggle operator-chain fusion ([`EngineConfig::fusion`]).
    pub fn fusion(mut self, enabled: bool) -> Self {
        self.config.fusion = enabled;
        self
    }

    /// Select the execution scheduler ([`EngineConfig::scheduler`]).
    pub fn scheduler(mut self, scheduler: Scheduler) -> Self {
        self.config.scheduler = scheduler;
        self
    }

    /// Replica restart policy on operator panic
    /// ([`EngineConfig::restart`]).
    pub fn restart(mut self, policy: RestartPolicy) -> Self {
        self.config.restart = policy;
        self
    }

    /// Arm the stall watchdog ([`EngineConfig::stall_deadline`]).
    pub fn stall_deadline(mut self, deadline: Duration) -> Self {
        self.config.stall_deadline = Some(deadline);
        self
    }

    /// Finish the chain.
    pub fn build(self) -> EngineConfig {
        self.config
    }
}

/// Aggregated results of one engine run.
#[derive(Debug)]
pub struct RunReport {
    /// Wall-clock run time (including drain).
    pub elapsed: Duration,
    /// Tuples received by sink operators.
    pub sink_events: u64,
    /// `sink_events / elapsed` in events per second.
    pub throughput: f64,
    /// End-to-end latency (spout emit → sink receive), nanoseconds.
    pub latency_ns: Histogram,
    /// Input-side tuples consumed per operator. Spouts have no input and
    /// report 0 here — their emission counts are in `emitted`,
    /// so spout emission rate and sink consumption rate are distinguishable.
    #[deprecated(note = "use `RunReport::operator(op).processed` instead")]
    pub processed: Vec<u64>,
    /// Output-side tuples emitted per operator across all streams (sinks
    /// normally 0; spouts: their generation count).
    #[deprecated(note = "use `RunReport::operator(op).emitted` instead")]
    pub emitted: Vec<u64>,
    /// Queue-pressure events per operator: jumbo flushes that found a
    /// destination queue full, i.e. the producer stalled on back-pressure.
    /// Counted once per stalled flush (one jumbo to one destination
    /// queue), so a broadcast edge with several slow consumers records one
    /// stall per consumer queue.
    #[deprecated(note = "use `RunReport::operator(op).queue_full_events` instead")]
    pub queue_full_events: Vec<u64>,
    /// Queue crossings per operator: jumbo tuples this operator pushed to
    /// consumer queues. Fused edges deliver inline and never count here —
    /// the fused-vs-unfused A/B reads this to verify fusion actually
    /// removed crossings.
    #[deprecated(note = "use `RunReport::operator(op).queue_pushes` instead")]
    pub queue_pushes: Vec<u64>,
    /// Payload slabs freshly allocated by the batch fabric over the whole
    /// run (pool misses). Steady state should be dominated by
    /// [`RunReport::slab_recycled`] instead.
    pub slab_allocs: u64,
    /// Payload slabs reused from a producer arena pool (pool hits) — the
    /// zero-allocation steady-state path.
    pub slab_recycled: u64,
    /// Replica restarts per operator (supervision).
    op_restarts: Vec<u64>,
    /// Quarantined (dead-lettered) tuples per operator.
    op_quarantined: Vec<u64>,
    /// Faults attributed per operator.
    op_fault_counts: Vec<u64>,
    /// Every structured fault of the run, in occurrence order.
    faults: Vec<ReplicaFault>,
    /// Every watchdog stall observation of the run.
    stalls: Vec<StallEvent>,
    /// Tuples handled per global replica (spouts: emitted; bolts/sinks:
    /// consumed, including inline fused deliveries).
    replica_tuples: Vec<u64>,
    /// Nanoseconds each global replica spent inside its operator's
    /// `consume` (bolts/sinks only; spout slots stay 0).
    replica_busy: Vec<u64>,
    /// `(operator index, replica index)` of every global replica slot, in
    /// global-index order.
    replica_map: Vec<(usize, usize)>,
}

/// One replica's measured tuple rate — the per-replica signal the elastic
/// controller (and users, via [`RunReport::replica_rates`] or the live
/// [`EngineHandle::rates`]) reads to detect workload drift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaRate {
    /// Logical operator index.
    pub op: usize,
    /// Replica index within the operator.
    pub replica: usize,
    /// Tuples this replica handled: emitted for spout replicas, consumed
    /// (queued pops plus inline fused deliveries) for bolts and sinks.
    pub tuples: u64,
    /// `tuples` divided by the sampling window, per second.
    pub rate: f64,
    /// Nanoseconds spent inside the operator's `consume` calls — execution
    /// plus emission, including time blocked pushing to full downstream
    /// queues, and including inline work of fused targets riding this
    /// replica. Spout replicas report 0 (generation is not instrumented).
    pub busy_ns: u64,
}

impl ReplicaRate {
    /// Measured service time per tuple in nanoseconds — the online
    /// counterpart of the cost model's per-tuple `T(p)`; `None` when the
    /// replica has no instrumented busy time (spouts, starved replicas).
    pub fn service_ns(&self) -> Option<f64> {
        (self.busy_ns > 0 && self.tuples > 0).then(|| self.busy_ns as f64 / self.tuples as f64)
    }
}

/// Per-operator slice of a [`RunReport`], indexed by logical operator (see
/// [`RunReport::operator`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpStats {
    /// Input-side tuples this operator consumed (0 for spouts).
    pub processed: u64,
    /// Output-side tuples this operator emitted across all streams.
    pub emitted: u64,
    /// Jumbo flushes that found a destination queue full (back-pressure
    /// stalls charged to this operator as a producer).
    pub queue_full_events: u64,
    /// Jumbo tuples this operator pushed to consumer queues (fused edges
    /// deliver inline and never count).
    pub queue_pushes: u64,
    /// Replica restarts granted to this operator by the
    /// [`RestartPolicy`].
    pub restarts: u64,
    /// Tuples quarantined (dead-lettered) at this operator: each poison
    /// tuple whose `execute` panicked, plus any tuple delivered to a dead
    /// fused instance. At-most-once for these; exactly-once otherwise.
    pub quarantined: u64,
    /// Faults attributed to this operator (each restart or death records
    /// one).
    pub faults: u64,
}

#[allow(deprecated)]
impl RunReport {
    /// Throughput in the paper's unit (k events/s).
    pub fn k_events_per_sec(&self) -> f64 {
        self.throughput / 1e3
    }

    /// All counters of one logical operator, by operator index — the
    /// supported replacement for indexing the deprecated parallel vectors.
    pub fn operator(&self, op: usize) -> OpStats {
        OpStats {
            processed: self.processed[op],
            emitted: self.emitted[op],
            queue_full_events: self.queue_full_events[op],
            queue_pushes: self.queue_pushes[op],
            restarts: self.op_restarts[op],
            quarantined: self.op_quarantined[op],
            faults: self.op_fault_counts[op],
        }
    }

    /// Number of logical operators covered by this report.
    pub fn operator_count(&self) -> usize {
        self.processed.len()
    }

    /// Every operator's counters, in operator order — convenient for
    /// whole-topology assertions (e.g. cross-configuration determinism).
    pub fn per_operator(&self) -> Vec<OpStats> {
        (0..self.operator_count())
            .map(|i| self.operator(i))
            .collect()
    }

    /// Measured input-side processing rate of one operator, tuples/sec
    /// (0 for spouts — see [`RunReport::output_rate`]).
    pub fn input_rate(&self, op: usize) -> f64 {
        self.operator(op).processed as f64 / self.elapsed.as_secs_f64()
    }

    /// Measured output-side emission rate of one operator, tuples/sec
    /// (the measured counterpart of the model's per-operator `ro`).
    pub fn output_rate(&self, op: usize) -> f64 {
        self.operator(op).emitted as f64 / self.elapsed.as_secs_f64()
    }

    /// Every structured fault of the run, in occurrence order (empty on a
    /// clean run).
    pub fn faults(&self) -> &[ReplicaFault] {
        &self.faults
    }

    /// Every watchdog stall observation (empty unless
    /// [`EngineConfig::stall_deadline`] was armed and a replica stalled).
    pub fn stalls(&self) -> &[StallEvent] {
        &self.stalls
    }

    /// Measured per-replica tuple rates over the whole run, in global
    /// replica order (operator-major). Spout replicas report their emission
    /// rate; bolt and sink replicas their consumption rate, counting inline
    /// fused deliveries against the fused operator's replica — the same
    /// per-replica signal [`EngineHandle::rates`] exposes live.
    pub fn replica_rates(&self) -> Vec<ReplicaRate> {
        let secs = self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
        self.replica_map
            .iter()
            .zip(self.replica_tuples.iter().zip(&self.replica_busy))
            .map(|(&(op, replica), (&tuples, &busy_ns))| ReplicaRate {
                op,
                replica,
                tuples,
                rate: tuples as f64 / secs,
                busy_ns,
            })
            .collect()
    }

    /// Aggregated fault view of the run: faults, stalls, and run-wide
    /// restart/quarantine totals.
    pub fn fault_summary(&self) -> FaultSummary {
        FaultSummary {
            faults: self.faults.clone(),
            stalls: self.stalls.clone(),
            restarts: self.op_restarts.iter().sum(),
            quarantined: self.op_quarantined.iter().sum(),
        }
    }
}

/// One wired input of a replica: the queue plus the Formula 2 bookkeeping
/// the consumer charges per pop.
pub(crate) struct InputPort {
    pub(crate) queue: Arc<SpscQueue<JumboTuple>>,
    /// Output bytes per tuple of the producing operator (Formula 2's `N`).
    /// The producing *replica* is read per jumbo from
    /// [`JumboTuple::producer`].
    pub(crate) producer_bytes: f64,
}

/// The wired, ready-to-run engine.
pub struct Engine {
    app: Arc<AppRuntime>,
    replication: Vec<usize>,
    config: EngineConfig,
    /// When set, *any* stop (run limit, drain, migration request) harvests
    /// operator state through `extract_state` instead of running `finish` —
    /// the deterministic migration-pause mode the elastic controller and
    /// the migration conformance tests use.
    capture_state_on_stop: bool,
    /// State handed over from a predecessor engine, installed into the
    /// matching replicas at start. Consumed by the first `start`.
    preload: Mutex<Vec<(usize, usize, Vec<StateEntry>)>>,
    /// Skew-aware KeyBy routing weights per *consumer* operator index
    /// (one weight per consumer replica), fed into the partitioners of
    /// every unfused KeyBy edge into that operator.
    keyby_weights: HashMap<usize, Vec<f64>>,
}

impl Engine {
    /// Build an engine running `replication[op]` replicas of each operator.
    pub fn new(
        app: AppRuntime,
        replication: Vec<usize>,
        config: EngineConfig,
    ) -> Result<Engine, String> {
        Engine::from_shared(Arc::new(app), replication, config)
    }

    /// Like [`Engine::new`] but sharing an already-wrapped [`AppRuntime`] —
    /// successive migration epochs rebuild the engine around the same app
    /// without re-registering operator factories.
    pub fn from_shared(
        app: Arc<AppRuntime>,
        replication: Vec<usize>,
        config: EngineConfig,
    ) -> Result<Engine, String> {
        app.validate()?;
        if replication.len() != app.topology.operator_count() {
            return Err("replication must cover every operator".into());
        }
        if replication.contains(&0) {
            return Err("replication level must be at least 1".into());
        }
        let total: usize = replication.iter().sum();
        if total > 512 {
            return Err(format!("{total} replicas exceed the 512-thread safety cap"));
        }
        Ok(Engine {
            app,
            replication,
            config,
            capture_state_on_stop: false,
            preload: Mutex::new(Vec::new()),
            keyby_weights: HashMap::new(),
        })
    }

    /// Harvest operator state on *every* stop — run limit, natural drain or
    /// migration request — instead of running `finish` hooks. The harvested
    /// entries come back through [`EngineHandle::join_with_state`]. This is
    /// the migration-pause mode: `finish` finals belong to the true end of
    /// the stream, which only the last epoch's (non-capturing) engine
    /// reaches.
    pub fn capture_state_on_stop(&mut self, capture: bool) {
        self.capture_state_on_stop = capture;
    }

    /// Stage migrated state for `replica` of operator `op`, installed via
    /// `install_state` right after the replica's operator is constructed
    /// (before it produces or consumes anything). Consumed by the first
    /// [`Engine::start`]; a restarted replica re-instances from the plain
    /// factory, exactly as before.
    pub fn preload_state(
        &self,
        op: usize,
        replica: usize,
        entries: Vec<StateEntry>,
    ) -> Result<(), String> {
        if op >= self.replication.len() {
            return Err(format!("operator index {op} out of range"));
        }
        if replica >= self.replication[op] {
            return Err(format!(
                "replica {replica} out of range for operator {op} ({} replicas)",
                self.replication[op]
            ));
        }
        self.preload.lock().push((op, replica, entries));
        Ok(())
    }

    /// Skew-aware KeyBy routing: weight the key-space share of each replica
    /// of consumer operator `op` (one weight per replica, relative). Fed
    /// into every unfused KeyBy edge into `op`; fused KeyBy edges keep the
    /// uniform aligned routing their pairing was computed for. See
    /// [`crate::partition::keyby_slot_table`] for the slot semantics.
    pub fn set_keyby_weights(&mut self, op: usize, weights: Vec<f64>) -> Result<(), String> {
        if op >= self.replication.len() {
            return Err(format!("operator index {op} out of range"));
        }
        if weights.len() != self.replication[op] {
            return Err(format!(
                "expected {} weights for operator {op}, got {}",
                self.replication[op],
                weights.len()
            ));
        }
        self.keyby_weights.insert(op, weights);
        Ok(())
    }

    /// Build an engine from an optimized [`ExecutionPlan`], charging the
    /// plan's NUMA fetch costs against `machine`'s latency matrix.
    pub fn with_plan(
        app: AppRuntime,
        plan: &ExecutionPlan,
        machine: &Machine,
        mut config: EngineConfig,
    ) -> Result<Engine, String> {
        config.numa_penalty = Some(NumaPenalty {
            machine: machine.clone(),
            replica_socket: plan_replica_sockets(&app.topology, plan),
            scale: 1.0,
        });
        Engine::new(app, plan.replication.clone(), config)
    }

    /// Virtual socket of every global replica index, when the engine was
    /// built from a plan ([`Engine::with_plan`]) or given an explicit
    /// [`NumaPenalty`].
    pub fn replica_sockets(&self) -> Option<&[SocketId]> {
        self.config
            .numa_penalty
            .as_ref()
            .map(|p| p.replica_socket.as_slice())
    }

    /// Total replica threads this engine will spawn.
    pub fn total_replicas(&self) -> usize {
        self.replication.iter().sum()
    }

    /// Run the wired topology until `limit` is reached, then drain every
    /// in-flight tuple and report. This is the single execution surface:
    /// [`Engine::run_for`] and [`Engine::run_until_events`] are thin
    /// wrappers over the two [`RunLimit`] variants.
    ///
    /// # Example
    ///
    /// Build a tiny spout → bolt → sink app, pick fusion and the scheduler
    /// through the config builder, and run to exhaustion:
    ///
    /// ```
    /// use brisk_dag::{CostProfile, TopologyBuilder, DEFAULT_STREAM};
    /// use brisk_runtime::{
    ///     AppRuntime, Collector, DynBolt, DynSpout, Engine, EngineConfig, RunLimit, Scheduler,
    ///     SpoutStatus, TupleView,
    /// };
    /// use std::time::Duration;
    ///
    /// struct Nums(u64);
    /// impl DynSpout for Nums {
    ///     fn next(&mut self, c: &mut Collector) -> SpoutStatus {
    ///         if self.0 == 0 {
    ///             return SpoutStatus::Exhausted;
    ///         }
    ///         self.0 -= 1;
    ///         let now = c.now_ns();
    ///         c.send_default(self.0, now, self.0);
    ///         SpoutStatus::Emitted(1)
    ///     }
    /// }
    /// struct Relay;
    /// impl DynBolt for Relay {
    ///     fn execute(&mut self, t: &TupleView<'_>, c: &mut Collector) {
    ///         let v = *t.value::<u64>().expect("u64 payloads");
    ///         c.send_default(v, t.event_ns, t.key);
    ///     }
    /// }
    /// struct Discard;
    /// impl DynBolt for Discard {
    ///     fn execute(&mut self, _t: &TupleView<'_>, _c: &mut Collector) {}
    /// }
    ///
    /// let mut b = TopologyBuilder::new("quick");
    /// let s = b.add_spout("nums", CostProfile::trivial());
    /// let x = b.add_bolt("relay", CostProfile::trivial());
    /// let k = b.add_sink("sink", CostProfile::trivial());
    /// b.connect_shuffle(s, x);
    /// b.connect_shuffle(x, k);
    /// let topology = b.build().unwrap();
    /// let (s, x, k) = (
    ///     topology.find("nums").unwrap(),
    ///     topology.find("relay").unwrap(),
    ///     topology.find("sink").unwrap(),
    /// );
    /// let app = AppRuntime::new(topology)
    ///     .spout(s, |_| Nums(200))
    ///     .bolt(x, |_| Relay)
    ///     .sink(k, |_| Discard);
    ///
    /// let config = EngineConfig::builder()
    ///     .fusion(true)
    ///     .scheduler(Scheduler::CorePool { workers: 2 })
    ///     .build();
    /// let engine = Engine::new(app, vec![1, 1, 1], config).unwrap();
    /// let report = engine.run(RunLimit::Events {
    ///     events: 200,
    ///     timeout: Duration::from_secs(60),
    /// });
    /// assert_eq!(report.sink_events, 200);
    /// assert_eq!(report.operator(1).processed, 200);
    /// ```
    ///
    /// Plan-driven runs work the same way: build via [`Engine::with_plan`]
    /// (which charges the plan's NUMA fetch costs) and call
    /// `run(...)` / [`Engine::run_until_events`] on the result.
    pub fn run(&self, limit: RunLimit) -> RunReport {
        self.start(limit).join()
    }

    /// Run until `deadline` elapses, then drain and report
    /// (`RunLimit::Duration` convenience).
    pub fn run_for(&self, deadline: Duration) -> RunReport {
        self.run(RunLimit::Duration(deadline))
    }

    /// Run until the sinks have received at least `events` tuples (or
    /// `timeout` elapses), then drain and report
    /// (`RunLimit::Events` convenience). Deterministic-ish runs for tests.
    pub fn run_until_events(&self, events: u64, timeout: Duration) -> RunReport {
        self.run(RunLimit::Events { events, timeout })
    }

    /// Wire and spawn the topology, returning a live [`EngineHandle`]
    /// without blocking on the run limit. The handle exposes live
    /// per-replica rates ([`EngineHandle::rates`]) and the migration pause
    /// ([`EngineHandle::request_migration`]);
    /// [`EngineHandle::join`] drives the limit and reports — `run(limit)`
    /// is exactly `start(limit).join()`.
    pub fn start(&self, condition: RunLimit) -> EngineHandle {
        let topology = &self.app.topology;
        let n_ops = topology.operator_count();
        let replica_base: Vec<usize> = {
            let mut base = vec![0usize; n_ops];
            let mut acc = 0;
            for (i, b) in base.iter_mut().enumerate() {
                *b = acc;
                acc += self.replication[i];
            }
            base
        };
        let total_replicas: usize = self.replication.iter().sum();

        // Operator-chain fusion: 1:1 replica-paired collocated chains
        // (single-replica chains, Forward edges, aligned KeyBy) collapse
        // into their host executors; fused edges get no queues at all.
        let fusion = if self.config.fusion {
            FusionPlan::compute(topology, &self.replication, self.replica_sockets())
        } else {
            FusionPlan::disabled(topology)
        };
        let spawned_replicas = fusion.spawned_executors(&self.replication);
        // Scheduler selection: `Some(n)` means the core pool drives every
        // task on `n` workers; `None` keeps one OS thread per replica.
        let pool_workers = self.config.scheduler.pool_workers(spawned_replicas);
        // Oversubscription-aware wait ladder: when runtime threads
        // outnumber hardware cores, spinning burns the timeslices the
        // counterpart threads need, so waiters park almost immediately.
        // The pool never oversubscribes by construction — its thread count
        // is the worker count, not the replica count.
        let backoff_profile = BackoffProfile::detect(
            pool_workers.unwrap_or(spawned_replicas),
            self.config.poll_backoff,
        );
        let wake_hub = pool_workers.map(|_| Arc::new(WakeHub::new(total_replicas)));

        // Slab arenas for the zero-copy batch fabric: one pool per
        // (operator, replica) producer, all reporting into one engine-wide
        // stats sink so teardown can assert every slab came home.
        let slab_stats = Arc::new(SlabStats::default());
        let pools: Vec<Vec<Arc<SlabPool>>> = self
            .replication
            .iter()
            .map(|&r| {
                (0..r)
                    .map(|_| SlabPool::new(Arc::clone(&slab_stats)))
                    .collect()
            })
            .collect();

        let (inputs, mut op_outputs) =
            self.wire_queues(&fusion, &replica_base, &pools, backoff_profile);

        // Shared run state. `live_replicas` counts tasks still running:
        // it lets the driver stop waiting early when finite (sized) spouts
        // exhaust and the whole pipeline drains before the event target or
        // deadline is reached, and tells pool workers when to exit.
        // Fused-away operators have no task of their own.
        let clock = Arc::new(EngineClock::new());
        let shared = Arc::new(EngineShared {
            app: Arc::clone(&self.app),
            config: self.config.clone(),
            backoff_profile,
            clock: Arc::clone(&clock),
            stop: AtomicBool::new(false),
            op_done: (0..n_ops).map(|_| AtomicBool::new(false)).collect(),
            op_live: self
                .replication
                .iter()
                .map(|&r| AtomicUsize::new(r))
                .collect(),
            processed: (0..n_ops).map(|_| AtomicU64::new(0)).collect(),
            emitted: (0..n_ops).map(|_| AtomicU64::new(0)).collect(),
            queue_full: (0..n_ops).map(|_| AtomicU64::new(0)).collect(),
            queue_pushes: (0..n_ops).map(|_| AtomicU64::new(0)).collect(),
            live_replicas: AtomicUsize::new(spawned_replicas),
            sink_progress: Arc::new(SinkProgress {
                events: AtomicU64::new(0),
            }),
            restarts: (0..n_ops).map(|_| AtomicU64::new(0)).collect(),
            quarantined: (0..n_ops).map(|_| AtomicU64::new(0)).collect(),
            op_faults: (0..n_ops).map(|_| AtomicU64::new(0)).collect(),
            faults: Mutex::new(Vec::new()),
            stalls: Mutex::new(Vec::new()),
            progress: (0..total_replicas).map(|_| AtomicU64::new(0)).collect(),
            replica_done: (0..total_replicas)
                .map(|_| AtomicBool::new(false))
                .collect(),
            harvest: AtomicBool::new(self.capture_state_on_stop),
            harvested: Mutex::new(Vec::new()),
            retired: Mutex::new(Vec::new()),
            preload: {
                let slots: Vec<Mutex<Option<Vec<StateEntry>>>> =
                    (0..total_replicas).map(|_| Mutex::new(None)).collect();
                let mut covered = vec![false; n_ops];
                for (op, replica, entries) in std::mem::take(&mut *self.preload.lock()) {
                    covered[op] = true;
                    *slots[replica_base[op] + replica].lock() = Some(entries);
                }
                // A migrated operator's hand-off must reach EVERY replica:
                // one that received no entries still gets an (empty)
                // install so it learns the migration happened — a
                // budget-sharded spout would otherwise re-derive a fresh
                // factory share next to peers carrying the real positions,
                // duplicating input.
                for (op, &covered) in covered.iter().enumerate() {
                    if !covered {
                        continue;
                    }
                    for r in 0..self.replication[op] {
                        let slot = &slots[replica_base[op] + r];
                        let mut guard = slot.lock();
                        if guard.is_none() {
                            *guard = Some(Vec::new());
                        }
                    }
                }
                slots
            },
            replica_tuples: (0..total_replicas).map(|_| AtomicU64::new(0)).collect(),
            replica_busy_ns: (0..total_replicas).map(|_| AtomicU64::new(0)).collect(),
            replica_base: replica_base.clone(),
            replica_map: self
                .replication
                .iter()
                .enumerate()
                .flat_map(|(op, &r)| (0..r).map(move |i| (op, i)))
                .collect(),
        });

        // Build fused targets bottom-up (reverse topological order), so a
        // chain's tail exists before the operator that hosts it. Fusion
        // pairs replicas index-wise (a fused edge requires equal replica
        // counts), so each fused-away operator gets one instance *per
        // replica pair*, each with its own collector; replica r's subtree
        // then attaches to the chain host's replica-r collector.
        let mut pending_fused: Vec<Vec<Vec<FusedTarget>>> = self
            .replication
            .iter()
            .map(|&r| (0..r).map(|_| Vec::new()).collect())
            .collect();
        for &op in topology.topological_order().iter().rev() {
            if !fusion.is_fused_away(op) {
                continue;
            }
            let spec = topology.operator(op);
            let streams: Vec<String> = topology
                .edges()
                .iter()
                .enumerate()
                .filter(|&(lei, e)| e.to == op && fusion.is_edge_fused(lei))
                .map(|(_, e)| e.stream.clone())
                .collect();
            let host = fusion.direct_host_of(op);
            for r in 0..self.replication[op.0] {
                let ctx = BoltContext {
                    replica: r,
                    replicas: self.replication[op.0],
                };
                let mut bolt = match self.app.runtime(op) {
                    OperatorRuntime::Bolt(f) | OperatorRuntime::Sink(f) => f(ctx),
                    OperatorRuntime::Spout(_) => unreachable!("spouts are never fused away"),
                };
                if let Some(entries) = shared.take_preload(replica_base[op.0] + r) {
                    bolt.install_state(entries);
                }
                let mut collector = Collector::new(
                    replica_base[op.0] + r,
                    self.config.jumbo_size,
                    std::mem::take(&mut op_outputs[op.0][r]),
                    Arc::clone(&clock),
                )
                .with_fused(std::mem::take(&mut pending_fused[op.0][r]));
                if let Some(hub) = &wake_hub {
                    collector = collector.with_wake_hub(Arc::clone(hub));
                }
                let sink = (spec.kind == OperatorKind::Sink)
                    .then(|| FusedSinkState::new(Arc::clone(&shared.sink_progress)));
                pending_fused[host.0][r].push(FusedTarget {
                    op_index: op.0,
                    streams: streams.clone(),
                    bolt,
                    collector,
                    processed: 0,
                    sink,
                    ctx,
                    shared: Arc::clone(&shared),
                    host_op: host.0,
                    attempts: 0,
                    dead: false,
                });
            }
        }

        // Seed every spawned replica as a task, in reverse topological
        // order so consumers come up (or sit early in the pool's run
        // queues) before producers start pushing — not required for
        // correctness, helps startup latency.
        let spawn_order: Vec<brisk_dag::OperatorId> =
            topology.topological_order().iter().rev().copied().collect();
        let mut inputs_by_replica: Vec<Option<Vec<InputPort>>> =
            inputs.into_iter().map(Some).collect();
        let mut seeds: Vec<TaskSeed> = Vec::with_capacity(spawned_replicas);
        for op in spawn_order {
            if fusion.is_fused_away(op) {
                continue; // runs inline inside its chain host
            }
            let spec = topology.operator(op);
            for (r, outputs) in op_outputs[op.0].iter_mut().enumerate() {
                let global = replica_base[op.0] + r;
                // Replica r hosts the replica-r instances of its fused
                // subtree (index-aligned pairing).
                let mut collector = Collector::new(
                    global,
                    self.config.jumbo_size,
                    std::mem::take(outputs),
                    Arc::clone(&clock),
                )
                .with_fused(std::mem::take(&mut pending_fused[op.0][r]));
                if let Some(hub) = &wake_hub {
                    collector = collector.with_wake_hub(Arc::clone(hub));
                }
                seeds.push(TaskSeed {
                    global,
                    op_index: op.0,
                    kind: spec.kind,
                    ctx: BoltContext {
                        replica: r,
                        replicas: self.replication[op.0],
                    },
                    collector,
                    ports: inputs_by_replica[global].take().expect("inputs once"),
                    producer_ops: topology.producers_of(op).iter().map(|p| p.0).collect(),
                    name: format!("{}#{r}", spec.name),
                });
            }
        }

        // Arm the stall watchdog before the seeds move into their
        // executors: it observes bolts/sinks only (spouts have no input to
        // stall on) through shared progress counters and live queue handles.
        let watchdog = self.config.stall_deadline.map(|deadline| {
            let entries: Vec<WatchEntry> = seeds
                .iter()
                .filter(|s| s.kind != OperatorKind::Spout)
                .map(|s| WatchEntry {
                    global: s.global,
                    op_index: s.op_index,
                    replica: s.ctx.replica,
                    inputs: s.ports.iter().map(|p| Arc::clone(&p.queue)).collect(),
                    outputs: s.collector.queue_handles(),
                })
                .collect();
            supervise::spawn_watchdog(entries, Arc::clone(&shared), deadline)
        });

        let started = Instant::now();
        let running = match (&wake_hub, pool_workers) {
            (Some(hub), Some(workers)) => Running::Pool(scheduler::spawn_pool(
                seeds,
                Arc::clone(hub),
                Arc::clone(&shared),
                workers,
            )),
            _ => Running::Threads(
                seeds
                    .into_iter()
                    .map(|seed| {
                        let shared = Arc::clone(&shared);
                        let (op_index, replica) = (seed.op_index, seed.ctx.replica);
                        // Pre-captured for the emergency backstop: if the
                        // supervised body itself unwinds (a bug outside any
                        // guarded operator call), the thread still retires
                        // its accounting so the run can wind down.
                        let global = seed.global;
                        let hosted = seed.collector.hosted_ops();
                        let input_queues: Vec<Arc<SpscQueue<JumboTuple>>> =
                            seed.ports.iter().map(|p| Arc::clone(&p.queue)).collect();
                        let handle = std::thread::Builder::new()
                            .name(seed.name.clone())
                            .spawn(move || {
                                match catch_unwind(AssertUnwindSafe(|| run_replica(seed, &shared)))
                                {
                                    Ok(local) => local,
                                    Err(payload) => {
                                        emergency_retire(
                                            &shared,
                                            op_index,
                                            replica,
                                            global,
                                            &hosted,
                                            &input_queues,
                                            panic_message(payload.as_ref()),
                                        );
                                        None
                                    }
                                }
                            })
                            .expect("thread spawn");
                        (op_index, replica, handle)
                    })
                    .collect(),
            ),
        };
        EngineHandle {
            shared,
            running,
            watchdog,
            pools,
            slab_stats,
            limit: condition,
            started,
        }
    }

    /// Wire one SPSC queue per (producer replica, consumer replica) pair of
    /// every unfused logical edge. Returns each global replica's input
    /// ports and each (operator, local replica)'s output edges; output
    /// edges are grouped per (operator, local replica) because fused-away
    /// operators emit from their host's thread rather than a replica of
    /// their own.
    fn wire_queues(
        &self,
        fusion: &FusionPlan,
        replica_base: &[usize],
        pools: &[Vec<Arc<SlabPool>>],
        backoff_profile: BackoffProfile,
    ) -> (Vec<Vec<InputPort>>, Vec<Vec<Vec<OutputEdge>>>) {
        let topology = &self.app.topology;
        let total_replicas: usize = self.replication.iter().sum();
        let mut inputs: Vec<Vec<InputPort>> = (0..total_replicas).map(|_| Vec::new()).collect();
        let mut op_outputs: Vec<Vec<Vec<OutputEdge>>> = self
            .replication
            .iter()
            .map(|&r| (0..r).map(|_| Vec::new()).collect())
            .collect();
        for (lei, edge) in topology.edges().iter().enumerate() {
            if fusion.is_edge_fused(lei) {
                continue; // delivered inline by the host executor
            }
            let np = self.replication[edge.from.0];
            let nc = match edge.partitioning {
                Partitioning::Global => 1,
                _ => self.replication[edge.to.0],
            };
            let producer_bytes = topology.operator(edge.from).cost.output_bytes;
            if matches!(edge.partitioning, Partitioning::Forward) && np == nc {
                // Local forwarding at equal counts pins producer replica r
                // to consumer replica r, so only that one queue exists per
                // producer. (At unequal counts the pairing is meaningless
                // and the edge falls through to the general wiring below,
                // where the Forward partitioner degrades to Shuffle — the
                // model's even-spread, work-conserving treatment is then
                // exact.)
                for (r, outputs) in op_outputs[edge.from.0].iter_mut().enumerate().take(np) {
                    let cg = replica_base[edge.to.0] + r;
                    let q = Arc::new(SpscQueue::with_profile(
                        self.config.queue_capacity,
                        backoff_profile,
                    ));
                    inputs[cg].push(InputPort {
                        queue: Arc::clone(&q),
                        producer_bytes,
                    });
                    // One queue: the router degenerates to "target 0".
                    outputs.push(OutputEdge::new(
                        lei,
                        edge.stream.clone(),
                        Partitioner::new(edge.partitioning, 1),
                        vec![q],
                        vec![cg],
                        &pools[edge.from.0][r],
                    ));
                }
                continue;
            }
            for (r, outputs) in op_outputs[edge.from.0].iter_mut().enumerate().take(np) {
                let mut queues = Vec::with_capacity(nc);
                let mut consumers = Vec::with_capacity(nc);
                for c in 0..nc {
                    let cg = replica_base[edge.to.0] + c;
                    // One producer replica, one consumer replica: the SPSC
                    // ring's contract holds by construction. A `Global`
                    // funnel (nc = 1) gets one port per producer replica.
                    let q = Arc::new(SpscQueue::with_profile(
                        self.config.queue_capacity,
                        backoff_profile,
                    ));
                    inputs[cg].push(InputPort {
                        queue: Arc::clone(&q),
                        producer_bytes,
                    });
                    queues.push(q);
                    consumers.push(cg);
                }
                // Skew-aware KeyBy re-weighting: the controller's measured
                // per-replica load lands here as a weighted slot table.
                let mut partitioner = Partitioner::new(edge.partitioning, nc);
                if let Some(w) = self.keyby_weights.get(&edge.to.0) {
                    partitioner = partitioner.with_weights(w);
                }
                outputs.push(OutputEdge::new(
                    lei,
                    edge.stream.clone(),
                    partitioner,
                    queues,
                    consumers,
                    &pools[edge.from.0][r],
                ));
            }
        }
        (inputs, op_outputs)
    }
}

/// The two executor shapes a run can be driven by, held by the
/// [`EngineHandle`] until join.
enum Running {
    /// Per-thread handles tagged `(op_index, replica)` so a join
    /// error can still be attributed in the fault report.
    Threads(Vec<(usize, usize, std::thread::JoinHandle<Option<SinkLocal>>)>),
    Pool(PoolRun),
}

/// State harvested from one engine at a migration pause: one
/// `(operator index, replica index, entries)` record per replica whose
/// operator returned `Some` from `extract_state`.
pub type HarvestedState = Vec<(usize, usize, Vec<StateEntry>)>;

/// A live, running engine: the handle [`Engine::start`] returns before the
/// run limit is reached.
///
/// The handle is the elastic runtime's control surface — it exposes live
/// per-replica rates ([`EngineHandle::rates`]), sink progress, and the
/// tuple-safe migration pause: [`EngineHandle::request_migration`] flips
/// the engine into harvest mode and stops it; spouts exit at the next
/// emission boundary, bolts drain every in-flight tuple (a bolt only exits
/// once all its producers retired *and* its input queues are empty), and
/// each drained replica hands its state out through `extract_state`
/// instead of running `finish`. [`EngineHandle::join_with_state`] then
/// returns both the report and the harvested state for re-installation
/// into a successor engine.
pub struct EngineHandle {
    shared: Arc<EngineShared>,
    running: Running,
    watchdog: Option<std::thread::JoinHandle<()>>,
    pools: Vec<Vec<Arc<SlabPool>>>,
    slab_stats: Arc<SlabStats>,
    limit: RunLimit,
    started: Instant,
}

impl EngineHandle {
    /// Live per-replica tuple rates since start, in global replica order
    /// (operator-major): spout replicas report emission, bolt/sink replicas
    /// consumption (inline fused deliveries count against the fused
    /// operator's own replica). The controller samples this to detect
    /// drift; [`RunReport::replica_rates`] is the post-run equivalent.
    pub fn rates(&self) -> Vec<ReplicaRate> {
        let secs = self.started.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
        self.shared
            .replica_map
            .iter()
            .zip(
                self.shared
                    .replica_tuples
                    .iter()
                    .zip(&self.shared.replica_busy_ns),
            )
            .map(|(&(op, replica), (tuples, busy))| {
                let tuples = tuples.load(Ordering::Relaxed);
                ReplicaRate {
                    op,
                    replica,
                    tuples,
                    rate: tuples as f64 / secs,
                    busy_ns: busy.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// Tuples received by sink operators so far (relaxed, monotone).
    pub fn sink_events(&self) -> u64 {
        self.shared.sink_progress.events.load(Ordering::Relaxed)
    }

    /// Wall-clock time since the engine started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Whether every replica has retired (the pipeline drained or the run
    /// was stopped). [`EngineHandle::join`] returns promptly once true.
    pub fn is_finished(&self) -> bool {
        self.shared.live_replicas.load(Ordering::Relaxed) == 0
    }

    /// Stop the run before its limit: spouts exit at the next emission
    /// boundary and the pipeline drains — exactly the limit-reached path.
    pub fn request_stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }

    /// Begin a migration pause: harvest mode on, then stop. Every replica
    /// drains its inputs (nothing in flight is dropped), hands its state
    /// out via `extract_state` instead of running `finish`, and retires.
    /// Collect the state with [`EngineHandle::join_with_state`].
    pub fn request_migration(&self) {
        self.shared.harvest.store(true, Ordering::SeqCst);
        self.shared.stop.store(true, Ordering::SeqCst);
    }

    /// Drive the run limit, then drain, join every executor and report.
    pub fn join(self) -> RunReport {
        self.join_inner().0
    }

    /// [`EngineHandle::join`] plus the state harvested at the stop (empty
    /// unless harvest mode was on — via [`Engine::capture_state_on_stop`]
    /// or [`EngineHandle::request_migration`]).
    pub fn join_with_state(self) -> (RunReport, HarvestedState) {
        self.join_inner()
    }

    fn join_inner(self) -> (RunReport, HarvestedState) {
        let EngineHandle {
            shared,
            running,
            watchdog,
            pools,
            slab_stats,
            limit,
            started,
        } = self;
        // Drive the stop condition; an external request_stop /
        // request_migration short-circuits either limit.
        match limit {
            RunLimit::Duration(d) => {
                let deadline = started + d;
                loop {
                    if shared.stop.load(Ordering::Relaxed)
                        || shared.live_replicas.load(Ordering::Relaxed) == 0
                    {
                        break; // stopped early, or finite spouts drained
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    std::thread::sleep((deadline - now).min(Duration::from_millis(1)));
                }
            }
            RunLimit::Events { events, timeout } => {
                let deadline = started + timeout;
                while shared.sink_progress.events.load(Ordering::Relaxed) < events
                    && shared.live_replicas.load(Ordering::Relaxed) > 0
                    && Instant::now() < deadline
                    && !shared.stop.load(Ordering::Relaxed)
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
        shared.stop.store(true, Ordering::SeqCst);
        // Merge each sink task's local metrics after join — the run itself
        // never serialized replicas on a shared histogram.
        let mut sink_events = 0u64;
        let mut latency_ns = Histogram::new();
        match running {
            Running::Threads(handles) => {
                for (op_index, replica, h) in handles {
                    match h.join() {
                        Ok(Some(local)) => {
                            sink_events += local.events;
                            latency_ns.merge(&local.latency);
                        }
                        Ok(None) => {}
                        // The backstop inside the thread body already
                        // retired the replica's accounting before
                        // re-raising; a join error past it means even the
                        // backstop unwound. Record, never re-panic.
                        Err(payload) => shared.record_fault(
                            op_index,
                            replica,
                            FaultKind::ExecutorLoss,
                            panic_message(payload.as_ref()),
                            false,
                        ),
                    }
                }
            }
            Running::Pool(run) => {
                let local = run.join(&shared);
                sink_events = local.events;
                latency_ns.merge(&local.latency);
            }
        }
        if let Some(w) = watchdog {
            let _ = w.join();
        }

        // Every queue, collector and pending batch dropped with its task,
        // so every slab checked out of an arena must be home again. Debug
        // tripwire: a nonzero count is a refcount leak in the batch fabric.
        drop(pools);
        debug_assert_eq!(
            slab_stats.outstanding(),
            0,
            "slab leak at engine teardown: {} slab(s) still outstanding",
            slab_stats.outstanding()
        );

        let elapsed = started.elapsed();
        let load_all =
            |v: &[AtomicU64]| -> Vec<u64> { v.iter().map(|c| c.load(Ordering::Relaxed)).collect() };
        #[allow(deprecated)]
        let report = RunReport {
            elapsed,
            sink_events,
            throughput: sink_events as f64 / elapsed.as_secs_f64(),
            latency_ns,
            processed: load_all(&shared.processed),
            emitted: load_all(&shared.emitted),
            queue_full_events: load_all(&shared.queue_full),
            queue_pushes: load_all(&shared.queue_pushes),
            op_restarts: load_all(&shared.restarts),
            op_quarantined: load_all(&shared.quarantined),
            op_fault_counts: load_all(&shared.op_faults),
            slab_allocs: slab_stats.allocated(),
            slab_recycled: slab_stats.recycled(),
            faults: std::mem::take(&mut *shared.faults.lock()),
            stalls: std::mem::take(&mut *shared.stalls.lock()),
            replica_tuples: load_all(&shared.replica_tuples),
            replica_busy: load_all(&shared.replica_busy_ns),
            replica_map: shared.replica_map.clone(),
        };
        let mut harvested = std::mem::take(&mut *shared.harvested.lock());
        // A spout that exhausted its budget before the pause request flipped
        // the harvest flag exited without harvesting; its parked position is
        // still part of the migration hand-off (without it the successor's
        // fresh factories would re-derive full budget shares and duplicate
        // input). Retired state is dropped on a plain (non-migrating) stop.
        if shared.harvesting() {
            harvested.append(&mut *shared.retired.lock());
        }
        // Deterministic order for redistribution and tests: push order is
        // whatever thread interleaving the drain produced.
        harvested.sort_by_key(|h| (h.0, h.1));
        (report, harvested)
    }
}

/// Expand a plan's vertex-granular placement into the engine's per-replica
/// socket assignment. Global replica indices are operator-major (all
/// replicas of operator 0, then operator 1, …), and each — possibly
/// compressed — execution vertex covers `multiplicity` consecutive replicas
/// of its operator, in `vertices_of` order. Vertices an optimizer left
/// unplaced default to socket 0.
pub fn plan_replica_sockets(topology: &LogicalTopology, plan: &ExecutionPlan) -> Vec<SocketId> {
    let graph = ExecutionGraph::new(topology, &plan.replication, plan.compress_ratio);
    let mut replica_socket = vec![SocketId(0); plan.total_replicas()];
    let mut base = 0usize;
    for (op, _) in topology.operators() {
        for &v in graph.vertices_of(op) {
            let socket = plan.placement.socket_of(v).unwrap_or(SocketId(0));
            for r in 0..graph.vertex(v).multiplicity {
                replica_socket[base + r] = socket;
            }
            base += graph.vertex(v).multiplicity;
        }
    }
    replica_socket
}

/// Stop condition for [`Engine::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunLimit {
    /// Run for a fixed wall-clock duration, then drain and report.
    Duration(Duration),
    /// Run until the sinks have received at least `events` tuples, the
    /// pipeline drains (finite spouts), or `timeout` elapses — whichever
    /// comes first.
    Events {
        /// Sink-event target.
        events: u64,
        /// Wall-clock safety net.
        timeout: Duration,
    },
}

/// Engine state shared by every task of one run, whichever scheduler
/// drives them.
pub(crate) struct EngineShared {
    pub(crate) app: Arc<AppRuntime>,
    pub(crate) config: EngineConfig,
    pub(crate) backoff_profile: BackoffProfile,
    pub(crate) clock: Arc<EngineClock>,
    pub(crate) stop: AtomicBool,
    /// Per-operator "every replica retired" latches (consumers drain and
    /// exit once all their producers latch).
    pub(crate) op_done: Vec<AtomicBool>,
    /// Per-operator live instance counts (replicas + fused instances).
    pub(crate) op_live: Vec<AtomicUsize>,
    pub(crate) processed: Vec<AtomicU64>,
    pub(crate) emitted: Vec<AtomicU64>,
    pub(crate) queue_full: Vec<AtomicU64>,
    pub(crate) queue_pushes: Vec<AtomicU64>,
    /// Tasks still running — the driver's early-exit signal and the pool
    /// workers' shutdown condition.
    pub(crate) live_replicas: AtomicUsize,
    pub(crate) sink_progress: Arc<SinkProgress>,
    /// Per-operator replica restarts granted by the restart policy.
    pub(crate) restarts: Vec<AtomicU64>,
    /// Per-operator quarantined (dead-lettered) tuple counts.
    pub(crate) quarantined: Vec<AtomicU64>,
    /// Per-operator fault counts (mirrors `faults` for cheap per-op reads).
    pub(crate) op_faults: Vec<AtomicU64>,
    /// Structured fault records, in occurrence order.
    pub(crate) faults: Mutex<Vec<ReplicaFault>>,
    /// Watchdog stall observations.
    pub(crate) stalls: Mutex<Vec<StallEvent>>,
    /// Per-global-replica progress heartbeat sampled by the watchdog:
    /// bolts/sinks bump theirs once per consumed jumbo (and per backoff
    /// chunk while awaiting restart). Spouts never bump — the watchdog
    /// does not observe them.
    pub(crate) progress: Vec<AtomicU64>,
    /// Per-global-replica retirement flags so the watchdog skips finished
    /// replicas.
    pub(crate) replica_done: Vec<AtomicBool>,
    /// Migration-pause mode: when set at stop time, draining replicas hand
    /// their state out via `extract_state` instead of running `finish`.
    pub(crate) harvest: AtomicBool,
    /// State harvested at a migration pause: `(op, replica, entries)`.
    pub(crate) harvested: Mutex<Vec<(usize, usize, Vec<StateEntry>)>>,
    /// Final state of spouts that retired *before* any harvest was
    /// requested (a budget-sharded source drains long before a slow
    /// downstream finishes). Folded into `harvested` when the stop turns
    /// out to be a migration pause, discarded otherwise — without it, a
    /// migration racing spout exhaustion would lose the "budget spent"
    /// position and the successor's spouts would re-derive fresh shares.
    pub(crate) retired: Mutex<Vec<(usize, usize, Vec<StateEntry>)>>,
    /// Per-global-replica migrated-state install slots, taken exactly once
    /// at first instantiation (a restart re-instances stateless, as ever).
    pub(crate) preload: Vec<Mutex<Option<Vec<StateEntry>>>>,
    /// Per-global-replica tuple counters behind [`EngineHandle::rates`]:
    /// spout replicas count emissions, bolt/sink replicas consumed tuples
    /// (queued and inline-fused alike).
    pub(crate) replica_tuples: Vec<AtomicU64>,
    /// Nanoseconds each global replica spent inside `consume` (bolts/sinks
    /// only) — the online service-time signal cost recalibration reads.
    pub(crate) replica_busy_ns: Vec<AtomicU64>,
    /// First global replica index of each operator.
    pub(crate) replica_base: Vec<usize>,
    /// `(op, replica)` of every global replica index.
    pub(crate) replica_map: Vec<(usize, usize)>,
}

impl EngineShared {
    /// Operator name for fault attribution (`"<executor>"` when the fault
    /// is not attributable to an operator).
    pub(crate) fn op_name(&self, op_index: usize) -> String {
        if op_index == usize::MAX {
            return "<executor>".to_string();
        }
        self.app
            .topology
            .operator(OperatorId(op_index))
            .name
            .clone()
    }

    /// Record a structured fault (and charge the per-operator counter when
    /// attributable).
    pub(crate) fn record_fault(
        &self,
        op_index: usize,
        replica: usize,
        kind: FaultKind,
        message: String,
        restarted: bool,
    ) {
        if op_index != usize::MAX {
            self.op_faults[op_index].fetch_add(1, Ordering::Relaxed);
        }
        self.faults.lock().push(ReplicaFault {
            op_index,
            op_name: self.op_name(op_index),
            replica,
            kind,
            message,
            restarted,
        });
    }

    /// Fresh bolt/sink instance from the registered factory — the restart
    /// path's re-instantiation (used when `recover()` declines the state
    /// handoff).
    pub(crate) fn new_bolt_instance(&self, op_index: usize, ctx: BoltContext) -> Box<dyn DynBolt> {
        match self.app.runtime(OperatorId(op_index)) {
            OperatorRuntime::Bolt(f) | OperatorRuntime::Sink(f) => f(ctx),
            OperatorRuntime::Spout(_) => unreachable!("spouts restart through their own path"),
        }
    }

    /// Whether the run is stopping into a migration pause (state harvest)
    /// rather than a final shutdown (`finish` hooks).
    pub(crate) fn harvesting(&self) -> bool {
        self.harvest.load(Ordering::Acquire)
    }

    /// Claim the migrated state staged for a global replica, once.
    pub(crate) fn take_preload(&self, global: usize) -> Option<Vec<StateEntry>> {
        self.preload[global].lock().take()
    }

    /// Record one replica's extracted state (no-op for `None`: the
    /// operator declared itself stateless).
    pub(crate) fn harvest_state(
        &self,
        op_index: usize,
        replica: usize,
        entries: Option<Vec<StateEntry>>,
    ) {
        if let Some(entries) = entries {
            self.harvested.lock().push((op_index, replica, entries));
        }
    }

    /// Park the final state of a spout that retired before any harvest was
    /// requested (see the `retired` field).
    pub(crate) fn park_retired(
        &self,
        op_index: usize,
        replica: usize,
        entries: Option<Vec<StateEntry>>,
    ) {
        if let Some(entries) = entries {
            self.retired.lock().push((op_index, replica, entries));
        }
    }

    /// Fresh spout instance from the registered factory (restart path).
    pub(crate) fn new_spout_instance(
        &self,
        op_index: usize,
        ctx: BoltContext,
    ) -> Box<dyn DynSpout> {
        match self.app.runtime(OperatorId(op_index)) {
            OperatorRuntime::Spout(f) => f(ctx),
            _ => unreachable!("kind checked by validate()"),
        }
    }
}

/// Everything one spawned replica needs to run, produced by the engine's
/// wiring phase and consumed either by a dedicated thread
/// ([`Scheduler::ThreadPerReplica`]) or as a pool task
/// ([`Scheduler::CorePool`]).
pub(crate) struct TaskSeed {
    /// Global replica index — doubles as the pool's task id.
    pub(crate) global: usize,
    pub(crate) op_index: usize,
    pub(crate) kind: OperatorKind,
    pub(crate) ctx: BoltContext,
    pub(crate) collector: Collector,
    pub(crate) ports: Vec<InputPort>,
    pub(crate) producer_ops: Vec<usize>,
    /// Thread name under thread-per-replica execution.
    pub(crate) name: String,
}

fn run_replica(mut seed: TaskSeed, shared: &EngineShared) -> Option<SinkLocal> {
    let sink_local = match seed.kind {
        OperatorKind::Spout => {
            run_spout_supervised(&mut seed, shared);
            None
        }
        OperatorKind::Bolt | OperatorKind::Sink => run_bolt_supervised(&mut seed, shared),
    };
    // Let fused chain operators emit their final results, then flush every
    // buffer in the chain (depth-first, so tail emissions are shipped too).
    seed.collector.finish_fused();
    seed.collector.flush_all();
    merge_and_retire(&mut seed.collector, seed.op_index, sink_local, shared)
}

/// Force-retire a replica whose executor was lost (a panic that escaped
/// every operator guard, or a dead pool worker): record the fault, close
/// its *input* queues so blocked producers fail fast instead of parking
/// forever, and release its — and its fused subtree's — `op_live` latches
/// so downstream consumers drain and exit. Output queues are left open for
/// still-live consumers.
pub(crate) fn emergency_retire(
    shared: &EngineShared,
    op_index: usize,
    replica: usize,
    global: usize,
    hosted_ops: &[usize],
    input_queues: &[Arc<SpscQueue<JumboTuple>>],
    message: String,
) {
    shared.record_fault(op_index, replica, FaultKind::ExecutorLoss, message, false);
    for q in input_queues {
        q.close();
    }
    for &op in hosted_ops {
        if shared.op_live[op].fetch_sub(1, Ordering::AcqRel) == 1 {
            shared.op_done[op].store(true, Ordering::Release);
        }
    }
    if shared.op_live[op_index].fetch_sub(1, Ordering::AcqRel) == 1 {
        shared.op_done[op_index].store(true, Ordering::Release);
    }
    shared.replica_done[global].store(true, Ordering::Relaxed);
    shared.live_replicas.fetch_sub(1, Ordering::Relaxed);
}

/// Sleep a restart backoff in stop-aware chunks, bumping the replica's
/// progress heartbeat so the watchdog never flags a replica that is merely
/// waiting out its own backoff.
fn supervised_sleep(total: Duration, shared: &EngineShared, global: usize) {
    let mut remaining = total;
    while remaining > Duration::ZERO {
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        let chunk = remaining.min(Duration::from_millis(10));
        std::thread::sleep(chunk);
        remaining = remaining.saturating_sub(chunk);
        shared.progress[global].fetch_add(1, Ordering::Relaxed);
    }
}

/// Merge a finished task's collector-local counters (and its fused
/// subtree's) into the shared report state, then retire the task: release
/// `op_done` latches and decrement the live-task count. The collector must
/// be fully flushed. Shared by both schedulers.
pub(crate) fn merge_and_retire(
    collector: &mut Collector,
    op_index: usize,
    mut sink_local: Option<SinkLocal>,
    shared: &EngineShared,
) -> Option<SinkLocal> {
    // Collector counters stay task-local for the whole run so the hot path
    // never touches shared cache lines.
    shared.emitted[op_index].fetch_add(collector.emitted, Ordering::Relaxed);
    shared.queue_full[op_index].fetch_add(collector.stalled_flushes, Ordering::Relaxed);
    shared.queue_pushes[op_index].fetch_add(collector.flushes, Ordering::Relaxed);
    // Merge every fused operator instance's counters and sink metrics,
    // then retire it from `op_live` — a fused operator has one instance
    // per host replica, and the last host out releases its `op_done`
    // latch, exactly like real replicas do below.
    for mut target in collector.take_fused() {
        shared.processed[target.op_index].fetch_add(target.processed, Ordering::Relaxed);
        shared.emitted[target.op_index].fetch_add(target.collector.emitted, Ordering::Relaxed);
        shared.queue_full[target.op_index]
            .fetch_add(target.collector.stalled_flushes, Ordering::Relaxed);
        shared.queue_pushes[target.op_index].fetch_add(target.collector.flushes, Ordering::Relaxed);
        if let Some(state) = target.sink.take() {
            let local = sink_local.get_or_insert_with(SinkLocal::default);
            local.events += state.local.events;
            local.latency.merge(&state.local.latency);
        }
        if shared.op_live[target.op_index].fetch_sub(1, Ordering::AcqRel) == 1 {
            shared.op_done[target.op_index].store(true, Ordering::Release);
        }
    }
    // Last replica out marks the operator done, releasing consumers.
    if shared.op_live[op_index].fetch_sub(1, Ordering::AcqRel) == 1 {
        shared.op_done[op_index].store(true, Ordering::Release);
    }
    shared.replica_done[collector.replica()].store(true, Ordering::Relaxed);
    shared.live_replicas.fetch_sub(1, Ordering::Relaxed);
    sink_local
}

/// Thread-per-replica spout supervisor: run the generation loop, and on a
/// contained panic consult the restart policy — back off and re-instance
/// (or keep the instance when `recover()` opts in), or retire the replica
/// on first fault / exhausted budget.
fn run_spout_supervised(seed: &mut TaskSeed, shared: &EngineShared) {
    let op = brisk_dag::OperatorId(seed.op_index);
    let ctx = seed.ctx;
    let new_instance = || -> Box<dyn DynSpout> {
        match shared.app.runtime(op) {
            OperatorRuntime::Spout(f) => f(ctx),
            _ => unreachable!("kind checked by validate()"),
        }
    };
    let mut spout = new_instance();
    if let Some(entries) = shared.take_preload(seed.global) {
        spout.install_state(entries);
    }
    let mut attempts = 0u32;
    let mut died = false;
    loop {
        match run_spout_loop(spout.as_mut(), seed, shared) {
            Ok(()) => break,
            Err(message) => {
                attempts += 1;
                match shared.config.restart.delay_for(attempts) {
                    Some(delay) => {
                        shared.record_fault(
                            seed.op_index,
                            ctx.replica,
                            FaultKind::OperatorPanic,
                            message,
                            true,
                        );
                        shared.restarts[seed.op_index].fetch_add(1, Ordering::Relaxed);
                        supervised_sleep(delay, shared, seed.global);
                        if !spout.recover() {
                            spout = new_instance();
                        }
                    }
                    None => {
                        shared.record_fault(
                            seed.op_index,
                            ctx.replica,
                            FaultKind::OperatorPanic,
                            message,
                            false,
                        );
                        died = true;
                        break;
                    }
                }
            }
        }
    }
    // Migration pause: hand the source position to the successor engine.
    // A dead spout's position is unknown — its state stays unharvested,
    // consistent with the quarantine accounting.
    if !died {
        match catch_unwind(AssertUnwindSafe(|| spout.extract_state())) {
            Ok(entries) => {
                if shared.harvesting() {
                    shared.harvest_state(seed.op_index, ctx.replica, entries);
                } else {
                    // Not (yet) a migration: this spout exhausted its budget
                    // or the run stopped normally. Park the final position
                    // anyway — if a migration pause lands after this exit,
                    // join folds the parked state into the harvest so the
                    // successor does not re-derive a fresh budget share.
                    shared.park_retired(seed.op_index, ctx.replica, entries);
                }
            }
            Err(payload) => shared.record_fault(
                seed.op_index,
                ctx.replica,
                FaultKind::OperatorPanic,
                panic_message(payload.as_ref()),
                false,
            ),
        }
    }
}

/// One supervised stretch of the spout generation loop; returns `Err` with
/// the rendered panic payload when a `next` call unwinds.
fn run_spout_loop(
    spout: &mut dyn DynSpout,
    seed: &mut TaskSeed,
    shared: &EngineShared,
) -> Result<(), String> {
    let mut since_flush = 0u32;
    let mut backoff = Backoff::with_profile(shared.backoff_profile);
    loop {
        if shared.stop.load(Ordering::Relaxed) || seed.collector.output_closed {
            return Ok(());
        }
        let collector = &mut seed.collector;
        let status = catch_unwind(AssertUnwindSafe(|| spout.next(collector)))
            .map_err(|payload| panic_message(payload.as_ref()))?;
        match status {
            SpoutStatus::Emitted(n) => {
                shared.replica_tuples[seed.global].fetch_add(n as u64, Ordering::Relaxed);
                backoff.reset();
                since_flush += 1;
                if since_flush >= shared.config.flush_every {
                    seed.collector.flush_all();
                    since_flush = 0;
                }
            }
            SpoutStatus::Idle => {
                seed.collector.flush_all();
                since_flush = 0;
                backoff.snooze();
            }
            SpoutStatus::Exhausted => return Ok(()),
        }
    }
}

/// Jumbos drained from one port per consumer poll: enough to amortize the
/// ring's index publish, small enough to keep round-robin port fairness.
pub(crate) const POP_BATCH: usize = 4;

/// Round-robin scan state over a replica's input ports, shared by the poll
/// loop and the shutdown drain check.
pub(crate) struct PortCursor {
    n_ports: usize,
    next: usize,
}

impl PortCursor {
    pub(crate) fn new(n_ports: usize) -> PortCursor {
        PortCursor { n_ports, next: 0 }
    }

    /// Pop up to `max` jumbos from the first non-empty port at or after the
    /// cursor. Returns the port index served, advancing the cursor past it.
    pub(crate) fn poll(
        &mut self,
        ports: &[InputPort],
        out: &mut Vec<JumboTuple>,
        max: usize,
    ) -> Option<usize> {
        for off in 0..self.n_ports {
            let idx = (self.next + off) % self.n_ports;
            if ports[idx].queue.pop_n(out, max) > 0 {
                self.next = (idx + 1) % self.n_ports;
                return Some(idx);
            }
        }
        None
    }

    /// Whether every port is empty (lock-free reads; exact once the
    /// producers have finished).
    pub(crate) fn drained(&self, ports: &[InputPort]) -> bool {
        ports.iter().all(|p| p.queue.is_empty())
    }
}

/// A bolt's consume-side working state — the locals of the classic replica
/// thread loop, boxed up so a pool task can persist them across slices.
pub(crate) struct BoltState {
    pub(crate) bolt: Box<dyn DynBolt>,
    pub(crate) cursor: PortCursor,
    pub(crate) batch: Vec<JumboTuple>,
    /// Port the jumbos in `batch` were popped from — so a batch interrupted
    /// by a contained panic resumes against the right fetch-cost bookkeeping
    /// after a restart.
    pub(crate) batch_port: usize,
    /// Remainders of panic-interrupted batches — everything after the
    /// quarantined poison tuple, kept as zero-copy slices of the shared
    /// slab: replayed first after a restart, so a contained panic loses
    /// exactly the one quarantined tuple.
    pub(crate) pending: Vec<Batch>,
    pub(crate) sink_local: Option<SinkLocal>,
    pub(crate) since_flush: u32,
}

impl BoltState {
    pub(crate) fn new(bolt: Box<dyn DynBolt>, kind: OperatorKind, n_ports: usize) -> BoltState {
        BoltState {
            bolt,
            cursor: PortCursor::new(n_ports),
            batch: Vec::with_capacity(POP_BATCH),
            batch_port: 0,
            pending: Vec::new(),
            sink_local: (kind == OperatorKind::Sink).then(SinkLocal::default),
            since_flush: 0,
        }
    }
}

/// Consume the jumbos sitting in `state.batch` (popped from
/// `ports[state.batch_port]`): charge fetch costs, execute the bolt under
/// a panic guard, record sink metrics, and flush on the configured cadence.
/// The shared inner loop of both schedulers' bolt paths.
///
/// A panic inside `execute` returns `Err` with the rendered payload after
/// quarantining exactly the poison tuple: everything executed before it is
/// already counted, everything after it moves to `state.pending` for
/// replay once the supervisor restarts the operator, and the remaining
/// jumbos stay in `state.batch`.
pub(crate) fn consume_batch(
    state: &mut BoltState,
    ports: &[InputPort],
    collector: &mut Collector,
    op_index: usize,
    shared: &EngineShared,
) -> Result<(), String> {
    let producer_bytes = ports[state.batch_port].producer_bytes;
    while !state.batch.is_empty() {
        let jumbo = state.batch.remove(0);
        // Injected virtual-NUMA fetch penalty (Formula 2), charged against
        // the producing replica named on the jumbo header.
        if let Some(p) = &shared.config.numa_penalty {
            let ns = p.fetch_ns(
                jumbo.producer,
                collector.replica(),
                producer_bytes,
                jumbo.len(),
            );
            spin_ns(ns);
        }
        if shared.config.extra_cost_ns_per_tuple > 0 {
            spin_ns(shared.config.extra_cost_ns_per_tuple * jumbo.len() as u64);
        }
        let total = jumbo.len();
        let now_ns = if state.sink_local.is_some() {
            shared.clock.now_ns()
        } else {
            0
        };
        // One guard per batch, not per tuple: catch_unwind is free on the
        // non-panic path, and the cursor pins the poison tuple on unwind.
        let batch = jumbo.batch;
        let cursor = BatchCursor::new(&batch);
        let bolt = &mut state.bolt;
        // Service-time instrumentation brackets only the consume call (the
        // injected NUMA spin above is modelled separately as `Tf`): one
        // clock pair per jumbo, amortized over the whole batch.
        let busy_start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| bolt.consume(&cursor, collector)));
        shared.replica_busy_ns[collector.replica()]
            .fetch_add(busy_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        shared.progress[collector.replica()].fetch_add(1, Ordering::Relaxed);
        // Sink metrics are recorded post-hoc off the batch's event-time
        // lane (completed prefix only, on a fault) — one clock read per
        // batch, same resolution as before, no per-tuple bookkeeping
        // inside the hot loop.
        let record_sink = |state: &mut BoltState, upto: usize| {
            if let Some(local) = state.sink_local.as_mut() {
                for &ev in &batch.event_ns_lane()[..upto] {
                    local.latency.record(now_ns.saturating_sub(ev) as f64);
                }
                local.events += upto as u64;
                // Relaxed aggregate so `run_until_events` can poll.
                shared
                    .sink_progress
                    .events
                    .fetch_add(upto as u64, Ordering::Relaxed);
            }
        };
        match result {
            Ok(()) => {
                // Returning normally from `consume` counts the whole batch
                // as processed (the documented contract).
                record_sink(state, total);
                shared.processed[op_index].fetch_add(total as u64, Ordering::Relaxed);
                shared.replica_tuples[collector.replica()]
                    .fetch_add(total as u64, Ordering::Relaxed);
                state.since_flush += 1;
                if state.since_flush >= shared.config.flush_every {
                    collector.flush_all();
                    state.since_flush = 0;
                }
            }
            Err(payload) => {
                // `done` tuples completed and count as processed; tuple
                // `done` is the poison tuple — quarantined, never retried;
                // the tail replays after restart as a zero-copy slice of
                // the same slab (no payload clones to quarantine out of a
                // shared batch).
                let done = cursor.done().min(total);
                record_sink(state, done);
                shared.processed[op_index].fetch_add(done as u64, Ordering::Relaxed);
                shared.replica_tuples[collector.replica()]
                    .fetch_add(done as u64, Ordering::Relaxed);
                shared.quarantined[op_index].fetch_add(1, Ordering::Relaxed);
                if done + 1 < total {
                    state.pending.push(batch.slice(done + 1, total - done - 1));
                }
                return Err(panic_message(payload.as_ref()));
            }
        }
    }
    Ok(())
}

/// Replay tuples left over from a panic-interrupted jumbo (everything
/// after the quarantined poison tuple), one guarded call each — a repeat
/// offender quarantines again rather than wedging the replica.
pub(crate) fn replay_pending(
    state: &mut BoltState,
    collector: &mut Collector,
    op_index: usize,
    shared: &EngineShared,
) -> Result<(), String> {
    while let Some(front) = state.pending.first_mut() {
        // Detach one single-tuple slice off the front — a refcount bump on
        // the shared slab, never a payload clone. Replaying through
        // `consume` (not `execute`) keeps per-tuple semantics for batch
        // consumers and fault-injection wrappers alike.
        let one = front.slice(0, 1);
        if front.len() == 1 {
            state.pending.remove(0);
        } else {
            let rest = front.slice(1, front.len() - 1);
            *front = rest;
        }
        let cursor = BatchCursor::new(&one);
        let bolt = &mut state.bolt;
        let busy_start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| bolt.consume(&cursor, collector)));
        shared.replica_busy_ns[collector.replica()]
            .fetch_add(busy_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        shared.progress[collector.replica()].fetch_add(1, Ordering::Relaxed);
        match result {
            Ok(()) => {
                if let Some(local) = state.sink_local.as_mut() {
                    let now = shared.clock.now_ns();
                    local
                        .latency
                        .record(now.saturating_sub(one.event_ns(0)) as f64);
                    local.events += 1;
                    shared.sink_progress.events.fetch_add(1, Ordering::Relaxed);
                }
                shared.processed[op_index].fetch_add(1, Ordering::Relaxed);
                shared.replica_tuples[collector.replica()].fetch_add(1, Ordering::Relaxed);
            }
            Err(payload) => {
                shared.quarantined[op_index].fetch_add(1, Ordering::Relaxed);
                return Err(panic_message(payload.as_ref()));
            }
        }
    }
    Ok(())
}

/// Thread-per-replica bolt/sink supervisor: drive the consume loop, and on
/// a contained panic consult the restart policy. A granted restart backs
/// off, re-instances the operator (unless `recover()` keeps it) and
/// resumes against the same queues, collector and fused subtree; a denied
/// one closes the replica's *input* queues (producers fail fast; output
/// queues stay open for live consumers) and retires it through the normal
/// accounting path.
fn run_bolt_supervised(seed: &mut TaskSeed, shared: &EngineShared) -> Option<SinkLocal> {
    let ctx = seed.ctx;
    let mut state = BoltState::new(
        shared.new_bolt_instance(seed.op_index, ctx),
        seed.kind,
        seed.ports.len(),
    );
    if let Some(entries) = shared.take_preload(seed.global) {
        state.bolt.install_state(entries);
    }
    let mut attempts = 0u32;
    let mut died = false;
    loop {
        match run_bolt_loop(&mut state, seed, shared) {
            Ok(()) => break,
            Err(message) => {
                attempts += 1;
                match shared.config.restart.delay_for(attempts) {
                    Some(delay) => {
                        shared.record_fault(
                            seed.op_index,
                            ctx.replica,
                            FaultKind::OperatorPanic,
                            message,
                            true,
                        );
                        shared.restarts[seed.op_index].fetch_add(1, Ordering::Relaxed);
                        supervised_sleep(delay, shared, seed.global);
                        if !state.bolt.recover() {
                            state.bolt = shared.new_bolt_instance(seed.op_index, ctx);
                        }
                    }
                    None => {
                        shared.record_fault(
                            seed.op_index,
                            ctx.replica,
                            FaultKind::OperatorPanic,
                            message,
                            false,
                        );
                        // Fail fast upstream; never close our own outputs.
                        for p in &seed.ports {
                            p.queue.close();
                        }
                        died = true;
                        break;
                    }
                }
            }
        }
    }
    if !died {
        if shared.harvesting() {
            // Migration pause: extract state instead of finishing — finals
            // belong to the true end of stream, which only the last
            // (non-harvesting) epoch reaches.
            let bolt = &mut state.bolt;
            match catch_unwind(AssertUnwindSafe(|| bolt.extract_state())) {
                Ok(entries) => shared.harvest_state(seed.op_index, ctx.replica, entries),
                Err(payload) => shared.record_fault(
                    seed.op_index,
                    ctx.replica,
                    FaultKind::OperatorPanic,
                    panic_message(payload.as_ref()),
                    false,
                ),
            }
        } else if let Err(payload) =
            catch_unwind(AssertUnwindSafe(|| state.bolt.finish(&mut seed.collector)))
        {
            shared.record_fault(
                seed.op_index,
                ctx.replica,
                FaultKind::OperatorPanic,
                panic_message(payload.as_ref()),
                false,
            );
        }
    }
    state.sink_local
}

/// One supervised stretch of the bolt consume loop; returns `Err` with the
/// rendered panic payload when an `execute` call unwinds (the supervisor
/// decides restart vs. death).
fn run_bolt_loop(
    state: &mut BoltState,
    seed: &mut TaskSeed,
    shared: &EngineShared,
) -> Result<(), String> {
    let mut backoff = Backoff::with_profile(shared.backoff_profile);
    loop {
        // Restart housekeeping first: replay the interrupted jumbo's tail,
        // then finish any jumbos still batched from before the fault.
        replay_pending(state, &mut seed.collector, seed.op_index, shared)?;
        if !state.batch.is_empty() {
            backoff.reset();
            consume_batch(
                state,
                &seed.ports,
                &mut seed.collector,
                seed.op_index,
                shared,
            )?;
            continue;
        }
        match state.cursor.poll(&seed.ports, &mut state.batch, POP_BATCH) {
            Some(port_idx) => {
                backoff.reset();
                state.batch_port = port_idx;
                consume_batch(
                    state,
                    &seed.ports,
                    &mut seed.collector,
                    seed.op_index,
                    shared,
                )?;
            }
            None => {
                seed.collector.flush_all();
                state.since_flush = 0;
                let producers_done = seed
                    .producer_ops
                    .iter()
                    .all(|&p| shared.op_done[p].load(Ordering::Acquire));
                if producers_done {
                    if state.cursor.drained(&seed.ports) {
                        return Ok(());
                    }
                } else {
                    backoff.snooze();
                }
            }
        }
    }
}

/// Busy-wait for approximately `ns` nanoseconds.
fn spin_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    let start = Instant::now();
    let target = Duration::from_nanos(ns);
    while start.elapsed() < target {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::TupleView;
    use crate::operator::{DynBolt, DynSpout, SpoutStatus};
    use crate::tuple::Tuple;
    use brisk_dag::{CostProfile, TopologyBuilder, DEFAULT_STREAM};

    struct CountingSpout {
        next: u64,
        limit: u64,
    }
    impl DynSpout for CountingSpout {
        fn next(&mut self, c: &mut Collector) -> SpoutStatus {
            if self.next >= self.limit {
                return SpoutStatus::Exhausted;
            }
            let now = c.now_ns();
            c.send_default(self.next, now, self.next);
            self.next += 1;
            SpoutStatus::Emitted(1)
        }
    }

    struct DoublingBolt;
    impl DynBolt for DoublingBolt {
        fn execute(&mut self, t: &TupleView<'_>, c: &mut Collector) {
            let v = *t.value::<u64>().expect("u64 payload");
            c.send_default(v, t.event_ns, t.key);
            c.send_default(v, t.event_ns, t.key);
        }
    }

    struct NullSink;
    impl DynBolt for NullSink {
        fn execute(&mut self, _t: &TupleView<'_>, _c: &mut Collector) {}
    }

    fn app(limit: u64) -> AppRuntime {
        let mut b = TopologyBuilder::new("t");
        let s = b.add_spout("s", CostProfile::trivial());
        let x = b.add_bolt("x", CostProfile::trivial());
        let k = b.add_sink("k", CostProfile::trivial());
        b.connect_shuffle(s, x);
        b.connect_shuffle(x, k);
        let t = b.build().expect("valid");
        let (s, x, k) = (
            t.find("s").expect("s"),
            t.find("x").expect("x"),
            t.find("k").expect("k"),
        );
        AppRuntime::new(t)
            .spout(s, move |_| CountingSpout { next: 0, limit })
            .bolt(x, |_| DoublingBolt)
            .sink(k, |_| NullSink)
    }

    /// Per-operator input-side counts via the supported accessor.
    fn processed(r: &RunReport) -> Vec<u64> {
        r.per_operator().iter().map(|o| o.processed).collect()
    }

    /// Per-operator output-side counts via the supported accessor.
    fn emitted(r: &RunReport) -> Vec<u64> {
        r.per_operator().iter().map(|o| o.emitted).collect()
    }

    /// Total queue crossings across all operators.
    fn total_pushes(r: &RunReport) -> u64 {
        r.per_operator().iter().map(|o| o.queue_pushes).sum()
    }

    #[test]
    fn pipeline_delivers_every_tuple_exactly_doubled() {
        let engine =
            Engine::new(app(1000), vec![1, 2, 2], EngineConfig::default()).expect("valid engine");
        let report = engine.run_until_events(2000, Duration::from_secs(20));
        assert_eq!(report.sink_events, 2000, "1000 inputs doubled");
        // Input side: spouts consume nothing, the bolt sees every sentence,
        // the sink consumes the doubled stream.
        assert_eq!(processed(&report), vec![0, 1000, 2000]);
        // Output side: spout emission and sink consumption are reported
        // separately and the doubling shows up between them.
        assert_eq!(emitted(&report), vec![1000, 2000, 0]);
        assert!(report.output_rate(0) > 0.0);
        assert!(report.input_rate(2) >= report.output_rate(0));
    }

    #[test]
    fn core_pool_delivers_exactly_like_thread_per_replica() {
        // The scheduler may change where and when tasks run — never how
        // many tuples flow. A 2-worker pool over 5 tasks must produce the
        // exact counter vectors of the threaded run above.
        let config = EngineConfig::builder()
            .scheduler(Scheduler::CorePool { workers: 2 })
            .build();
        let engine = Engine::new(app(1000), vec![1, 2, 2], config).expect("valid engine");
        let report = engine.run_until_events(2000, Duration::from_secs(60));
        assert_eq!(report.sink_events, 2000);
        assert_eq!(processed(&report), vec![0, 1000, 2000]);
        assert_eq!(emitted(&report), vec![1000, 2000, 0]);
        assert_eq!(report.latency_ns.count(), 2000, "sinks record latency");
    }

    #[test]
    fn single_worker_pool_survives_back_pressure_without_deadlock() {
        // One worker drives the whole pipeline through tiny queues: every
        // producer task hits back-pressure with nobody else to drain it.
        // Non-blocking flushes + task yield must keep the pool live (a
        // blocking push here would deadlock the lone worker forever).
        let config = EngineConfig::builder()
            .queue_capacity(2)
            .jumbo_size(8)
            .scheduler(Scheduler::CorePool { workers: 1 })
            .build();
        let engine = Engine::new(app(2000), vec![1, 2, 2], config).expect("valid engine");
        let report = engine.run_until_events(4000, Duration::from_secs(60));
        assert_eq!(report.sink_events, 4000);
        assert_eq!(processed(&report), vec![0, 2000, 4000]);
        let stalls: u64 = report
            .per_operator()
            .iter()
            .map(|o| o.queue_full_events)
            .sum();
        assert!(stalls > 0, "tiny queues must exercise the yield path");
    }

    #[test]
    fn auto_sized_pool_runs_oversubscribed_plans() {
        // workers = 0 sizes the pool to the host; 9 replicas on (possibly)
        // one core still drain to exhaustion.
        let config = EngineConfig::builder()
            .scheduler(Scheduler::CorePool { workers: 0 })
            .build();
        // Each of the 3 spout replicas feeds 600 sentences: 1800 in, 3600 out.
        let engine = Engine::new(app(600), vec![3, 3, 3], config).expect("valid engine");
        let report = engine.run_until_events(3600, Duration::from_secs(60));
        assert_eq!(report.sink_events, 3600);
        assert_eq!(processed(&report), vec![0, 1800, 3600]);
    }

    #[test]
    fn latency_is_recorded() {
        // [1,2,1] keeps real queue crossings in the pipeline (the bolt's
        // replication blocks fusion on both edges), so sink latency
        // reflects genuine queue dwell time. Fused-sink latency recording
        // is covered by `fusion_ab_is_equivalent_and_removes_every_crossing`.
        let engine =
            Engine::new(app(500), vec![1, 2, 1], EngineConfig::default()).expect("valid engine");
        let report = engine.run_until_events(1000, Duration::from_secs(20));
        assert_eq!(report.latency_ns.count(), 1000);
        assert!(report.latency_ns.percentile(99.0) > 0.0);
    }

    #[test]
    fn small_jumbo_still_correct() {
        let config = EngineConfig::builder().jumbo_size(1).build();
        let engine = Engine::new(app(300), vec![1, 1, 1], config).expect("valid engine");
        let report = engine.run_until_events(600, Duration::from_secs(20));
        assert_eq!(report.sink_events, 600);
    }

    #[test]
    fn numa_penalty_slows_remote_plans() {
        // Same app, same replication; one plan collocated, one split across
        // virtual sockets with a large latency. The remote plan must be
        // measurably slower.
        let machine = brisk_numa::MachineBuilder::new("virt")
            .sockets(2)
            .cores_per_socket(8)
            .clock_ghz(1.0)
            .local_latency_ns(50.0)
            .one_hop_latency_ns(20000.0) // exaggerated for test signal
            .max_hop_latency_ns(20000.0)
            .build();
        let mk_engine = |sockets: [usize; 3]| {
            let penalty = NumaPenalty {
                machine: machine.clone(),
                replica_socket: sockets.iter().map(|&s| SocketId(s)).collect(),
                scale: 1.0,
            };
            let config = EngineConfig::builder().numa_penalty(penalty).build();
            Engine::new(app(3000), vec![1, 1, 1], config).expect("valid engine")
        };
        let local = mk_engine([0, 0, 0]).run_until_events(6000, Duration::from_secs(30));
        let remote = mk_engine([0, 1, 0]).run_until_events(6000, Duration::from_secs(30));
        assert_eq!(local.sink_events, 6000);
        assert_eq!(remote.sink_events, 6000);
        assert!(
            remote.elapsed > local.elapsed,
            "remote {:?} should exceed local {:?}",
            remote.elapsed,
            local.elapsed
        );
    }

    #[test]
    fn with_plan_maps_compressed_vertices_to_replica_sockets() {
        // Multi-operator, multi-replica, compressed graph: replication
        // [2, 5, 1] at compress ratio 3 yields vertices s#0(x2) | x#0(x3),
        // x#1(x2) | k#0(x1). Each vertex's socket must fan out to exactly
        // the consecutive global replica indices it covers.
        use brisk_dag::VertexId;
        let machine = brisk_numa::MachineBuilder::new("map")
            .sockets(3)
            .cores_per_socket(8)
            .clock_ghz(1.0)
            .build();
        let app = app(10);
        let graph = ExecutionGraph::new(&app.topology, &[2, 5, 1], 3);
        assert_eq!(graph.vertex_count(), 4, "compression shape changed");
        let mut placement = brisk_dag::Placement::empty(graph.vertex_count());
        placement.place(VertexId(0), SocketId(1)); // s#0
        placement.place(VertexId(1), SocketId(0)); // x#0
        placement.place(VertexId(2), SocketId(2)); // x#1
        placement.place(VertexId(3), SocketId(1)); // k#0
        let plan = ExecutionPlan {
            replication: vec![2, 5, 1],
            compress_ratio: 3,
            placement,
        };
        let expected: Vec<SocketId> = [1, 1, 0, 0, 0, 2, 2, 1]
            .iter()
            .map(|&s| SocketId(s))
            .collect();
        assert_eq!(plan_replica_sockets(&app.topology, &plan), expected);
        let engine =
            Engine::with_plan(app, &plan, &machine, EngineConfig::default()).expect("valid engine");
        assert_eq!(engine.replica_sockets(), Some(expected.as_slice()));
        // The mapping is what the injected NUMA penalty charges: run it to
        // make sure the wired engine still delivers everything (two spout
        // replicas x 10 inputs, doubled by the bolt).
        let report = engine.run_until_events(u64::MAX, Duration::from_secs(20));
        assert_eq!(report.sink_events, 40);
    }

    #[test]
    fn fusion_ab_is_equivalent_and_removes_every_crossing() {
        // [1,1,1] fuses the whole pipeline into one executor. The A/B must
        // agree on every per-operator counter while the fused run performs
        // zero queue crossings. Running under debug assertions, this also
        // exercises the SPSC tripwires over the rewired graph.
        let run = |fusion: bool| {
            let config = EngineConfig::builder().fusion(fusion).build();
            let engine = Engine::new(app(1000), vec![1, 1, 1], config).expect("valid engine");
            engine.run_until_events(2000, Duration::from_secs(20))
        };
        let fused = run(true);
        let unfused = run(false);
        for report in [&fused, &unfused] {
            assert_eq!(report.sink_events, 2000);
            assert_eq!(processed(report), vec![0, 1000, 2000]);
            assert_eq!(emitted(report), vec![1000, 2000, 0]);
        }
        assert_eq!(
            total_pushes(&fused),
            0,
            "a fully fused chain crosses no queue"
        );
        assert!(
            total_pushes(&unfused) > 0,
            "the unfused run must pay real crossings"
        );
        assert_eq!(fused.latency_ns.count(), 2000, "fused sink records latency");
    }

    #[test]
    fn fused_chain_feeds_unfused_consumer_through_queues() {
        // s(1) -> x(1) fuses; x -> k(2) stays queued, pushed from the host
        // thread on behalf of the fused x. The sink replicas must shut down
        // cleanly via x's op_done latch (released by the host).
        let engine =
            Engine::new(app(500), vec![1, 1, 2], EngineConfig::default()).expect("valid engine");
        let report = engine.run_until_events(1000, Duration::from_secs(20));
        assert_eq!(report.sink_events, 1000);
        assert_eq!(processed(&report), vec![0, 500, 1000]);
        assert_eq!(emitted(&report), vec![500, 1000, 0]);
        assert_eq!(report.operator(0).queue_pushes, 0, "spout->x edge is fused");
        assert!(
            report.operator(1).queue_pushes > 0,
            "x->k edges stay queued"
        );
    }

    /// Sink appending every value it receives to a shared log.
    struct RecordingSink(Arc<Mutex<Vec<u64>>>);
    impl DynBolt for RecordingSink {
        fn execute(&mut self, t: &TupleView<'_>, _c: &mut Collector) {
            self.0.lock().push(*t.value::<u64>().expect("u64 payload"));
        }
    }

    /// `Global` funnel: spout replica r emits r*limit .. (r+1)*limit in
    /// order into the single sink replica, which logs arrivals.
    fn global_funnel_app(limit: u64, log: &Arc<Mutex<Vec<u64>>>) -> AppRuntime {
        let mut b = TopologyBuilder::new("funnel");
        let s = b.add_spout("s", CostProfile::trivial());
        let k = b.add_sink("k", CostProfile::trivial());
        b.connect(s, DEFAULT_STREAM, k, brisk_dag::Partitioning::Global);
        let t = b.build().expect("valid");
        let (s, k) = (t.find("s").expect("s"), t.find("k").expect("k"));
        let log = Arc::clone(log);
        AppRuntime::new(t)
            .spout(s, move |ctx| CountingSpout {
                next: ctx.replica as u64 * limit,
                limit: (ctx.replica as u64 + 1) * limit,
            })
            .sink(k, move |_| RecordingSink(Arc::clone(&log)))
    }

    #[test]
    fn global_funnel_wires_one_spsc_port_per_producer() {
        // Three spout replicas funnel into one sink replica over a Global
        // edge. The funnel takes the generic wiring with one consumer:
        // the sink replica polls one SPSC port per producer replica, so no
        // ring ever has two producers (in debug builds the ring's role
        // tripwire would panic if one did). Every tuple arrives exactly
        // once, and each producer's sequence arrives in order.
        const LIMIT: u64 = 400;
        for scheduler in [
            Scheduler::ThreadPerReplica,
            Scheduler::CorePool { workers: 2 },
        ] {
            let log = Arc::new(Mutex::new(Vec::new()));
            let config = EngineConfig::builder()
                .queue_capacity(2)
                .jumbo_size(8)
                .scheduler(scheduler)
                .build();
            let engine = Engine::new(global_funnel_app(LIMIT, &log), vec![3, 1], config)
                .expect("valid engine");

            let fusion = FusionPlan::compute(
                &engine.app.topology,
                &engine.replication,
                engine.replica_sockets(),
            );
            let pools: Vec<Vec<Arc<SlabPool>>> = engine
                .replication
                .iter()
                .map(|&r| (0..r).map(|_| SlabPool::standalone()).collect())
                .collect();
            let profile = BackoffProfile::dedicated(Duration::from_micros(100));
            let (inputs, _) = engine.wire_queues(&fusion, &[0, 3], &pools, profile);
            assert_eq!(inputs[3].len(), 3, "{scheduler:?}: one port per producer");

            let report = engine.run_until_events(3 * LIMIT, Duration::from_secs(30));
            assert_eq!(report.sink_events, 3 * LIMIT, "{scheduler:?}");
            let log = log.lock();
            let mut sorted = log.clone();
            sorted.sort_unstable();
            assert_eq!(
                sorted,
                (0..3 * LIMIT).collect::<Vec<_>>(),
                "{scheduler:?}: every tuple exactly once"
            );
            for p in 0..3 {
                let seq: Vec<u64> = log.iter().copied().filter(|v| v / LIMIT == p).collect();
                assert!(
                    seq.windows(2).all(|w| w[0] < w[1]),
                    "{scheduler:?}: producer {p} arrived out of order"
                );
            }
        }
    }

    struct BroadcastSpout {
        next: u64,
        limit: u64,
    }
    impl DynSpout for BroadcastSpout {
        fn next(&mut self, c: &mut Collector) -> SpoutStatus {
            if self.next >= self.limit {
                return SpoutStatus::Exhausted;
            }
            let now = c.now_ns();
            c.send_default(self.next, now, self.next);
            self.next += 1;
            SpoutStatus::Emitted(1)
        }
    }

    #[test]
    fn broadcast_counts_emitted_once_per_tuple_and_processed_per_copy() {
        // Pins the RunReport accounting semantics on Broadcast fan-out:
        // the producer's `emitted` counts each logical tuple ONCE (not once
        // per target replica), while the consumer side counts every
        // delivered copy — so a 3-replica broadcast shows emitted = N and
        // processed = sink_events = 3N.
        let mut b = TopologyBuilder::new("bc");
        let s = b.add_spout("s", CostProfile::trivial());
        let k = b.add_sink("k", CostProfile::trivial());
        b.connect(s, DEFAULT_STREAM, k, brisk_dag::Partitioning::Broadcast);
        let t = b.build().expect("valid");
        let (s, k) = (t.find("s").expect("s"), t.find("k").expect("k"));
        let app = AppRuntime::new(t)
            .spout(s, |_| BroadcastSpout {
                next: 0,
                limit: 600,
            })
            .sink(k, |_| NullSink);
        let engine = Engine::new(app, vec![1, 3], EngineConfig::default()).expect("valid engine");
        let report = engine.run_until_events(1800, Duration::from_secs(20));
        assert_eq!(
            report.operator(0).emitted,
            600,
            "one count per tuple, not per copy"
        );
        assert_eq!(
            report.operator(1).processed,
            1800,
            "each replica counts its copy"
        );
        assert_eq!(report.sink_events, 1800);
        // Crossings ship per (jumbo, target queue): three consumer queues
        // mean at least three pushes, and never fewer than the stalls.
        assert!(report.operator(0).queue_pushes >= 3);
        assert!(report.operator(0).queue_full_events <= report.operator(0).queue_pushes);
        // Broadcast is a refcount bump: each sealed slab feeds all three
        // replicas, so slab seals are bounded by the *logical* tuple count
        // — a fabric that copied per destination would need 3× the slabs.
        assert!(report.slab_allocs > 0, "the run used the batch fabric");
        assert!(
            report.slab_allocs + report.slab_recycled <= 600,
            "slab seals scale with logical tuples, not destination copies \
             (allocs {} + recycled {})",
            report.slab_allocs,
            report.slab_recycled
        );
    }

    fn forward_app(limit: u64) -> AppRuntime {
        // spout -> x over Forward (pairwise-fusable at equal counts),
        // x -> k over Shuffle.
        let mut b = TopologyBuilder::new("fwd");
        let s = b.add_spout("s", CostProfile::trivial());
        let x = b.add_bolt("x", CostProfile::trivial());
        let k = b.add_sink("k", CostProfile::trivial());
        b.connect(s, DEFAULT_STREAM, x, brisk_dag::Partitioning::Forward);
        b.connect_shuffle(x, k);
        let t = b.build().expect("valid");
        let (s, x, k) = (
            t.find("s").expect("s"),
            t.find("x").expect("x"),
            t.find("k").expect("k"),
        );
        AppRuntime::new(t)
            .spout(s, move |ctx| CountingSpout {
                next: ctx.replica as u64 * limit,
                limit: (ctx.replica as u64 + 1) * limit,
            })
            .bolt(x, |_| DoublingBolt)
            .sink(k, |_| NullSink)
    }

    #[test]
    fn forward_pairwise_fusion_ab_matches_and_silences_the_edge() {
        // 3:3 Forward pairs fuse: the A/B must agree on every counter
        // while the fused run's spout pushes nothing (its only edge is
        // fused); the hosted x instances still push to the sink queue.
        let run = |fusion: bool| {
            let config = EngineConfig::builder().fusion(fusion).build();
            let engine =
                Engine::new(forward_app(400), vec![3, 3, 1], config).expect("valid engine");
            engine.run_until_events(2400, Duration::from_secs(20))
        };
        let fused = run(true);
        let unfused = run(false);
        for report in [&fused, &unfused] {
            assert_eq!(report.sink_events, 2400);
            assert_eq!(processed(report), vec![0, 1200, 2400]);
            assert_eq!(emitted(report), vec![1200, 2400, 0]);
        }
        assert_eq!(
            fused.operator(0).queue_pushes,
            0,
            "fused Forward edge is silent"
        );
        assert!(
            fused.operator(1).queue_pushes > 0,
            "hosted x still pushes to k"
        );
        assert!(
            unfused.operator(0).queue_pushes > 0,
            "unfused pairs pay crossings"
        );
    }

    #[test]
    fn forward_with_unequal_counts_degrades_to_shuffle_without_fusing() {
        // 4 producers into 2 consumers: the pairing is meaningless, so the
        // edge degrades to Shuffle's even spread — every tuple arrives
        // exactly once, nothing fuses (counts differ), and the model's
        // work-conserving pooling matches what the engine executes.
        let engine =
            Engine::new(forward_app(250), vec![4, 2, 1], EngineConfig::default()).expect("valid");
        let report = engine.run_until_events(2000, Duration::from_secs(20));
        assert_eq!(report.sink_events, 2000);
        assert_eq!(report.operator(1).processed, 1000);
        assert!(
            report.operator(0).queue_pushes > 0,
            "4:2 Forward stays queued"
        );
    }

    /// Sink that asserts every tuple it sees hashes to its own replica
    /// index — the aligned-KeyBy pairing contract.
    struct ResidueAssertingSink {
        replica: usize,
        replicas: usize,
    }
    impl DynBolt for ResidueAssertingSink {
        fn execute(&mut self, t: &TupleView<'_>, _c: &mut Collector) {
            assert_eq!(
                (Tuple::mix_key(t.key) % self.replicas as u64) as usize,
                self.replica,
                "key {} leaked to replica {}",
                t.key,
                self.replica
            );
        }
    }

    /// Bolt that re-emits its input under the same key (key-preserving).
    struct KeyKeepingBolt;
    impl DynBolt for KeyKeepingBolt {
        fn execute(&mut self, t: &TupleView<'_>, c: &mut Collector) {
            let v = *t.value::<u64>().expect("u64 payload");
            c.send_default(v + 1, t.event_ns, t.key);
        }
    }

    #[test]
    fn aligned_keyby_pairwise_fusion_preserves_key_routing() {
        // s -> a (KeyBy) -> k (KeyBy), a key-preserving, [1, 2, 2]: the
        // a->k edge fuses pairwise, and every inline delivery must carry a
        // key belonging to that replica's shard — the sink instances
        // assert it tuple by tuple (a violation panics the host thread).
        let mut b = TopologyBuilder::new("aligned");
        let s = b.add_spout("s", CostProfile::trivial());
        let a = b.add_bolt("a", CostProfile::trivial());
        let k = b.add_sink("k", CostProfile::trivial());
        b.connect(s, DEFAULT_STREAM, a, brisk_dag::Partitioning::KeyBy);
        b.connect(a, DEFAULT_STREAM, k, brisk_dag::Partitioning::KeyBy);
        b.set_key_preserving(a);
        let t = b.build().expect("valid");
        let (s, a, k) = (
            t.find("s").expect("s"),
            t.find("a").expect("a"),
            t.find("k").expect("k"),
        );
        let app = AppRuntime::new(t)
            .spout(s, |_| CountingSpout {
                next: 0,
                limit: 1000,
            })
            .bolt(a, |_| KeyKeepingBolt)
            .sink(k, |ctx| ResidueAssertingSink {
                replica: ctx.replica,
                replicas: ctx.replicas,
            });
        let engine = Engine::new(app, vec![1, 2, 2], EngineConfig::default()).expect("valid");
        let report = engine.run_until_events(1000, Duration::from_secs(20));
        assert_eq!(report.sink_events, 1000);
        assert_eq!(processed(&report), vec![0, 1000, 1000]);
        assert_eq!(report.operator(1).queue_pushes, 0, "a->k fused pairwise");
        assert!(report.operator(0).queue_pushes > 0, "1:2 head stays queued");
        assert_eq!(report.latency_ns.count(), 1000, "fused sinks record");
    }

    #[test]
    fn rejects_bad_replication() {
        assert!(Engine::new(app(10), vec![1, 1], EngineConfig::default()).is_err());
        assert!(Engine::new(app(10), vec![1, 0, 1], EngineConfig::default()).is_err());
    }

    #[test]
    fn exhausted_spouts_end_the_run_before_the_event_target() {
        // 100 inputs can only ever produce 200 sink events; asking for more
        // must return as soon as the pipeline drains, not burn the timeout.
        let engine =
            Engine::new(app(100), vec![1, 1, 1], EngineConfig::default()).expect("valid engine");
        let t0 = Instant::now();
        let report = engine.run_until_events(u64::MAX, Duration::from_secs(30));
        assert_eq!(report.sink_events, 200);
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "drained pipeline should return early, took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn run_for_duration_terminates() {
        let engine =
            Engine::new(app(u64::MAX), vec![1, 1, 1], EngineConfig::default()).expect("valid");
        let report = engine.run_for(Duration::from_millis(200));
        assert!(report.sink_events > 0);
        assert!(report.throughput > 0.0);
    }
}
