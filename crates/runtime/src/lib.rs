//! # brisk-runtime
//!
//! The BriskStream execution engine (Section 5 + Appendix A): a real,
//! threaded, shared-memory streaming runtime.
//!
//! Design points taken from the paper:
//!
//! * **Operator-per-thread**: each replica of each operator is one task run
//!   by one OS thread inside a single process, so tuples are passed **by
//!   reference** — producers store payloads in shared slabs and enqueue
//!   only container handles.
//! * **Jumbo tuples over a zero-copy batch fabric** ([`batch`]): output
//!   tuples headed for the same consumer accumulate in a typed,
//!   arena-backed [`Batch`] (contiguous payloads + parallel event-time /
//!   key lanes over one refcounted slab) and ship as one [`JumboTuple`]
//!   container handle — a single queue insertion moves the whole batch
//!   (Section 5.2), broadcast is a refcount bump, and slab storage
//!   recycles through per-producer [`SlabPool`] arenas so the steady
//!   state allocates nothing.
//! * **Bounded queues with back-pressure**: when a consumer falls behind,
//!   its input queues fill and producers block, eventually throttling the
//!   spout so the system settles at its maximum sustainable rate
//!   (Section 6.1, footnote 2). Every queue is a **lock-free
//!   cache-conscious SPSC ring** ([`SpscQueue`]): the engine wires one
//!   ring per (producer replica, consumer replica) pair, so each ring has
//!   exactly one producer by construction — a multi-replica `Global`
//!   funnel gives its single consumer one port per producer replica.
//!   Idle executors and blocked producers wait on an adaptive
//!   **spin → yield → park** ladder ([`Backoff`]) whose rung layout
//!   ([`BackoffProfile`]) turns park-dominant when replica threads
//!   outnumber hardware cores.
//! * **Partition controller**: every task routes each emitted tuple to one
//!   output buffer per consumer replica according to the edge's partitioning
//!   strategy (shuffle / key-by / broadcast / global / forward).
//! * **Operator-chain fusion** ([`fusion`], [`brisk_dag::FusionPlan`]):
//!   collocated producer→consumer pairs wired 1:1 at the replica level —
//!   single-replica chains, equal-count `Forward` edges, aligned KeyBy —
//!   collapse into host executors that run the downstream operator
//!   inline, one instance per replica pair, in the producer's thread: no
//!   jumbo batching, queue crossing, poll loop, or fetch-cost injection
//!   on fused edges ([`EngineConfig::fusion`], default on).
//!
//! * **Execution schedulers** ([`scheduler`]): replicas run either one per
//!   OS thread ([`Scheduler::ThreadPerReplica`], the paper's executor
//!   model) or as *tasks* multiplexed onto a fixed pool of workers through
//!   work-stealing run queues with wake-on-push
//!   ([`Scheduler::CorePool`]) — decoupling replica counts from thread
//!   counts, so heavily replicated plans no longer oversubscribe the host.
//!
//! * **Supervised execution** ([`supervise`]): every user-operator call is
//!   panic-contained; a panicking replica becomes a structured
//!   [`ReplicaFault`], the poison tuple is quarantined (at-most-once for
//!   it, exactly-once for everything else), and a [`RestartPolicy`] decides
//!   between bounded exponential-backoff restarts and clean retirement.
//!   An optional stall watchdog ([`EngineConfig::stall_deadline`]) flags
//!   no-progress replicas without ever killing one, and the deterministic
//!   [`FaultPlan`] harness ([`faultinject`]) drives fault-conformance
//!   testing across schedulers and fusion settings.
//!
//! * **Elastic execution** ([`elastic`]): the profile → optimize → execute
//!   life cycle runs continuously. An [`ElasticEngine`] samples live
//!   per-replica rates ([`EngineHandle::rates`]), detects drift against
//!   the cost model's prediction for the running plan, re-calibrates the
//!   model from measurement, re-runs RLAS warm-started from the incumbent
//!   plan, and migrates the running engine onto a sufficiently better plan
//!   through a tuple-safe pause → drain → hand-off-state → rewire → resume
//!   protocol ([`EngineHandle::request_migration`],
//!   [`Engine::preload_state`]). Skew-aware KeyBy re-weighting
//!   ([`Engine::set_keyby_weights`]) rides the same migration path.
//!
//! The engine executes a [`brisk_dag::LogicalTopology`] under a
//! [`brisk_dag::ExecutionPlan`]; socket placement is honoured as bookkeeping
//! (and, optionally, as an injected NUMA fetch delay via
//! [`EngineConfig::numa_penalty`]) so that plan shapes remain meaningful on
//! development hosts that lack real multi-socket hardware.
#![warn(missing_docs)]

pub mod batch;
pub mod drift;
pub mod elastic;
pub mod engine;
pub mod faultinject;
pub mod fusion;
pub mod operator;
pub mod partition;
pub mod scheduler;
pub mod spsc;
pub mod supervise;
pub mod tuple;

pub use batch::{Batch, BatchBuilder, BatchCursor, SlabPool, SlabStats, TupleView};
pub use drift::DriftPlan;
pub use elastic::{ElasticEngine, ElasticOptions, ElasticReport};
pub use engine::{
    plan_replica_sockets, Engine, EngineConfig, EngineConfigBuilder, EngineHandle, HarvestedState,
    NumaPenalty, OpStats, ReplicaRate, RunLimit, RunReport,
};
pub use faultinject::{silence_injected_panics, FaultPlan, INJECTED_PANIC_PREFIX};
pub use operator::{
    AppRuntime, BoltContext, Collector, DynBolt, DynSpout, OperatorRuntime, SpoutStatus, StateEntry,
};
pub use partition::{keyby_slot_table, route_keyed, Partitioner, KEYBY_SLOTS_PER_CONSUMER};
pub use scheduler::Scheduler;
pub use spsc::{Backoff, BackoffProfile, PushError, SpscQueue};
pub use supervise::{
    FaultKind, FaultSummary, ReplicaFault, RestartPolicy, StallEvent, MAX_RESTART_BACKOFF,
};
pub use tuple::{JumboTuple, Tuple};
