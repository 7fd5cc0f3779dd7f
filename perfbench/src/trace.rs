//! Operator wrappers: the sink's output digest and, in traced runs,
//! sampled spans around every operator call.
//!
//! Every wrapper times its operator from outside. A top-level call (one
//! the engine makes: a spout's `next`, a queued bolt's `consume`) is
//! recorded every [`SAMPLE_EVERY`]th time per replica. A call made inside
//! another on the same thread — a fused operator running inline inside its
//! host — is recorded exactly when the enclosing call is, as a child of
//! its span, so a span's self time is its duration minus its children's
//! and no time is counted twice. Spans stay in memory and are written out
//! after the run.

use crate::digest::Digest;
use crate::workload::App;
use brisk_runtime::{BatchCursor, Collector, DynBolt, DynSpout, SpoutStatus, TupleView};
use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Record every Nth top-level call per replica.
pub const SAMPLE_EVERY: u64 = 32;

/// Spans a run keeps for writing out; later spans still count in totals.
const MAX_SPANS: usize = 50_000;

/// Span id marking an open top-level call that is not recorded, so the
/// fused calls nested in it are not recorded either.
const UNRECORDED: u64 = 0;

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Open recorded spans on this thread: (span id, ns covered by children).
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// The span clock: ns since its first use in the process.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded operator call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span id, unique in the process.
    pub id: u64,
    /// The enclosing span, 0 for a top-level call.
    pub parent: u64,
    /// Logical operator index.
    pub op: usize,
    /// Replica index.
    pub replica: usize,
    /// Start, ns since the first span of the process.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Tuples the call handled (emitted, for a spout).
    pub tuples: u64,
    /// Duration minus the time covered by child spans.
    pub self_ns: u64,
}

/// Per-operator totals over recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpTotals {
    /// Σ span durations.
    pub busy_ns: u64,
    /// Σ span self times.
    pub self_ns: u64,
    /// Σ tuples of the recorded calls.
    pub tuples: u64,
    /// Top-level calls made.
    pub top_calls: u64,
    /// Top-level calls recorded.
    pub top_sampled: u64,
    /// Σ durations of recorded top-level calls.
    pub top_ns: u64,
}

impl OpTotals {
    /// Estimated total time of all top-level calls: the recorded time
    /// scaled up by the sampling ratio.
    pub fn estimated_call_ns(&self) -> f64 {
        if self.top_sampled == 0 {
            0.0
        } else {
            self.top_ns as f64 * self.top_calls as f64 / self.top_sampled as f64
        }
    }
}

/// Where the wrappers of one run deliver spans, totals and sink digests.
#[derive(Debug, Default)]
pub struct TraceLog {
    /// Every recorded span.
    pub spans: Vec<Span>,
    /// Totals per logical operator index.
    pub ops: Vec<OpTotals>,
    /// Set-up and run phases of traced repetitions: (name, start, end).
    pub phases: Vec<(&'static str, u64, u64)>,
    /// Digest of everything the sinks received.
    pub digest: Digest,
}

impl TraceLog {
    /// Take the sink digest gathered since the last call.
    pub fn take_digest(&mut self) -> Digest {
        std::mem::take(&mut self.digest)
    }

    /// Write every phase and span as CSV; a phase has id 0 and is named
    /// in the `op` column.
    pub fn write_spans(&self, path: &std::path::Path, op_names: &[String]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,op,replica,start_ns,end_ns,tuples,self_ns")?;
        for &(phase, start, end) in &self.phases {
            writeln!(out, "0,0,{phase},0,{start},{end},0,{}", end - start)?;
        }
        for s in &self.spans {
            writeln!(
                out,
                "{},{},{},{},{},{},{},{}",
                s.id,
                s.parent,
                op_names[s.op],
                s.replica,
                s.start_ns,
                s.end_ns,
                s.tuples,
                s.self_ns
            )?;
        }
        out.flush()
    }
}

/// Span state of one wrapped replica.
struct Tracer {
    op: usize,
    replica: usize,
    totals: OpTotals,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(op: usize, replica: usize) -> Tracer {
        Tracer {
            op,
            replica,
            totals: OpTotals::default(),
            spans: Vec::new(),
        }
    }

    /// Run `call`, recording a span when sampled or nested in one.
    fn run<R>(&mut self, call: impl FnOnce() -> R, tuples: impl FnOnce(&R) -> u64) -> R {
        let parent = OPEN.with(|o| o.borrow().last().map(|&(id, _)| id));
        match parent {
            // Inside an unrecorded call: part of that call's time.
            Some(UNRECORDED) => return call(),
            Some(_) => {}
            None => {
                self.totals.top_calls += 1;
                if self.totals.top_calls % SAMPLE_EVERY != 1 {
                    OPEN.with(|o| o.borrow_mut().push((UNRECORDED, 0)));
                    let result = call();
                    OPEN.with(|o| o.borrow_mut().pop());
                    return result;
                }
            }
        }
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|o| o.borrow_mut().push((id, 0)));
        let start_ns = now_ns();
        let result = call();
        let end_ns = now_ns();
        let duration = end_ns - start_ns;
        let child_ns = OPEN.with(|o| {
            let mut open = o.borrow_mut();
            let (_, child_ns) = open.pop().expect("the span pushed above");
            if let Some(enclosing) = open.last_mut() {
                enclosing.1 += duration;
            }
            child_ns
        });
        let tuples = tuples(&result);
        let self_ns = duration.saturating_sub(child_ns);
        if parent.is_none() {
            self.totals.top_sampled += 1;
            self.totals.top_ns += duration;
        }
        // A spout call that emitted nothing is polling, not generation: it
        // counts as call time above but not as per-tuple work.
        if tuples == 0 {
            return result;
        }
        self.totals.busy_ns += duration;
        self.totals.self_ns += self_ns;
        self.totals.tuples += tuples;
        if self.spans.len() < MAX_SPANS {
            self.spans.push(Span {
                id,
                parent: parent.unwrap_or(0),
                op: self.op,
                replica: self.replica,
                start_ns,
                end_ns,
                tuples,
                self_ns,
            });
        }
        result
    }

    fn deliver(&mut self, log: &mut TraceLog) {
        if log.ops.len() <= self.op {
            log.ops.resize(self.op + 1, OpTotals::default());
        }
        let t = &mut log.ops[self.op];
        t.busy_ns += self.totals.busy_ns;
        t.self_ns += self.totals.self_ns;
        t.tuples += self.totals.tuples;
        t.top_calls += self.totals.top_calls;
        t.top_sampled += self.totals.top_sampled;
        t.top_ns += self.totals.top_ns;
        let room = MAX_SPANS.saturating_sub(log.spans.len());
        self.spans.truncate(room);
        log.spans.append(&mut self.spans);
    }
}

/// A wrapped bolt or sink replica: optional span tracing, and for sinks
/// the output digest.
pub struct BoltShim {
    inner: Box<dyn DynBolt>,
    tracer: Option<Tracer>,
    digest: Option<(App, Digest)>,
    log: Arc<Mutex<TraceLog>>,
}

impl BoltShim {
    /// Wrap `inner`, replica `replica` of operator `op`.
    pub fn new(
        inner: Box<dyn DynBolt>,
        op: usize,
        replica: usize,
        traced: bool,
        digest: Option<App>,
        log: Arc<Mutex<TraceLog>>,
    ) -> BoltShim {
        BoltShim {
            inner,
            tracer: traced.then(|| Tracer::new(op, replica)),
            digest: digest.map(|app| (app, Digest::default())),
            log,
        }
    }
}

impl DynBolt for BoltShim {
    fn execute(&mut self, tuple: &TupleView<'_>, collector: &mut Collector) {
        if let Some((app, digest)) = &mut self.digest {
            digest.add_view(*app, tuple);
        }
        let inner = &mut self.inner;
        match &mut self.tracer {
            Some(t) => t.run(|| inner.execute(tuple, collector), |_| 1),
            None => inner.execute(tuple, collector),
        }
    }

    fn consume(&mut self, input: &BatchCursor<'_>, collector: &mut Collector) {
        if let Some((app, digest)) = &mut self.digest {
            digest.add_batch(*app, input);
        }
        let inner = &mut self.inner;
        let tuples = input.len() as u64;
        match &mut self.tracer {
            Some(t) => t.run(|| inner.consume(input, collector), |_| tuples),
            None => inner.consume(input, collector),
        }
    }

    fn finish(&mut self, collector: &mut Collector) {
        self.inner.finish(collector);
    }
}

impl Drop for BoltShim {
    fn drop(&mut self) {
        // Dropping never panics: a poisoned log loses this replica's
        // digest, which the repetition's output check then flags.
        if let Ok(mut log) = self.log.lock() {
            if let Some((_, digest)) = &self.digest {
                log.digest.merge(digest);
            }
            if let Some(t) = &mut self.tracer {
                t.deliver(&mut log);
            }
        }
    }
}

/// A spout replica with optional span tracing.
pub struct SpoutShim<S> {
    inner: S,
    tracer: Option<Tracer>,
    log: Arc<Mutex<TraceLog>>,
}

impl<S: DynSpout> SpoutShim<S> {
    /// Wrap `inner`, replica `replica` of spout operator `op`.
    pub fn new(
        inner: S,
        op: usize,
        replica: usize,
        traced: bool,
        log: Arc<Mutex<TraceLog>>,
    ) -> Self {
        SpoutShim {
            inner,
            tracer: traced.then(|| Tracer::new(op, replica)),
            log,
        }
    }
}

impl<S: DynSpout> DynSpout for SpoutShim<S> {
    fn next(&mut self, collector: &mut Collector) -> SpoutStatus {
        let inner = &mut self.inner;
        match &mut self.tracer {
            Some(t) => t.run(
                || inner.next(collector),
                |status| match status {
                    SpoutStatus::Emitted(n) => *n as u64,
                    _ => 0,
                },
            ),
            None => inner.next(collector),
        }
    }
}

impl<S> Drop for SpoutShim<S> {
    fn drop(&mut self) {
        if let (Some(t), Ok(mut log)) = (&mut self.tracer, self.log.lock()) {
            t.deliver(&mut log);
        }
    }
}
