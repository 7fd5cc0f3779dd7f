//! The benchmark's own spouts.
//!
//! They emit the same payload types and keys as the apps' spouts, built on
//! the same public generators, so the app bolts see the same kind of input;
//! the stream comes from the benchmark's seed. A spout either free-runs
//! (closed loop) or follows a fixed schedule of bursts (open loop),
//! stamping each tuple with the time it was *due*, so sink latency counts
//! any lateness of the generator itself.

use crate::workload::{App, Pacing};
use brisk_apps::generators::{SensorGenerator, SentenceGenerator};
use brisk_apps::word_count::WORDS_PER_SENTENCE;
use brisk_metrics::Histogram;
use brisk_runtime::{Collector, DynSpout, SpoutStatus};
use std::sync::{Arc, Mutex};

/// Vocabulary of the WC sentence generator (as in the app's spout).
const WC_VOCABULARY: usize = 1000;
/// Devices of the SD sensor generator (as in the app's spout).
const SD_DEVICES: u32 = 256;

/// Generator seed of spout replica `replica` under benchmark seed `seed`.
/// Seed 0 gives `seed_base ^ replica`, the app's own stream.
pub fn replica_seed(app: App, seed: u64, replica: usize) -> u64 {
    app.seed_base() ^ seed.wrapping_shl(16) ^ replica as u64
}

/// One input generator.
pub enum Source {
    /// WC sentences: `String` payload, key 0.
    Sentences(SentenceGenerator),
    /// SD readings: `SensorReading` payload, keyed by device.
    Readings(SensorGenerator),
}

impl Source {
    /// The generator of spout replica `replica`.
    pub fn new(app: App, seed: u64, replica: usize) -> Source {
        let s = replica_seed(app, seed, replica);
        match app {
            App::WordCount => {
                Source::Sentences(SentenceGenerator::new(s, WC_VOCABULARY, WORDS_PER_SENTENCE))
            }
            App::SpikeDetection => Source::Readings(SensorGenerator::new(s, SD_DEVICES)),
        }
    }
}

/// What the spouts of one repetition report after they are dropped.
#[derive(Debug, Default)]
pub struct SpoutLog {
    /// Tuples emitted, over all replicas.
    pub emitted: u64,
    /// Generator lateness in ns: for a paced spout, emission time minus due
    /// time; for a free-running one, the gap since its previous call
    /// returned. Recorded only when asked for.
    pub lag_ns: Histogram,
    /// Paced spouts: the longest time from a replica's first due time to
    /// its last emission, in ns.
    pub paced_span_ns: u64,
}

/// Open-loop schedule state.
struct Pace {
    period_ns: f64,
    burst: u64,
    first_due: Option<u64>,
}

/// A benchmark spout replica.
pub struct BenchSpout {
    source: Source,
    remaining: u64,
    emitted: u64,
    pace: Option<Pace>,
    record_lag: bool,
    lag_ns: Histogram,
    last_return_ns: Option<u64>,
    last_emit_ns: u64,
    log: Arc<Mutex<SpoutLog>>,
}

impl BenchSpout {
    /// A replica emitting `share` events, on the schedule `pace` when
    /// given, reporting into `log` when dropped.
    pub fn new(
        source: Source,
        share: u64,
        pace: Option<Pacing>,
        record_lag: bool,
        log: Arc<Mutex<SpoutLog>>,
    ) -> BenchSpout {
        BenchSpout {
            source,
            remaining: share,
            emitted: 0,
            pace: pace.map(|p| Pace {
                period_ns: 1e9 / p.rate,
                burst: p.burst.max(1),
                first_due: None,
            }),
            record_lag,
            lag_ns: Histogram::new(),
            last_return_ns: None,
            last_emit_ns: 0,
            log,
        }
    }
}

impl DynSpout for BenchSpout {
    fn next(&mut self, collector: &mut Collector) -> SpoutStatus {
        if self.remaining == 0 {
            return SpoutStatus::Exhausted;
        }
        let now = collector.now_ns();
        let (event_ns, lag) = match &mut self.pace {
            Some(pace) => {
                let first = *pace.first_due.get_or_insert(now);
                // Every event of a burst is due when its first one is.
                let slot = self.emitted / pace.burst * pace.burst;
                let due = first + (slot as f64 * pace.period_ns) as u64;
                if now < due {
                    return SpoutStatus::Idle;
                }
                (due, Some(now - due))
            }
            None => (now, self.last_return_ns.map(|r| now.saturating_sub(r))),
        };
        match &mut self.source {
            Source::Sentences(g) => collector.send_default(g.next_sentence(), event_ns, 0),
            Source::Readings(g) => {
                let r = g.next_reading();
                collector.send_default(r, event_ns, r.device as u64);
            }
        }
        self.remaining -= 1;
        self.emitted += 1;
        self.last_emit_ns = now;
        if self.record_lag {
            if let Some(lag) = lag {
                self.lag_ns.record(lag as f64);
            }
            if self.pace.is_none() {
                self.last_return_ns = Some(collector.now_ns());
            }
        }
        SpoutStatus::Emitted(1)
    }
}

impl Drop for BenchSpout {
    fn drop(&mut self) {
        // Dropping never panics: a poisoned log only loses this report,
        // which the repetition's conservation check then flags.
        if let Ok(mut log) = self.log.lock() {
            log.emitted += self.emitted;
            log.lag_ns.merge(&self.lag_ns);
            if let Some(first) = self.pace.as_ref().and_then(|p| p.first_due) {
                log.paced_span_ns = log
                    .paced_span_ns
                    .max(self.last_emit_ns.saturating_sub(first));
            }
        }
    }
}
