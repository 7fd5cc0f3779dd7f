//! Output checking: an order-independent digest of what reaches the sink,
//! and a single-threaded oracle that computes the digest the input must
//! produce.
//!
//! * WC: the counter emits `(word, count)` for every word, so the sum of
//!   the counts at the sink is `Σ_w n_w (n_w + 1) / 2` over the input's
//!   word frequencies `n_w`, whatever the interleaving.
//! * SD: the sum of device ids and the number of readings flagged as
//!   spikes. Per-device order survives KeyBy routing from one parser, so
//!   every verdict is deterministic.

use crate::spout::Source;
use crate::workload::App;
use brisk_apps::generators::SensorReading;
use brisk_apps::spike_detection::{SpikeSignal, THRESHOLD, WINDOW};
use brisk_runtime::{BatchCursor, TupleView};
use std::collections::{HashMap, VecDeque};

/// Order-independent summary of a sink's input.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    /// Tuples seen.
    pub tuples: u64,
    /// WC: Σ counts. SD: Σ device ids.
    pub sum: u64,
    /// WC: 0. SD: readings flagged as spikes.
    pub flagged: u64,
}

impl Digest {
    /// Fold another digest in.
    pub fn merge(&mut self, other: &Digest) {
        self.tuples += other.tuples;
        self.sum = self.sum.wrapping_add(other.sum);
        self.flagged += other.flagged;
    }

    /// Fold one sink tuple in.
    pub fn add_view(&mut self, app: App, view: &TupleView<'_>) {
        match app {
            App::WordCount => {
                if let Some((_, count)) = view.value::<(String, u64)>() {
                    self.add_count(*count);
                }
            }
            App::SpikeDetection => {
                if let Some(s) = view.value::<SpikeSignal>() {
                    self.add_signal(s);
                }
            }
        }
    }

    /// Fold a whole sink batch in through its payload slice.
    pub fn add_batch(&mut self, app: App, input: &BatchCursor<'_>) {
        match app {
            App::WordCount => {
                for (_, count) in input.payloads::<(String, u64)>().unwrap_or(&[]) {
                    self.add_count(*count);
                }
            }
            App::SpikeDetection => {
                for s in input.payloads::<SpikeSignal>().unwrap_or(&[]) {
                    self.add_signal(s);
                }
            }
        }
    }

    fn add_count(&mut self, count: u64) {
        self.tuples += 1;
        self.sum = self.sum.wrapping_add(count);
    }

    fn add_signal(&mut self, s: &SpikeSignal) {
        self.tuples += 1;
        self.sum = self.sum.wrapping_add(s.device as u64);
        self.flagged += u64::from(s.spike);
    }
}

/// The digest a correct run over these spout replicas' inputs delivers:
/// replica `r` of `shares.len()` emits `shares[r]` events.
pub fn oracle(app: App, seed: u64, shares: &[u64]) -> Digest {
    let mut digest = Digest::default();
    match app {
        App::WordCount => {
            let mut freq: HashMap<String, u64> = HashMap::new();
            for (r, &share) in shares.iter().enumerate() {
                let Source::Sentences(mut g) = Source::new(app, seed, r) else {
                    unreachable!("WC spouts generate sentences");
                };
                for _ in 0..share {
                    for word in g.next_sentence().split(' ') {
                        *freq.entry(word.to_string()).or_insert(0) += 1;
                    }
                }
            }
            for n in freq.values() {
                digest.tuples += n;
                digest.sum = digest.sum.wrapping_add(n * (n + 1) / 2);
            }
        }
        App::SpikeDetection => {
            let mut windows: HashMap<u32, VecDeque<f64>> = HashMap::new();
            for (r, &share) in shares.iter().enumerate() {
                let Source::Readings(mut g) = Source::new(app, seed, r) else {
                    unreachable!("SD spouts generate readings");
                };
                for _ in 0..share {
                    let SensorReading { device, value } = g.next_reading();
                    let window = windows.entry(device).or_default();
                    window.push_back(value);
                    if window.len() > WINDOW {
                        window.pop_front();
                    }
                    let average = window.iter().sum::<f64>() / window.len() as f64;
                    digest.add_signal(&SpikeSignal {
                        device,
                        value,
                        spike: value > THRESHOLD * average,
                    });
                }
            }
        }
    }
    digest
}
