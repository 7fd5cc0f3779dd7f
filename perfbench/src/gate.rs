//! The correctness gate every measured repetition must pass.

use crate::digest::Digest;
use crate::workload::PACED_SLACK_S;

/// How far a paced repetition's throughput may sit from the offered rate
/// (start-up and drain are inside the timed interval).
pub const PACED_RATE_TOLERANCE: f64 = 0.02;

/// What one repetition delivered, next to what it should have.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Input events the spouts were asked for.
    pub input: u64,
    /// Input events the spouts emitted.
    pub emitted: u64,
    /// Sink tuples a correct run delivers.
    pub expected_sink: u64,
    /// Sink tuples the engine counted.
    pub sink_events: u64,
    /// Structured faults in the run report.
    pub faults: usize,
    /// Replica restarts.
    pub restarts: u64,
    /// Quarantined tuples.
    pub quarantined: u64,
    /// Digest of the sink's input.
    pub digest: Digest,
    /// Digest the oracle computed from the input.
    pub expected_digest: Digest,
    /// Open-loop repetitions only.
    pub paced: Option<Paced>,
}

/// Whether an open-loop repetition kept its schedule.
#[derive(Debug, Clone, Copy)]
pub struct Paced {
    /// Seconds from the first due time to the last emission.
    pub spout_span_s: f64,
    /// Seconds from the first due time to the last.
    pub scheduled_s: f64,
    /// Measured sink tuples per second.
    pub throughput: f64,
    /// Offered sink tuples per second.
    pub offered: f64,
}

impl Outcome {
    /// Sink tuples lost, duplicated or quarantined.
    pub fn failed_tuples(&self) -> u64 {
        self.expected_sink.abs_diff(self.sink_events) + self.quarantined
    }

    /// The names of the checks this repetition fails, with the numbers
    /// that failed them; empty when it passes.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.emitted != self.input {
            out.push(format!(
                "spout_input: emitted {} of {}",
                self.emitted, self.input
            ));
        }
        if self.sink_events != self.expected_sink {
            out.push(format!(
                "sink_count: delivered {} of {}",
                self.sink_events, self.expected_sink
            ));
        }
        if self.faults != 0 || self.restarts != 0 || self.quarantined != 0 {
            out.push(format!(
                "faults: {} faults, {} restarts, {} quarantined",
                self.faults, self.restarts, self.quarantined
            ));
        }
        if self.digest != self.expected_digest {
            out.push(format!(
                "sink_digest: got {:?}, oracle {:?}",
                self.digest, self.expected_digest
            ));
        }
        if let Some(p) = self.paced {
            if p.spout_span_s > p.scheduled_s + PACED_SLACK_S {
                out.push(format!(
                    "paced_sustain: spout took {:.4} s for a {:.4} s schedule (slack {PACED_SLACK_S} s)",
                    p.spout_span_s, p.scheduled_s
                ));
            }
            if (p.throughput / p.offered - 1.0).abs() > PACED_RATE_TOLERANCE {
                out.push(format!(
                    "paced_rate: {:.0} sink tuples/s against {:.0} offered",
                    p.throughput, p.offered
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean() -> Outcome {
        let digest = Digest {
            tuples: 100,
            sum: 5050,
            flagged: 3,
        };
        Outcome {
            input: 10,
            emitted: 10,
            expected_sink: 100,
            sink_events: 100,
            faults: 0,
            restarts: 0,
            quarantined: 0,
            digest,
            expected_digest: digest,
            paced: Some(Paced {
                spout_span_s: 1.0,
                scheduled_s: 1.0,
                throughput: 300_000.0,
                offered: 300_000.0,
            }),
        }
    }

    /// Assert that `clean()` with `doctor` applied fails `check`.
    fn fails(check: &str, doctor: impl FnOnce(&mut Outcome)) {
        let mut o = clean();
        doctor(&mut o);
        let failures = o.failures();
        assert!(
            failures.iter().any(|f| f.starts_with(check)),
            "{check} not flagged: {failures:?}"
        );
    }

    fn paced(o: &mut Outcome) -> &mut Paced {
        o.paced.as_mut().expect("the clean outcome is paced")
    }

    #[test]
    fn a_clean_outcome_passes() {
        assert!(clean().failures().is_empty());
        assert_eq!(clean().failed_tuples(), 0);
    }

    #[test]
    fn short_spout_fails() {
        fails("spout_input", |o| o.emitted -= 1);
    }

    #[test]
    fn lost_and_duplicated_sink_tuples_fail() {
        fails("sink_count", |o| o.sink_events -= 1);
        fails("sink_count", |o| o.sink_events += 1);
        let mut o = clean();
        o.sink_events -= 3;
        assert_eq!(o.failed_tuples(), 3);
    }

    #[test]
    fn faults_restarts_and_quarantine_fail() {
        fails("faults", |o| o.faults = 1);
        fails("faults", |o| o.restarts = 1);
        fails("faults", |o| o.quarantined = 2);
        let mut o = clean();
        o.quarantined = 2;
        assert_eq!(o.failed_tuples(), 2);
    }

    #[test]
    fn wrong_output_content_fails() {
        fails("sink_digest", |o| o.digest.sum += 1);
        fails("sink_digest", |o| o.digest.flagged -= 1);
    }

    #[test]
    fn a_late_paced_spout_fails() {
        fails("paced_sustain", |o| {
            paced(o).spout_span_s += PACED_SLACK_S * 1.5;
        });
    }

    #[test]
    fn an_unsustained_paced_rate_fails() {
        fails("paced_rate", |o| paced(o).throughput = 250_000.0);
    }

    #[test]
    fn slack_within_bounds_passes() {
        let mut o = clean();
        paced(&mut o).spout_span_s += PACED_SLACK_S * 0.5;
        paced(&mut o).throughput *= 1.0 - PACED_RATE_TOLERANCE / 2.0;
        assert!(o.failures().is_empty());
    }
}
