//! The benchmark's workloads: which app runs, on which virtual machine,
//! under which plan, with how much input and at what offered rate.

use brisk_dag::LogicalTopology;
use brisk_numa::{Interconnect, Machine, MachineBuilder};
use brisk_rlas::{PlacementOptions, ScalingOptions};

/// The application a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// WordCount: spout → parser → splitter (×10) → counter (KeyBy) → sink.
    WordCount,
    /// SpikeDetection: spout → parser → moving average → spike detect → sink.
    SpikeDetection,
}

impl App {
    /// The paper abbreviation `brisk_apps` knows the app by.
    pub fn abbrev(self) -> &'static str {
        match self {
            App::WordCount => "WC",
            App::SpikeDetection => "SD",
        }
    }

    /// Seed the app's own spout replica 0 uses; replica `r` XORs in `r`.
    /// Benchmark seed 0 reproduces exactly these streams.
    pub fn seed_base(self) -> u64 {
        match self {
            App::WordCount => 0x5747,
            App::SpikeDetection => 0x5D,
        }
    }

    /// Sink tuples one input event turns into.
    pub fn sink_per_input(self) -> u64 {
        match self {
            App::WordCount => brisk_apps::word_count::WORDS_PER_SENTENCE as u64,
            App::SpikeDetection => 1,
        }
    }

    /// The app's declared (not live-profiled) topology and cost profiles.
    pub fn topology(self) -> LogicalTopology {
        brisk_apps::all_topologies()
            .into_iter()
            .find(|(a, _)| *a == self.abbrev())
            .map(|(_, t)| t)
            .expect("the app is part of brisk_apps::all_topologies")
    }
}

/// The virtual machine a workload's plan is optimized for and whose
/// cross-socket fetch cost the engine injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VirtualMachine {
    /// Server A (Table 2) restricted to its first two sockets.
    ServerA2Sockets,
    /// Two sockets of four cores with Server A's latencies and bandwidths.
    ServerA2x4,
}

impl VirtualMachine {
    /// Build the machine.
    pub fn build(self) -> Machine {
        match self {
            VirtualMachine::ServerA2Sockets => Machine::server_a().restrict_sockets(2),
            VirtualMachine::ServerA2x4 => MachineBuilder::new("Server A latencies [2S x 4C]")
                .sockets(2)
                .tray_size(4)
                .interconnect(Interconnect::GlueLess)
                .cores_per_socket(4)
                .clock_ghz(1.2)
                .local_latency_ns(50.0)
                .one_hop_latency_ns(307.7)
                .max_hop_latency_ns(548.0)
                .local_bandwidth_gbps(54.3)
                .one_hop_bandwidth_gbps(13.2)
                .max_hop_bandwidth_gbps(5.8)
                .build(),
        }
    }
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The application.
    pub app: App,
    /// The machine the plan is optimized for.
    pub machine: VirtualMachine,
    /// Input events per repetition (sentences for WC, readings for SD).
    pub input: u64,
    /// Open-loop arrival schedule; `None` means a closed loop where the
    /// spout free-runs and back-pressure sets the rate.
    pub pace: Option<Pacing>,
}

/// An open-loop arrival schedule: input events fall due in bursts of
/// `burst`, one burst every `burst / rate` seconds.
///
/// Bursts keep the latency figures about the program. When single events
/// fall due every 33 µs, a pool worker parks (100 µs `poll_backoff`)
/// between most of them, so latency follows the host's timer and wake-up
/// jitter: the p50 of repetitions in one run ranged 15–73 µs. A burst of
/// 60 sentences is 600 sink tuples, and its drain time dominates.
#[derive(Debug, Clone, Copy)]
pub struct Pacing {
    /// Offered input events per second.
    pub rate: f64,
    /// Input events that fall due at the same instant.
    pub burst: u64,
}

impl Pacing {
    /// The schedule of one of `replicas` spout replicas: the same burst
    /// period, each replica releasing its share of every burst.
    pub fn per_replica(self, replicas: usize) -> Pacing {
        let n = replicas.max(1);
        Pacing {
            rate: self.rate / n as f64,
            burst: (self.burst / n as u64).max(1),
        }
    }

    /// Seconds from the first due time to the last, for `input` events.
    pub fn last_due_s(self, input: u64) -> f64 {
        (input.saturating_sub(1) / self.burst * self.burst) as f64 / self.rate
    }
}

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "wc_saturate",
        app: App::WordCount,
        machine: VirtualMachine::ServerA2Sockets,
        input: 50_000,
        pace: None,
    },
    Workload {
        name: "sd_saturate",
        app: App::SpikeDetection,
        machine: VirtualMachine::ServerA2x4,
        input: 300_000,
        pace: None,
    },
    Workload {
        name: "wc_paced",
        app: App::WordCount,
        machine: VirtualMachine::ServerA2Sockets,
        input: 60_000,
        pace: Some(Pacing {
            rate: 30_000.0,
            burst: 60,
        }),
    },
];

/// How far past its last due time a paced spout may finish and still count
/// as having sustained its rate.
pub const PACED_SLACK_S: f64 = 0.05;

impl Workload {
    /// Look a workload up by name.
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Sink tuples a fully delivered repetition produces.
    pub fn expected_sink(&self) -> u64 {
        self.input * self.app.sink_per_input()
    }

    /// RLAS settings: compression ratio 2, an executor budget of eight
    /// threads (or the all-ones plan's spawned executors plus one, if that
    /// is larger) and a 2500-node branch-and-bound cap.
    pub fn scaling_options(&self, topology: &LogicalTopology) -> ScalingOptions {
        let all_ones = vec![1usize; topology.operator_count()];
        let floor = brisk_rlas::spawned_executors(topology, &all_ones) + 1;
        ScalingOptions {
            compress_ratio: 2,
            max_total_replicas: Some(floor.max(8)),
            placement: PlacementOptions {
                max_nodes: 2_500,
                ..PlacementOptions::default()
            },
            ..ScalingOptions::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursts_fall_due_together() {
        let pace = Pacing {
            rate: 30_000.0,
            burst: 60,
        };
        // 120 events are two bursts: the second falls due after 2 ms.
        assert!((pace.last_due_s(120) - 0.002).abs() < 1e-12);
        assert!((pace.last_due_s(121) - 0.004).abs() < 1e-12);
        assert_eq!(pace.last_due_s(1), 0.0);
        let half = pace.per_replica(2);
        assert_eq!((half.rate, half.burst), (15_000.0, 30));
        assert!((half.last_due_s(60) - 0.002).abs() < 1e-12);
    }
}
