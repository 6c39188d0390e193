//! The benchmark's workloads. Each fixes a traffic shape, a scheduler
//! frontend and a link, and sizes its trace from the run length; see
//! `README.md` beside this crate for why each one exists.

use scheduler::{AdmissionPolicy, SchedulerConfig, WrapPolicy};
use tagsort::{BackendSpec, CleanupPolicy, Geometry, MemoryKind};
use traffic::{ChurnSpec, FlowId, FlowSpec, ScaleConfig};

/// One benchmark workload, as plain values.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Flow population.
    pub flows: u32,
    /// Weights cycle through `1..=weight_cycle` by flow id (1 = equal).
    pub weight_cycle: u32,
    /// Zipf popularity exponent of the arrival stream (0 = uniform).
    pub zipf: f64,
    /// Smallest packet, bytes.
    pub min_bytes: u32,
    /// Largest packet, bytes.
    pub max_bytes: u32,
    /// Offered arrival rate, bits per simulated second.
    pub offered_bps: f64,
    /// Offered rate over link rate.
    pub load: f64,
    /// Buffer and sorter capacity, packets (per port when sharded).
    pub capacity: usize,
    /// Sort-tree geometry as (literal bits, levels).
    pub geometry: (u32, u32),
    /// Full-buffer behaviour.
    pub admission: AdmissionPolicy,
    /// Whether the sorter's state is paged (trie backend only).
    pub paged: bool,
    /// Output ports; 1 is the single `HwScheduler` frontend, more is the
    /// sequential `ShardedScheduler` with dynamic placement.
    pub ports: usize,
    /// Flash crowd `(crowd_flows, boost)` over the middle fifth of the
    /// trace's simulated time.
    pub churn: Option<(u32, f64)>,
    /// Trace length per second of run: long enough for a steady p99
    /// sojourn. A constant, so one `--seconds` always yields the same
    /// trace.
    pub packets_per_run_second: u64,
    /// Measured passes per run. A constant rather than however many
    /// fit in `--seconds`, so a faster or slower program is estimated
    /// from the same number of samples; chosen so that the passes and
    /// their set-ups take about `--seconds` on the reference host.
    pub passes: usize,
    /// Set-ups built back to back and timed before each pass; the last
    /// is the pass's own. Several per pass sample a cheap set-up many
    /// times, and bring glibc's adaptive `mmap` threshold to one steady
    /// state whatever the seed (see `README.md`).
    pub setups_per_pass: usize,
}

/// Arrivals between two rebalance rounds on the sharded frontend.
pub const REBALANCE_EVERY: u64 = 1024;

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 4] = [
    Workload {
        name: "steady_small",
        flows: 64,
        weight_cycle: 7,
        zipf: 0.0,
        min_bytes: 140,
        max_bytes: 140,
        offered_bps: 0.98 * 40e9,
        load: 0.98,
        capacity: 1 << 14,
        geometry: (4, 3),
        admission: AdmissionPolicy::TailDrop,
        paged: false,
        ports: 1,
        churn: None,
        packets_per_run_second: 80_000,
        passes: 14,
        setups_per_pass: 20,
    },
    Workload {
        name: "million_zipf",
        flows: 1 << 20,
        weight_cycle: 1,
        zipf: 1.05,
        min_bytes: 64,
        max_bytes: 1500,
        offered_bps: 10e9,
        load: 0.8,
        capacity: 1 << 14,
        geometry: (6, 4),
        admission: AdmissionPolicy::TailDrop,
        paged: true,
        ports: 1,
        churn: Some((100_000, 0.5)),
        packets_per_run_second: 30_000,
        passes: 32,
        setups_per_pass: 1,
    },
    Workload {
        name: "overload_pushout",
        flows: 4096,
        weight_cycle: 1,
        zipf: 1.1,
        min_bytes: 64,
        max_bytes: 1500,
        offered_bps: 10e9,
        load: 1.25,
        capacity: 4096,
        geometry: (4, 5),
        admission: AdmissionPolicy::PushOut,
        paged: false,
        ports: 1,
        churn: None,
        packets_per_run_second: 12_000,
        passes: 32,
        setups_per_pass: 2,
    },
    Workload {
        name: "sharded_skew",
        flows: 65_536,
        weight_cycle: 1,
        zipf: 1.2,
        min_bytes: 64,
        max_bytes: 1500,
        offered_bps: 10e9,
        load: 0.9,
        capacity: 1 << 14,
        geometry: (4, 5),
        admission: AdmissionPolicy::TailDrop,
        paged: false,
        ports: 8,
        churn: None,
        packets_per_run_second: 40_000,
        passes: 32,
        setups_per_pass: 3,
    },
];

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<Workload> {
        ALL.iter().copied().find(|w| w.name == name)
    }

    /// Sort-tree geometry.
    pub fn geometry(&self) -> Geometry {
        Geometry::new(self.geometry.0, self.geometry.1)
    }

    /// Link (service) rate, bits per simulated second.
    pub fn link_bps(&self) -> f64 {
        self.offered_bps / self.load
    }

    /// Packets in one measured pass of a run lasting `seconds`.
    pub fn packets_for(&self, seconds: u64) -> u64 {
        seconds * self.packets_per_run_second
    }

    /// The seeded traffic of one pass of `packets` arrivals. The flash
    /// crowd, if any, covers the middle fifth of the trace's expected
    /// simulated duration, so it scales with the run length.
    pub fn traffic(&self, packets: u64, seed: u64) -> ScaleConfig {
        let mut cfg = ScaleConfig {
            flows: self.flows,
            packets,
            zipf_exponent: self.zipf,
            rate_bps: self.offered_bps,
            min_bytes: self.min_bytes,
            max_bytes: self.max_bytes,
            churn: None,
            seed,
        };
        let span_s = packets as f64 / cfg.mean_pps();
        cfg.churn = self.churn.map(|(crowd_flows, boost)| ChurnSpec {
            start_s: 0.4 * span_s,
            duration_s: 0.2 * span_s,
            crowd_flows,
            boost,
        });
        cfg
    }

    /// The flow table: dense ids, weights `1..=weight_cycle`, offered
    /// rate shared equally.
    pub fn flow_table(&self) -> Vec<FlowSpec> {
        let per_flow = self.offered_bps / f64::from(self.flows);
        (0..self.flows)
            .map(|i| FlowSpec::new(FlowId(i), f64::from(1 + i % self.weight_cycle), per_flow))
            .collect()
    }

    /// Scheduler configuration with quantizer tick `tick_scale`.
    pub fn config(&self, tick_scale: f64) -> SchedulerConfig {
        SchedulerConfig {
            geometry: self.geometry(),
            capacity: self.capacity,
            tick_scale,
            wrap_policy: WrapPolicy::Saturate,
            cleanup: CleanupPolicy::Eager,
            memory: MemoryKind::SinglePort,
            faults: None,
            admission: self.admission,
        }
    }

    /// The sorter build parameters the workload's frontend uses.
    pub fn backend_spec(&self) -> BackendSpec {
        let c = self.config(1.0);
        BackendSpec {
            geometry: c.geometry,
            capacity: c.capacity,
            cleanup: c.cleanup,
            memory: c.memory,
        }
    }
}
