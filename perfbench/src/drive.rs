//! The fluid egress-link loop every pass runs: the seeded workload
//! generates packets, a scheduler frontend schedules them, and the link
//! serves the head of line whenever simulated time passes its
//! free-instant. The traced variant of the same loop times each call
//! into the workload, the frontend and the link from outside, and
//! records the operation stream the layer replays feed on.

use std::time::Instant;

use fairq::RankPolicy;
use scheduler::{
    HwScheduler, Placement, RebalancerConfig, SchedulerError, ShardError, ShardedScheduler,
};
use tagsort::{SortBackend, PAPER_CLOCK_HZ};
use traffic::{Packet, ScaleWorkload};

use crate::probe::{ns_since, Acc};
use crate::workload::{Workload, REBALANCE_EVERY};

/// What admission did with one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// Queued.
    Accepted,
    /// Refused by the admission policy (buffer full): a tail drop.
    Refused,
    /// Any other error — an unknown flow or a sorter refusal. No
    /// workload should ever produce one.
    Failed,
}

/// Counters a frontend reports once its pass drains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Queued packets evicted by push-out admission.
    pub pushed_out: u64,
    /// Service-order inversions.
    pub inversions: u64,
    /// Tags clamped by the saturating quantizer.
    pub clamped: u64,
    /// Modeled packet rate of the sorter(s) at the paper clock, Mpps.
    pub modeled_mpps: f64,
    /// Peak resident sorter-state words, where the backend models them.
    pub resident_words_peak: u64,
    /// Cross-shard flow migrations.
    pub migrations: u64,
    /// Max/mean per-port admissions (1 on a single port).
    pub balance: f64,
}

/// A scheduler frontend behind the surface the link loop drives.
pub trait Frontend {
    /// Admits one arrival.
    fn enqueue(&mut self, pkt: Packet) -> Admit;
    /// Serves the head of line.
    fn dequeue(&mut self) -> Option<Packet>;
    /// Whether this frontend runs rebalance rounds.
    fn rebalances(&self) -> bool {
        false
    }
    /// One rebalance round.
    fn rebalance(&mut self) {}
    /// Whether nothing is queued.
    fn is_empty(&self) -> bool;
}

/// A frontend that reports end-of-pass counters.
pub trait Counters: Frontend {
    /// End-of-pass counters.
    fn tail(&self) -> Tail;
}

impl<B: SortBackend, P: RankPolicy> Frontend for HwScheduler<B, P> {
    #[inline]
    fn enqueue(&mut self, pkt: Packet) -> Admit {
        match HwScheduler::enqueue(self, pkt) {
            Ok(()) => Admit::Accepted,
            Err(SchedulerError::BufferFull { .. }) => Admit::Refused,
            Err(_) => Admit::Failed,
        }
    }

    #[inline]
    fn dequeue(&mut self) -> Option<Packet> {
        HwScheduler::dequeue(self)
    }

    fn is_empty(&self) -> bool {
        HwScheduler::is_empty(self)
    }
}

impl<B: SortBackend, P: RankPolicy> Counters for HwScheduler<B, P> {
    fn tail(&self) -> Tail {
        let stats = self.stats();
        Tail {
            pushed_out: stats.pushed_out,
            inversions: stats.inversions,
            clamped: stats.clamped,
            modeled_mpps: stats.circuit.packets_per_second(PAPER_CLOCK_HZ) / 1e6,
            resident_words_peak: self.resident_memory().map_or(0, |m| m.peak_resident_words),
            migrations: 0,
            balance: 1.0,
        }
    }
}

impl<B: SortBackend, P: RankPolicy> Frontend for ShardedScheduler<B, P> {
    #[inline]
    fn enqueue(&mut self, pkt: Packet) -> Admit {
        match ShardedScheduler::enqueue(self, pkt) {
            Ok(()) => Admit::Accepted,
            Err(ShardError::Port {
                source: SchedulerError::BufferFull { .. },
                ..
            }) => Admit::Refused,
            Err(_) => Admit::Failed,
        }
    }

    #[inline]
    fn dequeue(&mut self) -> Option<Packet> {
        ShardedScheduler::dequeue(self).map(|(_, p)| p)
    }

    fn rebalances(&self) -> bool {
        true
    }

    fn rebalance(&mut self) {
        self.maybe_rebalance();
    }

    fn is_empty(&self) -> bool {
        ShardedScheduler::is_empty(self)
    }
}

impl<B: SortBackend, P: RankPolicy> Counters for ShardedScheduler<B, P> {
    fn tail(&self) -> Tail {
        let stats = self.stats();
        Tail {
            pushed_out: stats.aggregate.pushed_out,
            inversions: stats.aggregate.inversions,
            clamped: stats.aggregate.clamped,
            modeled_mpps: stats.modeled_packets_per_second(PAPER_CLOCK_HZ) / 1e6,
            resident_words_peak: 0,
            migrations: self.migrations(),
            balance: stats.shard_balance(),
        }
    }
}

/// Builds the workload's single-port frontend on backend `B` with rank
/// policy `P`, paging its state when the workload asks for it and the
/// backend has paged storage.
pub fn single<B: SortBackend, P: RankPolicy + Default>(w: &Workload) -> HwScheduler<B, P> {
    let flows = w.flow_table();
    let proto = P::default();
    let config = w.config(proto.tick_scale(w.link_bps()));
    let mut s = HwScheduler::<B, P>::with_backend_and_policy(&flows, w.link_bps(), config, &proto);
    if w.paged {
        s.set_paged_state();
    }
    s
}

/// Builds the workload's sharded frontend: equal port rates, dynamic
/// placement and the default rebalancer.
pub fn sharded<B: SortBackend, P: RankPolicy + Default>(w: &Workload) -> ShardedScheduler<B, P> {
    let flows = w.flow_table();
    let proto = P::default();
    let config = w.config(proto.tick_scale(w.link_bps()));
    let rates = vec![w.link_bps() / w.ports as f64; w.ports];
    ShardedScheduler::<B, P>::with_policy_port_rates_placement(
        &flows,
        &rates,
        config,
        &proto,
        Placement::Dynamic,
    )
    .with_rebalancer(RebalancerConfig::default())
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `words` into an FNV-1a hash, byte by byte (little endian).
#[inline]
pub fn fnv(mut hash: u64, words: &[u64]) -> u64 {
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    }
    hash
}

/// The departure hash's contribution of one served packet.
#[inline]
pub fn hash_departure(hash: u64, p: &Packet) -> u64 {
    fnv(hash, &[u64::from(p.flow.0), p.seq, u64::from(p.size_bytes)])
}

/// Sub-buckets per power of two in the sojourn histogram (≈1.6 %
/// resolution).
const SUB_BITS: u32 = 6;

/// Histogram bucket of a sojourn in nanoseconds: exact below
/// `2^(SUB_BITS+1)`, then `2^SUB_BITS` buckets per power of two.
fn bucket(ns: u64) -> usize {
    let linear = 1u64 << (SUB_BITS + 1);
    if ns < linear {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros();
    let sub = (ns >> (exp - SUB_BITS)) & ((1 << SUB_BITS) - 1);
    (linear + u64::from(exp - SUB_BITS - 1) * (1 << SUB_BITS) + sub) as usize
}

/// Upper bound, in nanoseconds, of the values in bucket `idx`.
fn bucket_upper(idx: usize) -> u64 {
    let linear = 1usize << (SUB_BITS + 1);
    if idx < linear {
        return idx as u64;
    }
    let rel = idx - linear;
    let exp = (rel >> SUB_BITS) as u32 + SUB_BITS + 1;
    let sub = (rel & ((1 << SUB_BITS) - 1)) as u64;
    (((1 << SUB_BITS) + sub + 1) << (exp - SUB_BITS)) - 1
}

const BUCKETS: usize = (1 << (SUB_BITS + 1)) + (64 - SUB_BITS as usize - 1) * (1 << SUB_BITS);

/// Equal windows of the trace, by arrival index, each with its own
/// sojourn histogram.
const WINDOWS: usize = 16;

/// Nearest-rank p99 of one sojourn histogram, as its bucket's upper
/// bound in microseconds; zero when empty.
fn hist_p99_us(hist: &[u64]) -> f64 {
    let total: u64 = hist.iter().sum();
    let target = (total * 99).div_ceil(100);
    let mut cum = 0;
    for (idx, &count) in hist.iter().enumerate() {
        cum += count;
        if cum >= target.max(1) {
            return bucket_upper(idx) as f64 / 1e3;
        }
    }
    0.0
}

/// The fluid egress link plus every departure-side accumulator.
pub struct Link {
    rate_bps: f64,
    /// Simulated instant the link finishes its current packet.
    pub free_at_s: f64,
    offered_bytes: Vec<u64>,
    served_bytes: Vec<u64>,
    served: u64,
    /// Arrivals per sojourn window.
    window: u64,
    /// `WINDOWS` histograms back to back.
    sojourn: Vec<u64>,
    hash: u64,
}

impl Link {
    /// An idle link of `rate_bps` for `flows` flows and a trace of
    /// `packets` arrivals.
    pub fn new(rate_bps: f64, flows: u32, packets: u64) -> Self {
        Self {
            rate_bps,
            free_at_s: 0.0,
            offered_bytes: vec![0; flows as usize],
            served_bytes: vec![0; flows as usize],
            served: 0,
            window: packets.div_ceil(WINDOWS as u64).max(1),
            sojourn: vec![0; WINDOWS * BUCKETS],
            hash: FNV_BASIS,
        }
    }

    /// Counts an arrival's bytes against its flow.
    #[inline]
    pub fn offer(&mut self, p: &Packet) {
        self.offered_bytes[p.flow.0 as usize] += u64::from(p.size_bytes);
    }

    /// Transmits `p`, starting when both the link and the packet are
    /// ready.
    #[inline]
    pub fn serve(&mut self, p: &Packet) {
        let start = self.free_at_s.max(p.arrival.0);
        let done = start + f64::from(p.size_bytes) * 8.0 / self.rate_bps;
        self.free_at_s = done;
        let window = (p.seq / self.window) as usize % WINDOWS;
        self.sojourn[window * BUCKETS + bucket(((done - p.arrival.0) * 1e9) as u64)] += 1;
        self.served_bytes[p.flow.0 as usize] += u64::from(p.size_bytes);
        self.served += 1;
        self.hash = hash_departure(self.hash, p);
    }

    /// p99 sojourn in microseconds of simulated time: the median over
    /// the trace's windows of each window's p99. Near saturation one
    /// long busy period can set a whole trace's p99; the median over
    /// windows reports the typical tail instead, so it moves with the
    /// scheduler, not with the seed.
    fn sojourn_p99_us(&self) -> f64 {
        let p99s: Vec<f64> = self
            .sojourn
            .chunks(BUCKETS)
            .filter(|h| h.iter().any(|&c| c > 0))
            .map(hist_p99_us)
            .collect();
        if p99s.is_empty() {
            0.0
        } else {
            crate::probe::median(&p99s)
        }
    }

    /// Per-flow delivered fractions (served / offered bytes) of every
    /// flow that offered traffic, and the aggregate's.
    fn delivered(&self) -> (Vec<f64>, f64) {
        let fracs = self
            .offered_bytes
            .iter()
            .zip(&self.served_bytes)
            .filter(|(o, _)| **o > 0)
            .map(|(&o, &s)| s as f64 / o as f64)
            .collect();
        let offered: u64 = self.offered_bytes.iter().sum();
        let served: u64 = self.served_bytes.iter().sum();
        (fracs, served as f64 / offered.max(1) as f64)
    }
}

/// Jain's index over per-flow delivered fractions: 1 when every flow
/// lost the same share, down to `1/n`.
fn jain(x: &[f64]) -> f64 {
    let sum: f64 = x.iter().sum();
    let sq: f64 = x.iter().map(|v| v * v).sum();
    if sq == 0.0 {
        1.0
    } else {
        sum * sum / (x.len() as f64 * sq)
    }
}

/// p99 over flows of `|delivered_f − delivered_aggregate|`.
fn fairness_p99(x: &[f64], aggregate: f64) -> f64 {
    let mut errs: Vec<f64> = x.iter().map(|v| (v - aggregate).abs()).collect();
    if errs.is_empty() {
        return 0.0;
    }
    let idx = (errs.len() - 1) * 99 / 100;
    *errs.select_nth_unstable_by(idx, f64::total_cmp).1
}

/// Everything a pass produces that depends only on the seed and the
/// trace length. Two passes of one trace must agree exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Arrivals generated.
    pub arrivals: u64,
    /// Packets the link served.
    pub served: u64,
    /// Arrivals refused at admission (tail drops).
    pub refused: u64,
    /// Arrivals that failed with an error.
    pub failed: u64,
    /// FNV-1a over the `(flow, seq, size)` departure sequence.
    pub hash: u64,
    /// Whether the frontend was empty after the drain.
    pub drained: bool,
    /// p99 sojourn, µs of simulated time.
    pub sojourn_p99_us: f64,
    /// Jain's index of per-flow delivered fractions.
    pub fairness_jain: f64,
    /// p99 over flows of |delivered share − aggregate share|.
    pub fairness_p99: f64,
    /// Served / arrivals.
    pub delivered_frac: f64,
    /// The frontend's end-of-pass counters.
    pub tail: Tail,
}

impl Summary {
    /// Tail drops plus push-outs, over arrivals.
    pub fn drop_frac(&self) -> f64 {
        (self.refused + self.tail.pushed_out) as f64 / self.arrivals.max(1) as f64
    }

    /// Problems with this pass's books, one line each; empty when every
    /// arrival is accounted for and the frontend drained.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        let accounted = self.served + self.refused + self.tail.pushed_out;
        if accounted != self.arrivals {
            out.push(format!(
                "served {} + dropped {} + pushed_out {} != arrivals {}",
                self.served, self.refused, self.tail.pushed_out, self.arrivals
            ));
        }
        if !self.drained {
            out.push("frontend not empty after the drain".into());
        }
        if self.failed > 0 {
            out.push(format!("{} enqueues failed with an error", self.failed));
        }
        out
    }
}

/// Spans and the operation stream of one traced pass.
#[derive(Debug, Default)]
pub struct LoopTrace {
    /// `ScaleWorkload::next` calls.
    pub traffic: Acc,
    /// The link's own work: offer, serve and hash.
    pub link: Acc,
    /// Every frontend enqueue call.
    pub enqueue: Acc,
    /// Every frontend dequeue call, including those that found the
    /// frontend empty.
    pub dequeue: Acc,
    /// Rebalance rounds.
    pub rebalance: Acc,
    /// Per-call enqueue durations, raw ns.
    pub enqueue_ns: Vec<u32>,
    /// Per-call durations of dequeues that served a packet, raw ns.
    pub dequeue_ns: Vec<u32>,
    /// Per-round rebalance durations, raw ns.
    pub rebalance_ns: Vec<u32>,
    /// Dequeue calls made before each arrival's enqueue: with the
    /// seeded arrivals, the exact call stream the frontend saw.
    pub dequeues_before: Vec<u32>,
    /// Dequeue calls of the final drain.
    pub drain_dequeues: u32,
}

/// Arrivals per timed segment of a pass.
pub const SEGMENT: u64 = 1 << 15;

/// One pass's outcome.
pub struct Pass {
    /// Host seconds from the first generated packet to the drain's end.
    pub loop_s: f64,
    /// Host seconds of each consecutive [`SEGMENT`] arrivals; the last
    /// entry holds the remainder and the drain.
    pub segments: Vec<f64>,
    /// Deterministic results.
    pub summary: Summary,
    /// Spans and the call stream, on traced passes.
    pub trace: Option<LoopTrace>,
}

#[inline(always)]
fn clip(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

/// Runs one pass of `workload` through `f` on `w`'s link. With `TRACE`
/// every call is timed and the call stream recorded; without it the
/// loop carries no instrumentation at all.
pub fn drive<F: Counters, const TRACE: bool>(
    w: &Workload,
    f: &mut F,
    mut workload: ScaleWorkload,
) -> Pass {
    let mut link = Link::new(w.link_bps(), w.flows, workload.config().packets);
    let mut tr = LoopTrace::default();
    let (mut arrivals, mut refused, mut failed) = (0u64, 0u64, 0u64);
    let mut segments = Vec::new();
    let start = Instant::now();
    let mut segment_start = start;
    loop {
        let next = if TRACE {
            let t = Instant::now();
            let p = workload.next();
            tr.traffic.add(t);
            p
        } else {
            workload.next()
        };
        let Some(pkt) = next else { break };
        let now = pkt.arrival.0;
        let mut calls = 0u32;
        // Serve everything the link completes before this arrival.
        while link.free_at_s <= now {
            calls += 1;
            let served = if TRACE {
                let t = Instant::now();
                let p = f.dequeue();
                let ns = ns_since(t);
                tr.dequeue.ns += ns;
                tr.dequeue.calls += 1;
                if p.is_some() {
                    tr.dequeue_ns.push(clip(ns));
                }
                p
            } else {
                f.dequeue()
            };
            match served {
                Some(p) => {
                    if TRACE {
                        let t = Instant::now();
                        link.serve(&p);
                        tr.link.add(t);
                    } else {
                        link.serve(&p);
                    }
                }
                None => {
                    // Idle gap: the link is free when the arrival lands.
                    link.free_at_s = now;
                    break;
                }
            }
        }
        let admit = if TRACE {
            tr.dequeues_before.push(calls);
            let t = Instant::now();
            link.offer(&pkt);
            tr.link.add(t);
            let t = Instant::now();
            let a = f.enqueue(pkt);
            let ns = ns_since(t);
            tr.enqueue.ns += ns;
            tr.enqueue.calls += 1;
            tr.enqueue_ns.push(clip(ns));
            a
        } else {
            link.offer(&pkt);
            f.enqueue(pkt)
        };
        match admit {
            Admit::Accepted => {}
            Admit::Refused => refused += 1,
            Admit::Failed => failed += 1,
        }
        arrivals += 1;
        if arrivals.is_multiple_of(SEGMENT) {
            let now = Instant::now();
            segments.push((now - segment_start).as_secs_f64());
            segment_start = now;
        }
        if f.rebalances() && arrivals.is_multiple_of(REBALANCE_EVERY) {
            if TRACE {
                let t = Instant::now();
                f.rebalance();
                let ns = ns_since(t);
                tr.rebalance.ns += ns;
                tr.rebalance.calls += 1;
                tr.rebalance_ns.push(clip(ns));
            } else {
                f.rebalance();
            }
        }
    }
    loop {
        tr.drain_dequeues += 1;
        let Some(p) = f.dequeue() else { break };
        link.serve(&p);
    }
    let loop_s = start.elapsed().as_secs_f64();
    segments.push(segment_start.elapsed().as_secs_f64());
    let (fracs, aggregate) = link.delivered();
    let summary = Summary {
        arrivals,
        served: link.served,
        refused,
        failed,
        hash: link.hash,
        drained: f.is_empty(),
        sojourn_p99_us: link.sojourn_p99_us(),
        fairness_jain: jain(&fracs),
        fairness_p99: fairness_p99(&fracs, aggregate),
        delivered_frac: link.served as f64 / arrivals.max(1) as f64,
        tail: f.tail(),
    };
    Pass {
        loop_s,
        segments,
        summary,
        trace: TRACE.then_some(tr),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sojourn_buckets_are_monotone_and_bound_their_values() {
        let mut last = 0;
        for ns in (0..200_000u64).chain([1 << 30, u64::MAX / 2]) {
            let b = bucket(ns);
            assert!(b >= last, "bucket order at {ns}");
            assert!(b < BUCKETS);
            assert!(bucket_upper(b) >= ns, "upper bound below {ns}");
            last = b;
        }
        assert_eq!(bucket_upper(bucket(1000)) - 1000, 7);
    }

    #[test]
    fn jain_is_one_when_every_flow_gets_the_same_share() {
        assert_eq!(jain(&[0.5, 0.5, 0.5]), 1.0);
        assert!((jain(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
    }
}
