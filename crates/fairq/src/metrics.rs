//! Post-run analysis: per-flow delays, throughput shares, fairness
//! indices, and the PGPS lag against the GPS fluid reference.

use traffic::{FlowSpec, Packet, Time};

use crate::gps::gps_finish_times;
use crate::link::Departure;

/// Per-flow service report.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowMetrics {
    /// Flow index (dense ids).
    pub flow: u32,
    /// Packets served.
    pub packets: u64,
    /// Bytes served.
    pub bytes: u64,
    /// Mean queueing + transmission delay, seconds.
    pub mean_delay_s: f64,
    /// 99th-percentile delay, seconds.
    pub p99_delay_s: f64,
    /// Worst-case delay, seconds.
    pub max_delay_s: f64,
    /// Served throughput over the flow's active window, bits per second.
    pub throughput_bps: f64,
}

/// Builds per-flow metrics from a run.
///
/// Throughput is measured over the span from each flow's first arrival to
/// its last departure.
pub fn analyze(flows: &[FlowSpec], trace: &[Packet], departures: &[Departure]) -> Vec<FlowMetrics> {
    let n = flows.len();
    let mut delays: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut bytes = vec![0u64; n];
    let mut first_arrival = vec![f64::INFINITY; n];
    let mut last_finish = vec![0.0f64; n];
    for p in trace {
        let i = p.flow.0 as usize;
        first_arrival[i] = first_arrival[i].min(p.arrival.seconds());
    }
    for d in departures {
        let i = d.packet.flow.0 as usize;
        delays[i].push(d.delay().seconds());
        bytes[i] += u64::from(d.packet.size_bytes);
        last_finish[i] = last_finish[i].max(d.finish.seconds());
    }
    (0..n)
        .map(|i| {
            let mut ds = std::mem::take(&mut delays[i]);
            ds.sort_by(f64::total_cmp);
            let packets = ds.len() as u64;
            let mean = if ds.is_empty() {
                0.0
            } else {
                ds.iter().sum::<f64>() / ds.len() as f64
            };
            let p99 = percentile(&ds, 0.99);
            let max = ds.last().copied().unwrap_or(0.0);
            let span = last_finish[i] - first_arrival[i];
            let throughput = if span > 0.0 {
                bytes[i] as f64 * 8.0 / span
            } else {
                0.0
            };
            FlowMetrics {
                flow: i as u32,
                packets,
                bytes: bytes[i],
                mean_delay_s: mean,
                p99_delay_s: p99,
                max_delay_s: max,
                throughput_bps: throughput,
            }
        })
        .collect()
}

/// A rollup of per-flow reports into one summary — what a multi-port
/// frontend reports per shard, and what its ports sum into a line-card
/// total.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateMetrics {
    /// Flows represented (including idle ones).
    pub flows: usize,
    /// Total packets served.
    pub packets: u64,
    /// Total bytes served.
    pub bytes: u64,
    /// Packet-weighted mean delay, seconds.
    pub mean_delay_s: f64,
    /// The worst flow's 99th-percentile delay, seconds.
    pub worst_p99_delay_s: f64,
    /// The worst flow's worst-case delay, seconds.
    pub max_delay_s: f64,
    /// Summed per-flow throughput, bits per second.
    pub throughput_bps: f64,
    /// Jain's index of the active flows' throughputs (1.0 if none).
    pub jain_throughput: f64,
}

/// Rolls per-flow reports up into one [`AggregateMetrics`].
///
/// Means are packet-weighted, worst cases take the maximum, totals add.
/// The fairness index covers only flows that served traffic, so idle
/// flows on other ports don't read as unfairness.
///
/// # Example
///
/// ```
/// # use fairq::metrics::{aggregate, FlowMetrics};
/// let per_flow = vec![
///     FlowMetrics { flow: 0, packets: 3, bytes: 300, mean_delay_s: 0.1,
///                   p99_delay_s: 0.2, max_delay_s: 0.2, throughput_bps: 800.0 },
///     FlowMetrics { flow: 1, packets: 1, bytes: 100, mean_delay_s: 0.3,
///                   p99_delay_s: 0.4, max_delay_s: 0.5, throughput_bps: 800.0 },
/// ];
/// let agg = aggregate(&per_flow);
/// assert_eq!(agg.packets, 4);
/// assert!((agg.mean_delay_s - 0.15).abs() < 1e-12);
/// assert_eq!(agg.max_delay_s, 0.5);
/// assert!((agg.jain_throughput - 1.0).abs() < 1e-12);
/// ```
pub fn aggregate(per_flow: &[FlowMetrics]) -> AggregateMetrics {
    let packets: u64 = per_flow.iter().map(|m| m.packets).sum();
    let mean = if packets == 0 {
        0.0
    } else {
        per_flow
            .iter()
            .map(|m| m.mean_delay_s * m.packets as f64)
            .sum::<f64>()
            / packets as f64
    };
    let active: Vec<f64> = per_flow
        .iter()
        .filter(|m| m.packets > 0)
        .map(|m| m.throughput_bps)
        .collect();
    AggregateMetrics {
        flows: per_flow.len(),
        packets,
        bytes: per_flow.iter().map(|m| m.bytes).sum(),
        mean_delay_s: mean,
        worst_p99_delay_s: per_flow.iter().map(|m| m.p99_delay_s).fold(0.0, f64::max),
        max_delay_s: per_flow.iter().map(|m| m.max_delay_s).fold(0.0, f64::max),
        throughput_bps: per_flow.iter().map(|m| m.throughput_bps).sum(),
        jain_throughput: jain_index(&active),
    }
}

/// Value at quantile `q` of a sorted sample (nearest-rank).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Jain's fairness index of weight-normalized shares: 1.0 is perfectly
/// fair, 1/n is maximally unfair.
///
/// # Example
///
/// ```
/// let even = fairq::metrics::jain_index(&[5.0, 5.0, 5.0]);
/// assert!((even - 1.0).abs() < 1e-12);
/// let skewed = fairq::metrics::jain_index(&[10.0, 0.0, 0.0]);
/// assert!((skewed - 1.0 / 3.0).abs() < 1e-12);
/// ```
pub fn jain_index(shares: &[f64]) -> f64 {
    if shares.is_empty() {
        return 1.0;
    }
    let sum: f64 = shares.iter().sum();
    let sum_sq: f64 = shares.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        1.0
    } else {
        sum * sum / (shares.len() as f64 * sum_sq)
    }
}

/// A flow's guaranteed rate under GPS/WFQ: its weight share of the link,
/// `g_i = φ_i / Σφ · R`.
pub fn guaranteed_rate(flows: &[FlowSpec], flow: traffic::FlowId, link_bps: f64) -> f64 {
    let total: f64 = flows.iter().map(|f| f.weight).sum();
    let w = flows
        .iter()
        .find(|f| f.id == flow)
        .expect("flow present")
        .weight;
    w / total * link_bps
}

/// The single-node Parekh–Gallager worst-case delay bound for a
/// (σ, ρ)-shaped flow served by WFQ at guaranteed rate `g_bps` on a link
/// of `link_bps` with maximum packet size `lmax_bits`:
///
/// `D ≤ σ/g + L_max/R` (valid when ρ ≤ g).
///
/// This is the "worst case end-to-end queueing delay ... guaranteed for
/// all connections" the paper's §I-B invokes, in its one-hop form.
pub fn pgps_delay_bound(sigma_bits: f64, g_bps: f64, lmax_bits: f64, link_bps: f64) -> f64 {
    assert!(g_bps > 0.0 && link_bps > 0.0);
    sigma_bits / g_bps + lmax_bits / link_bps
}

/// The worst lateness of any packet relative to the GPS fluid reference:
/// `max_k (finish_sched(k) − finish_GPS(k))`, in seconds.
///
/// The PGPS theorem (Parekh–Gallager; the property the paper cites as
/// "WFQ ... approximates GPS within one packet transmission time") bounds
/// this by `L_max / R` for WFQ.
///
/// The maximum runs over *delivered* packets only: a packet without a
/// departure (dropped at admission, or lost to a detected fault) has no
/// finish time to compare. The GPS reference still serves the whole
/// trace. Negative infinity when nothing was delivered.
pub fn gps_lag(
    flows: &[FlowSpec],
    trace: &[Packet],
    departures: &[Departure],
    rate_bps: f64,
) -> f64 {
    let weights: Vec<f64> = {
        let mut w = vec![0.0; flows.len()];
        for f in flows {
            w[f.id.0 as usize] = f.weight;
        }
        w
    };
    let gps = gps_finish_times(trace, &weights, rate_bps);
    let finish_of: std::collections::HashMap<u64, Time> = departures
        .iter()
        .map(|d| (d.packet.seq, d.finish))
        .collect();
    trace
        .iter()
        .zip(&gps)
        .filter_map(|(p, g)| Some(finish_of.get(&p.seq)?.seconds() - g.seconds()))
        .fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSim;
    use crate::scheduler::Fifo;
    use crate::timestamp::Wfq;
    use traffic::{FlowId, SizeDist};

    fn pkt(seq: u64, flow: u32, at: f64, bytes: u32) -> Packet {
        Packet {
            flow: FlowId(flow),
            size_bytes: bytes,
            arrival: Time(at),
            seq,
        }
    }

    fn flows2() -> Vec<FlowSpec> {
        vec![
            FlowSpec::new(FlowId(0), 1.0, 1e6).size(SizeDist::Fixed(125)),
            FlowSpec::new(FlowId(1), 1.0, 1e6).size(SizeDist::Fixed(125)),
        ]
    }

    #[test]
    fn analyze_counts_and_delays() {
        let flows = flows2();
        let trace = vec![
            pkt(0, 0, 0.0, 125),
            pkt(1, 0, 0.0, 125),
            pkt(2, 1, 0.0, 125),
        ];
        let deps = LinkSim::new(1e6, Fifo::new()).run(&trace);
        let m = analyze(&flows, &trace, &deps);
        assert_eq!(m[0].packets, 2);
        assert_eq!(m[1].packets, 1);
        assert_eq!(m[0].bytes, 250);
        assert!(m[0].max_delay_s >= m[0].mean_delay_s);
        assert!(m[0].p99_delay_s <= m[0].max_delay_s);
    }

    #[test]
    fn aggregate_rolls_up_totals_and_worst_cases() {
        let flows = flows2();
        let trace = vec![
            pkt(0, 0, 0.0, 125),
            pkt(1, 0, 0.0, 125),
            pkt(2, 1, 0.0, 125),
        ];
        let deps = LinkSim::new(1e6, Fifo::new()).run(&trace);
        let per_flow = analyze(&flows, &trace, &deps);
        let agg = aggregate(&per_flow);
        assert_eq!(agg.flows, 2);
        assert_eq!(agg.packets, 3);
        assert_eq!(agg.bytes, 375);
        assert_eq!(
            agg.max_delay_s,
            per_flow.iter().map(|m| m.max_delay_s).fold(0.0, f64::max)
        );
        assert!(agg.worst_p99_delay_s <= agg.max_delay_s);
        assert!(agg.throughput_bps > 0.0);
        assert!(agg.jain_throughput > 0.0 && agg.jain_throughput <= 1.0);
        // Packet-weighted mean sits between the per-flow means.
        let lo = per_flow
            .iter()
            .map(|m| m.mean_delay_s)
            .fold(f64::INFINITY, f64::min);
        let hi = per_flow.iter().map(|m| m.mean_delay_s).fold(0.0, f64::max);
        assert!(agg.mean_delay_s >= lo && agg.mean_delay_s <= hi);
    }

    #[test]
    fn aggregate_of_idle_flows_is_zeroed() {
        let per_flow = analyze(&flows2(), &[], &[]);
        let agg = aggregate(&per_flow);
        assert_eq!(agg.packets, 0);
        assert_eq!(agg.mean_delay_s, 0.0);
        assert_eq!(agg.jain_throughput, 1.0, "no active flows: vacuously fair");
    }

    #[test]
    fn jain_bounds() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert!((jain_index(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!(jain_index(&[9.0, 1.0]) < 0.7);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.99), 5.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    /// The PGPS theorem, empirically: WFQ finishes every packet within
    /// one maximum packet transmission time of its GPS fluid finish.
    #[test]
    fn wfq_gps_lag_bounded_by_one_packet_time() {
        let flows = vec![
            FlowSpec::new(FlowId(0), 1.0, 1e6),
            FlowSpec::new(FlowId(1), 2.0, 1e6),
            FlowSpec::new(FlowId(2), 4.0, 1e6),
        ];
        // A bursty deterministic pattern with mixed sizes.
        let mut trace = Vec::new();
        let mut seq = 0;
        for k in 0..60 {
            let at = k as f64 * 0.0007;
            for f in 0..3u32 {
                if (k + f as usize).is_multiple_of(f as usize + 2) {
                    let bytes = 300 + ((k as u32 * 37 + f * 131) % 1200);
                    trace.push(pkt(seq, f, at, bytes));
                    seq += 1;
                }
            }
        }
        let rate = 1e6;
        let deps = LinkSim::new(rate, Wfq::new(&flows, rate)).run(&trace);
        let lag = gps_lag(&flows, &trace, &deps, rate);
        let lmax = trace.iter().map(|p| p.size_bits()).fold(0.0, f64::max);
        assert!(
            lag <= lmax / rate + 1e-9,
            "PGPS bound violated: lag {lag} > {}",
            lmax / rate
        );
    }

    /// A packet lost before departure (a fault drop, say) is left out
    /// of the lateness maximum instead of aborting the measurement.
    #[test]
    fn gps_lag_skips_packets_that_never_departed() {
        let flows = flows2();
        let trace = vec![
            pkt(0, 0, 0.0, 125),
            pkt(1, 1, 0.0, 125),
            pkt(2, 0, 0.0, 125),
        ];
        let rate = 1e6;
        let mut deps = LinkSim::new(rate, Wfq::new(&flows, rate)).run(&trace);
        let full = gps_lag(&flows, &trace, &deps, rate);
        let lost = deps.iter().position(|d| d.packet.seq == 2).unwrap();
        deps.remove(lost);
        let partial = gps_lag(&flows, &trace, &deps, rate);
        assert!(partial.is_finite());
        assert!(partial <= full);
        assert_eq!(gps_lag(&flows, &trace, &[], rate), f64::NEG_INFINITY);
    }

    /// The full Parekh–Gallager guarantee: a shaped flow's measured
    /// worst-case delay under WFQ stays below σ/g + Lmax/R no matter what
    /// the cross-traffic does.
    #[test]
    fn shaped_flow_meets_the_pg_delay_bound() {
        use traffic::TokenBucket;
        let rate = 1e6;
        let flows = vec![
            FlowSpec::new(FlowId(0), 1.0, 1e6), // the guaranteed flow
            FlowSpec::new(FlowId(1), 1.0, 1e6), // hostile cross-traffic
        ];
        // Flow 0: shaped bursts — 3 x 500 B every 50 ms (σ ≈ 12 kb,
        // ρ = 240 kb/s ≤ g = 500 kb/s).
        let mut trace = Vec::new();
        let mut seq = 0;
        for k in 0..40 {
            for j in 0..3 {
                trace.push(pkt(seq, 0, k as f64 * 0.05 + j as f64 * 1e-4, 500));
                seq += 1;
            }
        }
        // Flow 1: saturating 1500-byte packets.
        for k in 0..130 {
            trace.push(pkt(seq, 1, k as f64 * 0.015, 1500));
            seq += 1;
        }
        trace.sort_by_key(|p| p.arrival);
        for (i, p) in trace.iter_mut().enumerate() {
            p.seq = i as u64;
        }
        let g = guaranteed_rate(&flows, FlowId(0), rate);
        let bucket = TokenBucket::fit(&trace, FlowId(0), 240_000.0).unwrap();
        let lmax = trace.iter().map(|p| p.size_bits()).fold(0.0, f64::max);
        let bound = pgps_delay_bound(bucket.burst_bits(), g, lmax, rate);

        let deps = LinkSim::new(rate, Wfq::new(&flows, rate)).run(&trace);
        let measured = analyze(&flows, &trace, &deps)[0].max_delay_s;
        assert!(
            measured <= bound + 1e-9,
            "measured {measured} exceeds PG bound {bound}"
        );
        // And the bound is not vacuous: FIFO breaks it.
        let deps = LinkSim::new(rate, Fifo::new()).run(&trace);
        let fifo = analyze(&flows, &trace, &deps)[0].max_delay_s;
        assert!(fifo > bound, "FIFO {fifo} unexpectedly within {bound}");
    }

    #[test]
    fn fifo_violates_the_gps_bound_under_cross_traffic() {
        // Sanity check that the bound is not vacuous: FIFO lets a big
        // burst from one flow delay another far beyond Lmax/R.
        let flows = flows2();
        let mut trace = vec![];
        for i in 0..20 {
            trace.push(pkt(i, 0, 0.0, 1500)); // 20-packet burst
        }
        trace.push(pkt(20, 1, 0.0001, 125));
        trace.sort_by_key(|a| a.arrival);
        let rate = 1e6;
        let deps = LinkSim::new(rate, Fifo::new()).run(&trace);
        let lag = gps_lag(&flows, &trace, &deps, rate);
        let lmax = 1500.0 * 8.0;
        assert!(
            lag > lmax / rate,
            "expected FIFO to blow the bound, lag {lag}"
        );
    }
}
