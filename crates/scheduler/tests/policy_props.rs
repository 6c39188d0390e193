//! Property tests for the rank-policy library.
//!
//! Two classes of invariant that example-based tests cannot pin:
//!
//! * **Bounded-domain policies never invert.** SRPT and strict priority
//!   revisit small ranks forever, so the quantizer never rebases — the
//!   scheduler must keep serving the smallest queued rank (FIFO among
//!   equals) through arbitrarily long enqueue/dequeue programs, i.e.
//!   across what would be many virtual-clock laps for a monotone
//!   policy, with the inversion counter staying at zero.
//! * **Hierarchy degenerates cleanly.** Hierarchical WFQ with a single
//!   class is *exactly* flat WFQ: one clock, the full weight vector,
//!   the full link rate — the departure sequences must be identical
//!   packet for packet on any seeded workload.

use fairq::{HierarchicalWfqRank, RankPolicy, SrptRank, StrictPriorityRank, WfqRank};
use faultsim::{FaultConfig, FaultPolicy, FaultSpec};
use proptest::prelude::*;
use scheduler::{HwLinkSim, HwScheduler, SchedulerConfig};
use tagsort::{Geometry, SortRetrieveCircuit};
use traffic::{generate, FlowId, FlowSpec, Packet, SizeDist, Time};

/// A burst of (flow, size) arrivals followed by that many pops plus a
/// few extra against the (possibly) empty queue.
fn round_strategy() -> impl Strategy<Value = (Vec<(u32, u32)>, usize)> {
    (
        proptest::collection::vec(
            (
                0u32..3,
                prop_oneof![Just(64u32), Just(125u32), Just(700u32), Just(1500u32)],
            ),
            1..10,
        ),
        0usize..3,
    )
}

fn flows() -> Vec<FlowSpec> {
    vec![
        FlowSpec::new(FlowId(0), 4.0, 300_000.0),
        FlowSpec::new(FlowId(1), 1.0, 500_000.0),
        FlowSpec::new(FlowId(2), 2.0, 200_000.0),
    ]
}

/// Drives an enqueue/dequeue program against the real scheduler while a
/// shadow list tracks every queued packet's quantized tick. Each
/// dequeue must serve the shadow's smallest (tick, insertion) pair, and
/// the scheduler's own inversion counter must stay at zero. An empty
/// fault plan keeps the scheduler's exact live-tick set, without which
/// that counter is never raised.
fn assert_never_inverts<P: RankPolicy>(
    proto: &P,
    tick_scale: f64,
    rank_of: impl Fn(&Packet) -> f64,
    rounds: &[(Vec<(u32, u32)>, usize)],
) {
    let fl = flows();
    let mut hw = HwScheduler::<SortRetrieveCircuit, P>::with_backend_and_policy(
        &fl,
        1e6,
        SchedulerConfig {
            tick_scale,
            capacity: 1 << 10,
            faults: Some(FaultConfig::new(
                FaultSpec {
                    count: 0,
                    seed: 1,
                    component: None,
                    bits: 1,
                },
                FaultPolicy::DetectAndCount,
                1,
            )),
            ..SchedulerConfig::default()
        },
        proto,
    );
    // Shadow queue: (tick, insertion order, flow, seq).
    let mut shadow: Vec<(u64, u64, u32, u64)> = Vec::new();
    let mut seq = 0u64;
    let mut t = 0.0f64;
    for (burst, extra_pops) in rounds {
        for &(flow, bytes) in burst {
            t += 0.1;
            let pkt = Packet {
                flow: FlowId(flow),
                size_bytes: bytes,
                arrival: Time(t),
                seq,
            };
            // Bounded ranks, base pinned at zero, no rebase: the tick is
            // a pure function of the packet.
            let tick = (rank_of(&pkt) / tick_scale).floor() as u64;
            shadow.push((tick, seq, flow, seq));
            seq += 1;
            hw.enqueue(pkt).expect("program fits the buffer");
        }
        for _ in 0..burst.len() + extra_pops {
            let served = hw.dequeue().map(|p| (p.flow.0, p.seq));
            let expect = shadow
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| (e.0, e.1))
                .map(|(i, _)| i);
            match (served, expect) {
                (Some(got), Some(i)) => {
                    let (_, _, flow, s) = shadow.remove(i);
                    assert_eq!(got, (flow, s), "served out of rank order");
                }
                (None, None) => {}
                (got, _) => panic!("scheduler/shadow occupancy diverged: {got:?}"),
            }
        }
    }
    assert_eq!(
        hw.stats().inversions,
        0,
        "bounded-domain policy recorded a rank inversion"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// SRPT: the shortest queued packet is always served, FIFO among
    /// equal sizes, through arbitrary burst/drain programs.
    #[test]
    fn srpt_never_inverts_rank_order(
        rounds in proptest::collection::vec(round_strategy(), 1..40),
    ) {
        // One tick per byte, matching the policy's own default scale.
        assert_never_inverts(&SrptRank, 8.0, |p| p.size_bits(), &rounds);
    }

    /// Strict priority: the highest-priority queued packet is always
    /// served, FIFO within a class, through arbitrary programs.
    #[test]
    fn strict_priority_never_inverts_rank_order(
        rounds in proptest::collection::vec(round_strategy(), 1..40),
    ) {
        // flows() weights 4/1/2 ⇒ classes: flow 0 → 0, flow 2 → 1,
        // flow 1 → 2 (heaviest weight is the highest priority).
        let class = |flow: u32| match flow {
            0 => 0.0,
            2 => 1.0,
            _ => 2.0,
        };
        assert_never_inverts(
            &StrictPriorityRank::default(),
            1.0,
            move |p| class(p.flow.0),
            &rounds,
        );
    }

    /// Hierarchical WFQ with one class is exactly flat WFQ: identical
    /// departure sequences on any seeded workload.
    #[test]
    fn single_class_hierarchy_is_flat_wfq(
        seed in 0u64..1_000_000,
        weights in proptest::collection::vec(
            prop_oneof![Just(1.0f64), Just(2.0), Just(4.0), Just(7.5)],
            2..5,
        ),
    ) {
        let rate = 1e6;
        let fl: Vec<FlowSpec> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                FlowSpec::new(FlowId(i as u32), w, rate / weights.len() as f64)
                    .size(SizeDist::Imix)
            })
            .collect();
        let trace = generate(&fl, 0.3, seed);
        prop_assert!(!trace.is_empty(), "seeded workload generated no packets");
        let config = SchedulerConfig {
            geometry: Geometry::new(4, 5),
            tick_scale: rate / 50_000.0,
            capacity: 1 << 12,
            ..SchedulerConfig::default()
        };
        fn departures<P: RankPolicy>(
            rate: f64,
            hw: HwScheduler<SortRetrieveCircuit, P>,
            trace: &[Packet],
        ) -> Vec<(u32, u64)> {
            HwLinkSim::new(rate, hw)
                .run(trace)
                .expect("workload fits")
                .into_iter()
                .map(|d| (d.packet.flow.0, d.packet.seq))
                .collect()
        }
        let flat = departures(
            rate,
            HwScheduler::with_backend_and_policy(&fl, rate, config, &WfqRank::default()),
            &trace,
        );
        let hier = departures(
            rate,
            HwScheduler::with_backend_and_policy(&fl, rate, config, &HierarchicalWfqRank::with_classes(1)),
            &trace,
        );
        prop_assert_eq!(flat, hier, "one-class hierarchy diverged from flat WFQ");
    }
}
