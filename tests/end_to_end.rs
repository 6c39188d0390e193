//! End-to-end pipeline tests: traffic generation → WFQ tag computation →
//! quantization → the sort/retrieve circuit → service, compared against
//! the pure-software scheduler and the Table I baselines.

use proptest::prelude::*;

use wfq_sorter::baselines::{exact_methods, reference_order};
use wfq_sorter::faultsim::{FaultConfig, FaultPolicy, FaultSpec};
use wfq_sorter::scheduler::{HwScheduler, SchedulerConfig};
use wfq_sorter::tagsort::{Geometry, PacketRef, SortRetrieveCircuit, Tag};
use wfq_sorter::traffic::{generate, profiles, FlowId, FlowSpec, Packet, Time};

/// The hardware scheduler and the software WFQ reference serve identical
/// traces in an order that never violates quantized-tag monotonicity,
/// across the ready-made traffic profiles.
#[test]
fn hardware_scheduler_sorts_all_profiles() {
    // A plan that injects nothing keeps the scheduler's exact set of live
    // ticks, so `inversions` checks each departure against it; without a
    // plan the scheduler trusts the sorter and counts none.
    let empty_plan = FaultConfig::new(
        FaultSpec {
            count: 0,
            seed: 1,
            component: None,
            bits: 1,
        },
        FaultPolicy::DetectAndCount,
        1,
    );
    for (name, flows) in [
        ("voip", profiles::voip(6)),
        ("video", profiles::video(3, 1_500_000.0)),
        ("bulk", profiles::bulk(4, 800_000.0)),
        ("mix", profiles::diverse_mix(6, 600_000.0)),
    ] {
        let trace = generate(&flows, 0.3, 99);
        let mut hw = HwScheduler::new(
            &flows,
            10e6,
            SchedulerConfig {
                geometry: Geometry::new(4, 5),
                tick_scale: 20.0,
                capacity: 1 << 14,
                faults: Some(empty_plan),
                ..SchedulerConfig::default()
            },
        );
        let served = hw
            .sort_trace(&trace)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(served.len(), trace.len(), "{name}: packet loss");
        let stats = hw.stats();
        assert_eq!(stats.circuit.cycles_per_op(), 4.0, "{name}");
        assert_eq!(stats.inversions, 0, "{name}: saturate mode must not invert");
    }
}

// The sort/retrieve circuit and every exact Table I baseline agree on
// service order for the same batch.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn circuit_and_baselines_agree(
        tags in proptest::collection::vec(0u32..4096, 1..200)
    ) {
        let items: Vec<(Tag, PacketRef)> = tags
            .iter()
            .enumerate()
            .map(|(i, &t)| (Tag(t), PacketRef(i as u32)))
            .collect();
        let want: Vec<(u32, u32)> = reference_order(&items)
            .into_iter()
            .map(|(t, p)| (t.value(), p.index()))
            .collect();

        let mut circuit = SortRetrieveCircuit::new(Geometry::paper(), 1024);
        for &(t, p) in &items {
            circuit.insert(t, p).unwrap();
        }
        let got: Vec<(u32, u32)> = std::iter::from_fn(|| circuit.pop_min())
            .map(|(t, p)| (t.value(), p.index()))
            .collect();
        prop_assert_eq!(&got, &want, "sort/retrieve circuit");

        for mut method in exact_methods(12) {
            for &(t, p) in &items {
                method.insert(t, p);
            }
            let got: Vec<(u32, u32)> = std::iter::from_fn(|| method.pop_min())
                .map(|(t, p)| (t.value(), p.index()))
                .collect();
            prop_assert_eq!(&got, &want, "{}", method.name());
        }
    }
}

/// Sustained mixed enqueue/dequeue through the full scheduler keeps all
/// three component states (buffer, sorter, bookkeeping) coherent.
#[test]
fn pipeline_state_stays_coherent_under_interleaving() {
    let flows: Vec<FlowSpec> = (0..8)
        .map(|i| FlowSpec::new(FlowId(i), 1.0 + f64::from(i % 3), 1e6))
        .collect();
    let mut hw = HwScheduler::new(
        &flows,
        1e9,
        SchedulerConfig {
            geometry: Geometry::new(4, 5),
            tick_scale: 200.0,
            capacity: 4096,
            ..SchedulerConfig::default()
        },
    );
    let mut state = 0x5eedu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut t = 0.0;
    let mut in_flight = 0i64;
    for seq in 0..5000u64 {
        t += (next() % 100) as f64 * 1e-7;
        hw.enqueue(Packet {
            flow: FlowId((next() % 8) as u32),
            size_bytes: 64 + (next() % 1400) as u32,
            arrival: Time(t),
            seq,
        })
        .expect("capacity");
        in_flight += 1;
        while next() % 3 == 0 && in_flight > 0 {
            hw.dequeue().expect("backlogged");
            in_flight -= 1;
        }
        assert_eq!(hw.len() as i64, in_flight);
    }
    while hw.dequeue().is_some() {
        in_flight -= 1;
    }
    assert_eq!(in_flight, 0);
    let stats = hw.stats();
    assert_eq!(stats.enqueued, 5000);
    assert_eq!(stats.dequeued, 5000);
    assert_eq!(stats.buffer.occupied, 0);
    assert_eq!(stats.buffer.rejected, 0);
}

/// Buffer exhaustion surfaces as a clean error and the system recovers.
#[test]
fn overload_sheds_and_recovers() {
    let flows = vec![FlowSpec::new(FlowId(0), 1.0, 1e6)];
    let mut hw = HwScheduler::new(
        &flows,
        1e6,
        SchedulerConfig {
            capacity: 64,
            tick_scale: 1000.0,
            ..SchedulerConfig::default()
        },
    );
    let mut t = 0.0;
    let mut accepted = 0;
    let mut dropped = 0;
    for seq in 0..200u64 {
        t += 1e-6;
        match hw.enqueue(Packet {
            flow: FlowId(0),
            size_bytes: 1500,
            arrival: Time(t),
            seq,
        }) {
            Ok(()) => accepted += 1,
            Err(wfq_sorter::scheduler::SchedulerError::BufferFull { .. }) => dropped += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!(accepted, 64);
    assert_eq!(dropped, 136);
    // Drain and refill: the freed slots are reusable.
    while hw.dequeue().is_some() {}
    t += 1.0;
    hw.enqueue(Packet {
        flow: FlowId(0),
        size_bytes: 100,
        arrival: Time(t),
        seq: 999,
    })
    .expect("recovered after drain");
}
