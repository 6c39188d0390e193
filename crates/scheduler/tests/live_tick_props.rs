//! Live-tick bounds read from the sorter.
//!
//! A fault-free [`WrapPolicy::Saturate`] scheduler keeps no exact set of
//! its live ticks: every live tick sits in one lap, so tag order is tick
//! order, and the smallest live tick and the push-out victim's tick are
//! read from the sorter's `peek_min` and `peek_max` entries. Two checks
//! hold those bounds to an exact tick set, on WFQ, STFQ, SRPT and strict
//! priority, under tail-drop, push-out and WRED, on all four backends:
//!
//! * after every operation the scheduler's bounds equal those of an
//!   independent model — the policy, the quantizer and a `BTreeSet` of
//!   `(tick, stamp)` driven beside it;
//! * a scheduler with an empty fault plan (which keeps the exact set)
//!   and one with no plan serve the same packets and count the same
//!   inversions, push-outs and clamps.

use std::collections::{BTreeSet, HashMap};

use fairq::{AnyPolicy, RankPolicy, VirtualTime};
use fastpath::FfsSorter;
use faultsim::{FaultConfig, FaultPolicy, FaultSpec};
use proptest::prelude::*;
use scheduler::{AdmissionPolicy, HwScheduler, SchedulerConfig, TagQuantizer};
use tagsort::{HeapSorter, PipelinedSortBackend, SortBackend, SortRetrieveCircuit};
use traffic::{FlowId, FlowSpec, Packet, Time};

const RATE: f64 = 1e6;
const POLICIES: [&str; 4] = ["wfq", "stfq", "srpt", "prio"];

fn admissions() -> [AdmissionPolicy; 3] {
    [
        AdmissionPolicy::TailDrop,
        AdmissionPolicy::PushOut,
        AdmissionPolicy::wred(),
    ]
}

/// One step: `(kind, flow, size pick, gap in µs)`; kinds below 6
/// enqueue, the rest dequeue.
type Op = (u8, u8, u8, u16);

/// Weights from a few orders of magnitude apart, so a tiny-weight
/// flow's huge tags open a lap that ordinary tags would undershoot.
const WEIGHTS: [f64; 4] = [1e-3, 0.5, 1.0, 3.0];

fn program() -> impl Strategy<Value = (Vec<u8>, Vec<Op>)> {
    (
        proptest::collection::vec(0u8..4, 2..6),
        proptest::collection::vec((0u8..10, 0u8..8, 0u8..4, 0u16..3000), 1..250),
    )
}

fn flows(picks: &[u8]) -> Vec<FlowSpec> {
    picks
        .iter()
        .enumerate()
        .map(|(i, &w)| FlowSpec::new(FlowId(i as u32), WEIGHTS[usize::from(w)], RATE / 4.0))
        .collect()
}

fn config(
    policy: &AnyPolicy,
    admission: AdmissionPolicy,
    faults: Option<FaultConfig>,
) -> SchedulerConfig {
    SchedulerConfig {
        capacity: 12,
        tick_scale: policy.tick_scale(RATE),
        admission,
        faults,
        ..SchedulerConfig::default()
    }
}

/// A plan that injects nothing: the scheduler runs fault-free but keeps
/// its exact live-tick set.
fn empty_plan() -> FaultConfig {
    let spec = FaultSpec {
        count: 0,
        seed: 1,
        component: None,
        bits: 1,
    };
    FaultConfig::new(spec, FaultPolicy::DetectAndCount, 1)
}

/// The packets of a program, in arrival order, keyed by step.
fn packets(ops: &[Op], flow_count: usize) -> Vec<Option<Packet>> {
    let mut t = 0.0;
    ops.iter()
        .enumerate()
        .map(|(i, &(kind, flow, size, gap))| {
            t += f64::from(gap) * 1e-6;
            (kind < 6).then(|| Packet {
                flow: FlowId(u32::from(flow) % flow_count as u32),
                size_bytes: [64, 300, 1500, 9000][usize::from(size)],
                arrival: Time(t),
                seq: i as u64,
            })
        })
        .collect()
}

/// An exact live-tick set driven from the outside: the same policy and
/// quantizer, fed the scheduler's own admission and service outcomes.
struct Model {
    policy: AnyPolicy,
    quantizer: TagQuantizer,
    /// `(tick, stamp)` of every queued packet.
    live: BTreeSet<(u64, u64)>,
    /// Queued packets by `seq`: tick, stamp and rank.
    entries: HashMap<u64, (u64, u64, VirtualTime)>,
    /// Stamp → `seq`, to name a push-out victim.
    seq_of: HashMap<u64, u64>,
    next_stamp: u64,
}

impl Model {
    fn new(proto: &AnyPolicy, fl: &[FlowSpec], config: &SchedulerConfig) -> Self {
        Self {
            policy: proto.for_link(fl, RATE),
            quantizer: TagQuantizer::with_policy(
                config.geometry,
                config.tick_scale,
                config.wrap_policy,
            ),
            live: BTreeSet::new(),
            entries: HashMap::new(),
            seq_of: HashMap::new(),
            next_stamp: 0,
        }
    }

    /// Mirrors one arrival that evicted `evicted` residents and was
    /// `admitted` or not.
    fn enqueue(&mut self, pkt: &Packet, evicted: u64, admitted: bool) {
        let finish = self.policy.rank(pkt);
        if self.live.is_empty() && self.policy.monotone() {
            self.quantizer.rebase(self.policy.rank_floor());
        }
        let out = self
            .quantizer
            .quantize(finish, self.live.first().map(|&(t, _)| t));
        // Push-out evicts the newest entry of the largest tick.
        for _ in 0..evicted {
            let (_, stamp) = self.live.pop_last().expect("a victim was queued");
            let seq = self.seq_of.remove(&stamp).expect("victim is known");
            self.entries.remove(&seq);
        }
        if admitted {
            let stamp = self.next_stamp;
            self.next_stamp += 1;
            self.live.insert((out.tick, stamp));
            self.entries.insert(pkt.seq, (out.tick, stamp, finish));
            self.seq_of.insert(stamp, pkt.seq);
        }
    }

    /// Mirrors the service of `pkt`, which must be the oldest entry of
    /// the smallest tick.
    fn dequeue(&mut self, pkt: &Packet) -> Result<(), TestCaseError> {
        let (tick, stamp, finish) = self
            .entries
            .remove(&pkt.seq)
            .expect("served packet is queued");
        prop_assert_eq!(
            self.live.pop_first(),
            Some((tick, stamp)),
            "served out of tick order"
        );
        self.seq_of.remove(&stamp);
        self.policy.on_service(pkt, finish);
        Ok(())
    }

    fn bounds(&self) -> Option<(u64, u64)> {
        Some((self.live.first()?.0, self.live.last()?.0))
    }
}

/// Check one: the sorter-derived bounds equal the model's after every
/// operation.
fn bounds_match_the_model<B: SortBackend>(
    proto: &AnyPolicy,
    admission: AdmissionPolicy,
    fl: &[FlowSpec],
    program: &[Option<Packet>],
) -> Result<(), TestCaseError> {
    let cfg = config(proto, admission, None);
    let mut sched = HwScheduler::<B, AnyPolicy>::with_backend_and_policy(fl, RATE, cfg, proto);
    let mut model = Model::new(proto, fl, &cfg);
    for (step, op) in program.iter().enumerate() {
        match op {
            Some(pkt) => {
                let before = sched.stats().pushed_out;
                let admitted = sched.enqueue(*pkt).is_ok();
                model.enqueue(pkt, sched.stats().pushed_out - before, admitted);
            }
            None => {
                if let Some(pkt) = sched.dequeue() {
                    model.dequeue(&pkt)?;
                } else {
                    prop_assert!(model.live.is_empty(), "scheduler empty, model not");
                }
            }
        }
        prop_assert_eq!(
            sched.live_tick_bounds(),
            model.bounds(),
            "{}/{}/{}: bounds after step {}",
            sched.policy().name(),
            admission,
            std::any::type_name::<B>(),
            step
        );
        prop_assert_eq!(sched.stats().clamped, model.quantizer.clamped_count());
        prop_assert_eq!(sched.stats().inversions, 0);
    }
    Ok(())
}

/// Check two: an empty fault plan (exact set kept) and no plan (bounds
/// from the sorter) give the same run.
fn shadow_is_invisible<B: SortBackend>(
    proto: &AnyPolicy,
    admission: AdmissionPolicy,
    fl: &[FlowSpec],
    program: &[Option<Packet>],
) -> Result<(), TestCaseError> {
    let mut plain = HwScheduler::<B, AnyPolicy>::with_backend_and_policy(
        fl,
        RATE,
        config(proto, admission, None),
        proto,
    );
    let mut shadowed = HwScheduler::<B, AnyPolicy>::with_backend_and_policy(
        fl,
        RATE,
        config(proto, admission, Some(empty_plan())),
        proto,
    );
    for (step, op) in program.iter().enumerate() {
        match op {
            Some(pkt) => prop_assert_eq!(
                plain.enqueue(*pkt).is_ok(),
                shadowed.enqueue(*pkt).is_ok(),
                "admission at step {}",
                step
            ),
            None => prop_assert_eq!(
                plain.dequeue(),
                shadowed.dequeue(),
                "departure at step {}",
                step
            ),
        }
        prop_assert_eq!(plain.live_tick_bounds(), shadowed.live_tick_bounds());
    }
    while let Some(pkt) = plain.dequeue() {
        prop_assert_eq!(Some(pkt), shadowed.dequeue());
    }
    prop_assert!(shadowed.is_empty());
    let (a, b) = (plain.stats(), shadowed.stats());
    prop_assert_eq!(
        (a.inversions, a.pushed_out, a.clamped),
        (b.inversions, b.pushed_out, b.clamped)
    );
    Ok(())
}

/// One check of one policy × admission cell on one backend.
type Check =
    fn(&AnyPolicy, AdmissionPolicy, &[FlowSpec], &[Option<Packet>]) -> Result<(), TestCaseError>;

/// Runs `check` for every policy × admission cell.
fn every_cell(picks: &[u8], ops: &[Op], check: Check) -> Result<(), TestCaseError> {
    let fl = flows(picks);
    let program = packets(ops, fl.len());
    for name in POLICIES {
        let proto = AnyPolicy::by_name(name).expect("known policy");
        for admission in admissions() {
            check(&proto, admission, &fl, &program)?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sorter_derived_bounds_match_an_exact_tick_set(prog in program()) {
        let (picks, ops) = prog;
        every_cell(&picks, &ops, bounds_match_the_model::<SortRetrieveCircuit>)?;
        every_cell(&picks, &ops, bounds_match_the_model::<PipelinedSortBackend>)?;
        every_cell(&picks, &ops, bounds_match_the_model::<FfsSorter>)?;
        every_cell(&picks, &ops, bounds_match_the_model::<HeapSorter>)?;
    }

    #[test]
    fn an_empty_fault_plan_changes_nothing_but_the_bookkeeping(prog in program()) {
        let (picks, ops) = prog;
        every_cell(&picks, &ops, shadow_is_invisible::<SortRetrieveCircuit>)?;
        every_cell(&picks, &ops, shadow_is_invisible::<PipelinedSortBackend>)?;
        every_cell(&picks, &ops, shadow_is_invisible::<FfsSorter>)?;
        every_cell(&picks, &ops, shadow_is_invisible::<HeapSorter>)?;
    }
}
