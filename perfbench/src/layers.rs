//! Layer-alone replays. A traced pass records the call stream its
//! frontend saw; these replays feed the same stream through the
//! scheduler's layers one at a time, each call timed from outside:
//!
//! * [`Layers`] drives the rank policy, the tag quantizer, the packet
//!   buffer and a sorting backend in the order `HwScheduler` does, and
//!   must serve the identical departure sequence — the check that the
//!   replay measures the same work;
//! * [`replay_sorter`] feeds the sorter operations that replay issued
//!   to any backend, which must pop the identical entries.

use std::collections::BTreeSet;
use std::time::Instant;

use fairq::{RankPolicy, VirtualTime};
use scheduler::{AdmissionPolicy, PacketBuffer, TagQuantizer, WrapPolicy};
use tagsort::{BackendSpec, PacketRef, SortBackend, Tag};
use traffic::Packet;

use crate::drive::{fnv, hash_departure, Admit, Frontend, FNV_BASIS};
use crate::probe::{ns_since, Acc};
use crate::workload::Workload;

const OP_INSERT: u64 = 0;
const OP_POP_MIN: u64 = 1;
const OP_POP_MAX: u64 = 2;
const OP_RECYCLE: u64 = 3;

/// One sorter operation packed in a word: kind in the top two bits, tag
/// (or section) in the next 30, the packet reference in the low 32.
fn op(kind: u64, tag: u32, payload: u32) -> u64 {
    kind << 62 | u64::from(tag) << 32 | u64::from(payload)
}

/// Per-layer spans of one [`Layers`] replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTimes {
    /// `RankPolicy::rank` per arrival.
    pub rank_arrival: Acc,
    /// `RankPolicy::on_service` per departure.
    pub rank_service: Acc,
    /// `TagQuantizer::quantize` (and the rebase when the sorter drains).
    pub quantize: Acc,
    /// `PacketBuffer::store`.
    pub store: Acc,
    /// `PacketBuffer::release`, for departures and push-out victims.
    pub release: Acc,
    /// Every sorter call: insert, pops and section recycling.
    pub sorter: Acc,
    /// Sections the quantizer asked to recycle.
    pub recycled_sections: u64,
    /// Buffer high-water mark, packets.
    pub buffer_peak: u64,
}

/// Buffer-side record of one queued packet: (tick, stamp, rank,
/// buffer reference).
type Slot = (u64, u64, VirtualTime, PacketRef);

/// The scheduler's layers driven one at a time, mirroring the order of
/// `HwScheduler::enqueue`/`dequeue` with faults and telemetry off.
pub struct Layers<B: SortBackend, P: RankPolicy> {
    policy: P,
    quantizer: TagQuantizer,
    buffer: PacketBuffer,
    sorter: B,
    push_out: bool,
    outstanding: BTreeSet<(u64, u64)>,
    slots: Vec<Option<Slot>>,
    next_stamp: u64,
    /// Spans per layer.
    pub times: LayerTimes,
    /// The sorter operations issued, packed by [`op`].
    pub ops: Vec<u64>,
    /// FNV-1a over every entry the sorter popped.
    pub pop_hash: u64,
}

impl<B: SortBackend, P: RankPolicy + Default> Layers<B, P> {
    /// The layers of `w`'s single-port scheduler on its full link.
    pub fn new(w: &Workload) -> Self {
        let flows = w.flow_table();
        let proto = P::default();
        let config = w.config(proto.tick_scale(w.link_bps()));
        let mut sorter = B::build(&w.backend_spec());
        if w.paged {
            sorter.set_paged();
        }
        Self {
            policy: proto.for_link(&flows, w.link_bps()),
            quantizer: TagQuantizer::with_policy(
                config.geometry,
                config.tick_scale,
                config.wrap_policy,
            ),
            buffer: PacketBuffer::new(config.capacity),
            sorter,
            push_out: config.admission == AdmissionPolicy::PushOut,
            outstanding: BTreeSet::new(),
            slots: vec![None; config.capacity],
            next_stamp: 0,
            times: LayerTimes::default(),
            ops: Vec::new(),
            pop_hash: FNV_BASIS,
        }
    }
}

impl<B: SortBackend, P: RankPolicy> Layers<B, P> {
    fn note_pop(&mut self, kind: u64, popped: Option<(Tag, PacketRef)>) {
        self.ops.push(op(kind, 0, 0));
        if let Some((tag, r)) = popped {
            self.pop_hash = fnv(self.pop_hash, &[u64::from(tag.value()), u64::from(r.0)]);
        }
    }

    /// Evicts the sorter's maximum for an arrival quantized to `tick`,
    /// if the arrival strictly outranks it.
    fn push_out(&mut self, tick: u64) -> bool {
        let Some(&(max_tick, _)) = self.outstanding.iter().next_back() else {
            return false;
        };
        if tick >= max_tick {
            return false;
        }
        let t = Instant::now();
        let popped = self.sorter.pop_max();
        self.times.sorter.add(t);
        self.note_pop(OP_POP_MAX, popped);
        let Some((_, r)) = popped else { return false };
        let (vtick, vstamp, _, full) = self.slots[r.index() as usize]
            .take()
            .expect("the sorter pops only queued slots");
        self.outstanding.remove(&(vtick, vstamp));
        let t = Instant::now();
        self.buffer.release(full);
        self.times.release.add(t);
        true
    }
}

impl<B: SortBackend, P: RankPolicy> Frontend for Layers<B, P> {
    fn enqueue(&mut self, pkt: Packet) -> Admit {
        let t = Instant::now();
        let finish = self.policy.rank(&pkt);
        self.times.rank_arrival.add(t);
        let t = Instant::now();
        if self.sorter.is_empty()
            && self.quantizer.policy() == WrapPolicy::Saturate
            && self.policy.monotone()
        {
            self.quantizer.rebase(self.policy.rank_floor());
        }
        let min_tick = self.outstanding.iter().next().map(|&(tick, _)| tick);
        let out = self.quantizer.quantize(finish, min_tick);
        self.times.quantize.add(t);
        for &section in &out.recycle {
            let t = Instant::now();
            self.sorter.recycle_section(section);
            self.times.sorter.add(t);
            self.ops.push(op(OP_RECYCLE, section, 0));
        }
        self.times.recycled_sections += out.recycle.len() as u64;
        let t = Instant::now();
        let mut stored = self.buffer.store(pkt);
        self.times.store.add(t);
        if stored.is_none() && self.push_out && self.push_out(out.tick) {
            let t = Instant::now();
            stored = self.buffer.store(pkt);
            self.times.store.add(t);
        }
        let Some(full) = stored else {
            return Admit::Refused;
        };
        self.times.buffer_peak = self.times.buffer_peak.max(self.buffer.stats().peak as u64);
        let slot = PacketRef(full.index());
        let t = Instant::now();
        let inserted = self.sorter.insert(out.tag, slot);
        self.times.sorter.add(t);
        if inserted.is_err() {
            return Admit::Failed;
        }
        self.ops.push(op(OP_INSERT, out.tag.value(), slot.0));
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.outstanding.insert((out.tick, stamp));
        self.slots[slot.index() as usize] = Some((out.tick, stamp, finish, full));
        Admit::Accepted
    }

    fn dequeue(&mut self) -> Option<Packet> {
        let t = Instant::now();
        let popped = self.sorter.pop_min();
        self.times.sorter.add(t);
        self.note_pop(OP_POP_MIN, popped);
        let (_, r) = popped?;
        let (tick, stamp, finish, full) = self.slots[r.index() as usize]
            .take()
            .expect("the sorter pops only queued slots");
        let t = Instant::now();
        let pkt = self.buffer.release(full);
        self.times.release.add(t);
        let t = Instant::now();
        self.policy.on_service(&pkt, finish);
        self.times.rank_service.add(t);
        self.outstanding.remove(&(tick, stamp));
        Some(pkt)
    }

    fn is_empty(&self) -> bool {
        self.sorter.is_empty()
    }
}

/// Spans of a frontend replayed over a recorded call stream.
#[derive(Debug, Default)]
pub struct Replay {
    /// Every enqueue call.
    pub enqueue: Acc,
    /// Every dequeue call, empty polls included.
    pub dequeue: Acc,
    /// Per-call enqueue durations, raw ns.
    pub enqueue_ns: Vec<u32>,
    /// Per-call durations of dequeues that served a packet, raw ns.
    pub dequeue_ns: Vec<u32>,
    /// FNV-1a over the departure sequence.
    pub hash: u64,
}

/// Feeds `arrivals` to `f`, preceding arrival `i` with
/// `dequeues_before[i]` dequeue calls and ending with `drain` more —
/// the exact call stream a traced pass recorded.
pub fn replay_calls<F: Frontend>(
    f: &mut F,
    arrivals: impl Iterator<Item = Packet>,
    dequeues_before: &[u32],
    drain: u32,
) -> Replay {
    let mut out = Replay {
        hash: FNV_BASIS,
        ..Replay::default()
    };
    let deq = |f: &mut F, out: &mut Replay| {
        let t = Instant::now();
        let p = f.dequeue();
        let ns = ns_since(t);
        out.dequeue.ns += ns;
        out.dequeue.calls += 1;
        if let Some(p) = p {
            out.dequeue_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
            out.hash = hash_departure(out.hash, &p);
        }
    };
    for (pkt, &calls) in arrivals.zip(dequeues_before) {
        for _ in 0..calls {
            deq(f, &mut out);
        }
        let t = Instant::now();
        f.enqueue(pkt);
        let ns = ns_since(t);
        out.enqueue.ns += ns;
        out.enqueue.calls += 1;
        out.enqueue_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
    }
    for _ in 0..drain {
        deq(f, &mut out);
    }
    out
}

/// One backend's costs on a recorded sorter-operation stream.
#[derive(Debug, Clone, Copy)]
pub struct SorterRun {
    /// Mean net ns per insert.
    pub insert_ns: f64,
    /// Mean net ns per `pop_min` (empty pops included).
    pub pop_min_ns: f64,
    /// Mean net ns per `pop_max`; zero when the stream has none.
    pub pop_max_ns: f64,
    /// Modeled storage cycles per operation.
    pub cycles_per_op: f64,
    /// FNV-1a over every popped entry, comparable across backends.
    pub pop_hash: u64,
}

/// Replays `ops` on a fresh `B` built from `spec` (paged if `paged`),
/// timing each call with `overhead` ns of clock cost taken off;
/// `cycles_per_op` reads the backend's own cycle model at the end.
pub fn replay_sorter<B: SortBackend>(
    spec: &BackendSpec,
    paged: bool,
    ops: &[u64],
    overhead: u64,
    cycles_per_op: fn(&B) -> f64,
) -> SorterRun {
    let mut sorter = B::build(spec);
    if paged {
        sorter.set_paged();
    }
    let (mut insert, mut pop_min, mut pop_max) = (Acc::default(), Acc::default(), Acc::default());
    let mut hash = FNV_BASIS;
    for &word in ops {
        let kind = word >> 62;
        let tag = ((word >> 32) & ((1 << 30) - 1)) as u32;
        let payload = word as u32;
        let popped = match kind {
            OP_INSERT => {
                let t = Instant::now();
                let r = sorter.insert(Tag(tag), PacketRef(payload));
                insert.add(t);
                r.expect("the recorded stream inserted successfully");
                None
            }
            OP_POP_MIN => {
                let t = Instant::now();
                let p = sorter.pop_min();
                pop_min.add(t);
                p
            }
            OP_POP_MAX => {
                let t = Instant::now();
                let p = sorter.pop_max();
                pop_max.add(t);
                p
            }
            _ => {
                sorter.recycle_section(tag);
                None
            }
        };
        if let Some((tag, r)) = popped {
            hash = fnv(hash, &[u64::from(tag.value()), u64::from(r.0)]);
        }
    }
    SorterRun {
        insert_ns: insert.mean_ns(overhead),
        pop_min_ns: pop_min.mean_ns(overhead),
        pop_max_ns: pop_max.mean_ns(overhead),
        cycles_per_op: cycles_per_op(&sorter),
        pop_hash: hash,
    }
}
