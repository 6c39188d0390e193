//! Property tests for the tag store's tail register and back-pointer
//! mirror — the state that lets `pop_max` (push-out) find the list tail
//! and its predecessor without walking the list.
//!
//! Random interleavings of `insert`, `pop_min`, `insert_and_pop` and
//! `pop_max` run on eager and paged stores over single-port and QDR-like
//! memory, against a `BTreeMap<(tag, seq)>` model. After every operation
//! the test checks the result against the model, the mirror against the
//! links in SRAM, and the operation's cycles and SRAM reads/writes
//! against the fixed slot schedule.

use std::collections::BTreeMap;

use proptest::prelude::*;

use faultsim::FaultTarget;
use tagsort::{Geometry, LinkAddr, MemoryKind, PacketRef, Tag, TagStore};

/// Small enough that the initialization counter runs out, the empty
/// list recycles links, and inserts hit `StoreFullError`.
const CAPACITY: usize = 24;

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u32),
    PopMin,
    InsertAndPop(u32),
    PopMax,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // Inserts outweigh pops so the list fills up and then churns; a
    // narrow tag range makes duplicates common.
    proptest::collection::vec(
        (0u8..10, 0u32..40).prop_map(|(kind, tag)| match kind {
            0..=3 => Op::Insert(tag),
            4..=5 => Op::PopMin,
            6..=7 => Op::InsertAndPop(tag),
            _ => Op::PopMax,
        }),
        1..300,
    )
}

/// The reference: `(tag, insertion seq)` → `(payload, link address)`.
#[derive(Default)]
struct Model {
    entries: BTreeMap<(u32, u64), (u32, LinkAddr)>,
    seq: u64,
    /// Addresses handed out by the initialization counter so far.
    handed_out: usize,
}

impl Model {
    /// The link a new `tag` goes after: the newest entry at or below it
    /// (what the trie's closest-match search and translation table give).
    fn prev(&self, tag: u32) -> Option<LinkAddr> {
        self.entries
            .range(..=(tag, u64::MAX))
            .next_back()
            .map(|(_, &(_, addr))| addr)
    }

    fn add(&mut self, tag: u32, addr: LinkAddr) {
        self.entries
            .insert((tag, self.seq), (self.seq as u32, addr));
        self.seq += 1;
    }

    /// Whether the next allocation reads the empty list (slot-0 read)
    /// instead of taking a fresh address from the counter.
    fn allocation_reads(&mut self) -> u64 {
        if self.handed_out < CAPACITY {
            self.handed_out += 1;
            0
        } else {
            1
        }
    }

    fn last(&self) -> Option<(LinkAddr, Tag)> {
        self.entries
            .last_key_value()
            .map(|(&(tag, _), &(_, addr))| (addr, Tag(tag)))
    }
}

/// Runs `op` on `store` and the model; returns the expected
/// `(reads, writes, charged slot)` of the operation.
fn step(
    store: &mut TagStore,
    model: &mut Model,
    op: Op,
) -> Result<(u64, u64, bool), TestCaseError> {
    Ok(match op {
        Op::Insert(tag) => {
            let prev = model.prev(tag);
            let payload = model.seq as u32;
            let result = store.insert(prev, Tag(tag), PacketRef(payload));
            if model.entries.len() == CAPACITY {
                prop_assert!(result.is_err(), "insert into a full store succeeded");
                return Ok((0, 0, false));
            }
            let addr = result.map_err(|e| TestCaseError(e.to_string()))?;
            let reads = model.allocation_reads() + u64::from(prev.is_some());
            model.add(tag, addr);
            (reads, 1 + u64::from(prev.is_some()), true)
        }
        Op::PopMin => {
            let expected = model.entries.pop_first();
            let got = store.pop_min();
            let Some(((tag, _), (payload, addr))) = expected else {
                prop_assert_eq!(got, None);
                return Ok((0, 0, false));
            };
            prop_assert_eq!(got, Some((Tag(tag), PacketRef(payload), addr)));
            (u64::from(!model.entries.is_empty()), 1, true)
        }
        Op::InsertAndPop(tag) => {
            let prev = model.prev(tag);
            let Some(((ptag, _), (ppayload, paddr))) = model.entries.pop_first() else {
                let payload = model.seq as u32;
                let (addr, popped) = store
                    .insert_and_pop(prev, Tag(tag), PacketRef(payload))
                    .map_err(|e| TestCaseError(e.to_string()))?;
                prop_assert_eq!(popped, None);
                let reads = model.allocation_reads();
                model.add(tag, addr);
                return Ok((reads, 1, true));
            };
            let payload = model.seq as u32;
            let (addr, popped) = store
                .insert_and_pop(prev, Tag(tag), PacketRef(payload))
                .map_err(|e| TestCaseError(e.to_string()))?;
            prop_assert_eq!(popped, Some((Tag(ptag), PacketRef(ppayload), paddr)));
            prop_assert_eq!(addr, paddr, "the freed head link is reused");
            let linked_after = prev.filter(|&a| a != paddr).is_some();
            let refill = u64::from(!model.entries.is_empty());
            model.add(tag, addr);
            (
                refill + u64::from(linked_after),
                1 + u64::from(linked_after),
                true,
            )
        }
        Op::PopMax => {
            let expected = model.entries.pop_last();
            let got = store.pop_max();
            let Some(((tag, _), (payload, addr))) = expected else {
                prop_assert_eq!(got, None);
                return Ok((0, 0, false));
            };
            let pred = model.last();
            prop_assert_eq!(got, Some((Tag(tag), PacketRef(payload), addr, pred)));
            let has_pred = u64::from(pred.is_some());
            (has_pred, 1 + has_pred, true)
        }
    })
}

fn run(ops: &[Op], paged: bool, memory: MemoryKind) -> Result<(), TestCaseError> {
    let mut store = TagStore::with_geometry_and_memory(Geometry::paper(), CAPACITY, memory);
    if paged {
        store.set_paged();
    }
    let mut model = Model::default();
    for (i, &op) in ops.iter().enumerate() {
        let (stats0, cycles0) = (store.sram_stats(), store.cycles());
        let (reads, writes, charged) = step(&mut store, &mut model, op)?;
        let (stats, cycles) = (store.sram_stats(), store.cycles());
        let slot = if charged { store.slot_cycles() } else { 0 };
        prop_assert_eq!(
            (
                stats.reads - stats0.reads,
                stats.writes - stats0.writes,
                cycles.since(cycles0)
            ),
            (reads, writes, slot),
            "op {} ({:?}): (reads, writes, cycles) off the slot schedule",
            i,
            op
        );
        prop_assert_eq!(store.len(), model.entries.len());
        if let Err(e) = store.check_tail_mirror() {
            return Err(TestCaseError(format!("op {i} ({op:?}): {e}")));
        }
        let listed: Vec<(Tag, PacketRef)> = store.iter_sorted().collect();
        let modeled: Vec<(Tag, PacketRef)> = model
            .entries
            .iter()
            .map(|(&(tag, _), &(payload, _))| (Tag(tag), PacketRef(payload)))
            .collect();
        prop_assert_eq!(listed, modeled, "op {} ({:?}): list order", i, op);
    }
    prop_assert!(
        store.take_corruptions().is_empty(),
        "a fault-free strict store recorded a corruption"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mirror_tracks_the_list_under_random_interleavings(ops in ops()) {
        for paged in [false, true] {
            for memory in [MemoryKind::SinglePort, MemoryKind::QdrLike] {
                run(&ops, paged, memory)?;
            }
        }
    }

    /// A tolerant store keeps every operation O(1) and panic-free while
    /// random single-bit upsets land in its link words: each call
    /// returns, and draining with `pop_max` ends within `len` calls.
    #[test]
    fn tolerant_store_survives_random_link_upsets(
        ops in ops(),
        upsets in proptest::collection::vec((0usize..CAPACITY, 0u32..64, 0usize..300), 1..12),
    ) {
        for paged in [false, true] {
            let mut store = TagStore::with_geometry(Geometry::paper(), CAPACITY);
            if paged {
                store.set_paged();
            }
            store.set_tolerant(true);
            // The model only supplies plausible predecessor addresses;
            // once an upset lands the store may legitimately diverge.
            let mut model = Model::default();
            for (i, &op) in ops.iter().enumerate() {
                for &(word, bit, at) in &upsets {
                    if at == i {
                        let bits = store.fault_word_bits(word);
                        store.inject_fault(word, 1 << (bit % bits));
                    }
                }
                match op {
                    Op::Insert(tag) => {
                        if let Ok(addr) = store.insert(model.prev(tag), Tag(tag), PacketRef(0)) {
                            model.add(tag, addr);
                        }
                    }
                    Op::PopMin => {
                        model.entries.pop_first();
                        store.pop_min();
                    }
                    Op::InsertAndPop(tag) => {
                        let prev = model.prev(tag);
                        model.entries.pop_first();
                        if let Ok((addr, _)) = store.insert_and_pop(prev, Tag(tag), PacketRef(0)) {
                            model.add(tag, addr);
                        }
                    }
                    Op::PopMax => {
                        model.entries.pop_last();
                        store.pop_max();
                    }
                }
            }
            let mut budget = store.len();
            while store.pop_max().is_some() {
                prop_assert!(budget > 0, "pop_max kept returning past the occupancy");
                budget -= 1;
            }
        }
    }
}
