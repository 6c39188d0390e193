//! The GPS virtual clock against a reference copy of its earlier
//! ordered-map busy set: on random arrival, advance, drain, adoption and
//! restore sequences, V, the last event time, the busy count, every tag
//! and the checkpoint words must match bit for bit.

use std::collections::BTreeMap;

use proptest::prelude::*;

use fairq::{GpsVirtualClock, VirtualTime};
use traffic::{FlowId, Time};

/// The clock as it was before its busy set moved onto an indexed heap:
/// busy flows in a `BTreeMap` keyed by `(drain tag, flow)`.
struct RefClock {
    weights: Vec<f64>,
    rate_bps: f64,
    v: f64,
    t_last: f64,
    last_finish: Vec<f64>,
    busy: BTreeMap<(VirtualTime, u32), ()>,
    busy_key: Vec<Option<VirtualTime>>,
    sum_phi_busy: f64,
}

impl RefClock {
    fn new(weights: &[f64], rate_bps: f64) -> Self {
        Self {
            weights: weights.to_vec(),
            rate_bps,
            v: 0.0,
            t_last: 0.0,
            last_finish: vec![0.0; weights.len()],
            busy: BTreeMap::new(),
            busy_key: vec![None; weights.len()],
            sum_phi_busy: 0.0,
        }
    }

    fn advance(&mut self, to: f64) {
        let to = to.max(self.t_last);
        loop {
            if self.busy.is_empty() {
                self.t_last = to;
                return;
            }
            let slope = self.rate_bps / self.sum_phi_busy;
            let (&(drain_v, flow_idx), _) = self.busy.iter().next().expect("non-empty");
            let t_hit = self.t_last + (drain_v.0 - self.v) / slope;
            if t_hit <= to {
                self.v = drain_v.0;
                self.t_last = t_hit;
                self.busy.remove(&(drain_v, flow_idx));
                self.busy_key[flow_idx as usize] = None;
                self.sum_phi_busy -= self.weights[flow_idx as usize];
                if self.busy.is_empty() {
                    self.sum_phi_busy = 0.0;
                }
            } else {
                self.v += (to - self.t_last) * slope;
                self.t_last = to;
                return;
            }
        }
    }

    fn on_arrival(&mut self, idx: usize, size_bits: f64, at: f64) -> (f64, f64) {
        self.advance(at);
        let start = self.v.max(self.last_finish[idx]);
        let finish = start + size_bits / self.weights[idx];
        self.last_finish[idx] = finish;
        if let Some(old) = self.busy_key[idx].take() {
            self.busy.remove(&(old, idx as u32));
        } else {
            self.sum_phi_busy += self.weights[idx];
        }
        self.busy.insert((VirtualTime(finish), idx as u32), ());
        self.busy_key[idx] = Some(VirtualTime(finish));
        (start, finish)
    }

    fn drain(&mut self) -> f64 {
        while let Some((&(drain_v, _), _)) = self.busy.iter().next() {
            let slope = self.rate_bps / self.sum_phi_busy;
            let t_hit = self.t_last + (drain_v.0 - self.v) / slope;
            self.advance(t_hit);
        }
        self.t_last
    }

    fn set_last_finish(&mut self, idx: usize, v: f64) {
        if let Some(old) = self.busy_key[idx].take() {
            self.busy.remove(&(old, idx as u32));
            self.sum_phi_busy -= self.weights[idx];
            if self.busy.is_empty() {
                self.sum_phi_busy = 0.0;
            }
        }
        self.last_finish[idx] = v;
        if v > self.v {
            self.busy.insert((VirtualTime(v), idx as u32), ());
            self.busy_key[idx] = Some(VirtualTime(v));
            self.sum_phi_busy += self.weights[idx];
        }
    }

    fn state_words(&self) -> Vec<u64> {
        let mut words = vec![
            self.v.to_bits(),
            self.t_last.to_bits(),
            self.weights.len() as u64,
        ];
        words.extend(self.last_finish.iter().map(|f| f.to_bits()));
        words.extend(self.busy_key.iter().map(|k| u64::from(k.is_some())));
        words
    }

    fn load_state_words(&mut self, words: &[u64]) {
        let n = self.weights.len();
        self.v = f64::from_bits(words[0]);
        self.t_last = f64::from_bits(words[1]);
        self.busy.clear();
        self.sum_phi_busy = 0.0;
        for i in 0..n {
            self.last_finish[i] = f64::from_bits(words[3 + i]);
            self.busy_key[i] = None;
            if words[3 + n + i] != 0 {
                let key = VirtualTime(self.last_finish[i]);
                self.busy.insert((key, i as u32), ());
                self.busy_key[i] = Some(key);
                self.sum_phi_busy += self.weights[i];
            }
        }
    }
}

/// One step of a clock program: `(kind, flow, a, b)`.
type Op = (u8, u8, u16, u16);

fn program() -> impl Strategy<Value = (Vec<u8>, Vec<Op>)> {
    (
        // Few distinct weights and sizes, so equal drain tags (the
        // flow-index tie-break) are common.
        proptest::collection::vec(0u8..3, 1..12),
        proptest::collection::vec((0u8..16, 0u8..12, 0u16..400, 0u16..4), 1..300),
    )
}

/// Runs the program on both clocks, comparing after every step.
fn check(weights: &[u8], ops: &[Op]) -> Result<(), TestCaseError> {
    // Inexact binary fractions: the order drains subtract weights in
    // shows up in the last bits of V.
    let weights: Vec<f64> = weights
        .iter()
        .map(|&w| [0.1, 0.3, 0.7][usize::from(w)])
        .collect();
    let rate = 1e6;
    let mut clock = GpsVirtualClock::new(&weights, rate);
    let mut model = RefClock::new(&weights, rate);
    let mut t = 0.0;
    let mut saved = clock.state_words();
    for (step, &(kind, flow, a, b)) in ops.iter().enumerate() {
        let idx = usize::from(flow) % weights.len();
        match kind {
            // Arrivals dominate, as on a link; sizes from a short list.
            0..=8 => {
                // Half the arrivals are simultaneous, so equal tags are
                // common.
                t += f64::from(a.saturating_sub(200)) * 1e-6;
                let bits = [512.0, 4000.0, 12000.0, 800.0][usize::from(b)];
                let (s, f) = clock.on_arrival(FlowId(idx as u32), bits, Time(t));
                let (ms, mf) = model.on_arrival(idx, bits, t);
                prop_assert_eq!(s.value().to_bits(), ms.to_bits(), "start, step {}", step);
                prop_assert_eq!(f.value().to_bits(), mf.to_bits(), "finish, step {}", step);
            }
            9..=11 => {
                t += f64::from(a) * 1e-5;
                clock.advance(Time(t));
                model.advance(t);
            }
            12 => {
                let end = clock.drain();
                prop_assert_eq!(end.seconds().to_bits(), model.drain().to_bits());
                t = t.max(end.seconds());
            }
            13 => {
                // Adopt a finish around V: behind it (idle) or ahead
                // (busy), as a migrated-in flow's history may be.
                let v = clock.virtual_now().value() + (f64::from(a) - 200.0) * 37.0;
                clock.set_last_finish(FlowId(idx as u32), VirtualTime(v));
                model.set_last_finish(idx, v);
            }
            14 => saved = clock.state_words(),
            _ => {
                clock.load_state_words(&saved);
                model.load_state_words(&saved);
            }
        }
        prop_assert_eq!(
            clock.virtual_now().value().to_bits(),
            model.v.to_bits(),
            "V, step {}",
            step
        );
        prop_assert_eq!(
            clock.busy_sessions(),
            model.busy.len(),
            "busy, step {}",
            step
        );
        // The words carry t_last and every flow's tag and busy flag.
        prop_assert_eq!(
            clock.state_words(),
            model.state_words(),
            "words, step {}",
            step
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn heap_clock_is_bit_identical_to_the_ordered_map_clock(prog in program()) {
        let (weights, ops) = prog;
        check(&weights, &ops)?;
    }
}

#[test]
fn equal_drain_tags_break_ties_by_flow_index() {
    // Flows 0-2 (weights 0.1, 0.3, 0.7) adopt the same finish while
    // flow 3 stays busy behind them. They drain in one event chain, and
    // the order their weights leave the busy sum shows in the last bits
    // of V afterwards: it must be flow order, as in the ordered map.
    let weights = [0u8, 1, 2, 1];
    let ops: Vec<Op> = [(0, 3, 0, 2)]
        .into_iter()
        .chain((0..3u8).rev().map(|f| (13, f, 300, 0)))
        .chain([(9, 0, 400, 0); 6])
        .collect();
    check(&weights, &ops).unwrap();
}
