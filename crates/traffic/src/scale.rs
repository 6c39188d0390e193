//! Streaming million-flow workloads for campaign soaks.
//!
//! The per-flow generators in [`generate`](crate::generate) materialize
//! one merge heap entry per flow — fine for dozens of flows, hopeless
//! for the paper's 8 M sessions. A [`ScaleWorkload`] instead models the
//! *aggregate*: one Poisson arrival stream at the link's packet rate,
//! each arrival assigned to a flow by a [`Zipf`] popularity draw. That
//! is `O(1)` state regardless of population size, streams packets in
//! arrival order by construction, and remains exactly reproducible from
//! its seed — re-running the same [`ScaleConfig`] replays the identical
//! packet sequence, which is what campaign soak baselines byte-diff.
//!
//! A [`ChurnSpec`] superimposes a flash crowd: inside the window a
//! fraction of arrivals is redirected from the Zipf backbone to a band
//! of otherwise-cold flows, modeling sudden session arrival, and at the
//! window's end the band goes quiet again (departure). Population churn
//! is what exercises the paged translation table: sections touched by
//! the crowd materialize during the window and are freed again once the
//! virtual clock laps them.

use crate::packet::{FlowId, Packet, Time};
use crate::rng::Rng;
use crate::zipf::Zipf;

/// A flash-crowd window: arrival churn into a cold band of flows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnSpec {
    /// When the crowd arrives, in seconds.
    pub start_s: f64,
    /// How long it stays, in seconds.
    pub duration_s: f64,
    /// Number of (previously cold) flows in the crowd band — the highest
    /// `crowd_flows` flow ids of the population.
    pub crowd_flows: u32,
    /// Fraction of arrivals inside the window redirected to the crowd,
    /// uniformly across its band. Must be in `[0, 1]`.
    pub boost: f64,
}

/// Everything that determines a scale workload, as plain values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleConfig {
    /// Flow population size (Zipf ranks map onto flow ids `0..flows`).
    pub flows: u32,
    /// Total packets to emit.
    pub packets: u64,
    /// Zipf popularity exponent (`0` = uniform, `~1` = classic).
    pub zipf_exponent: f64,
    /// Aggregate arrival rate in bits per second.
    pub rate_bps: f64,
    /// Packet sizes, uniform in `min_bytes..=max_bytes`.
    pub min_bytes: u32,
    /// Largest packet size in bytes.
    pub max_bytes: u32,
    /// Optional flash-crowd churn window.
    pub churn: Option<ChurnSpec>,
    /// PRNG seed; equal configs replay equal traces.
    pub seed: u64,
}

impl ScaleConfig {
    /// Mean packet size under the uniform size law, in bytes.
    pub fn mean_bytes(&self) -> f64 {
        f64::from(self.min_bytes + self.max_bytes) / 2.0
    }

    /// Mean aggregate arrival rate in packets per second.
    pub fn mean_pps(&self) -> f64 {
        self.rate_bps / (8.0 * self.mean_bytes())
    }

    /// Checks that the config describes a workload: a non-empty
    /// population, a finite non-negative Zipf exponent, a positive
    /// finite rate, size bounds `0 < min <= max`, and a well-formed
    /// churn window.
    ///
    /// # Errors
    ///
    /// A message naming the first offending field.
    pub fn check(&self) -> Result<(), String> {
        if self.flows == 0 {
            return Err("flow population must be positive".into());
        }
        if !(self.zipf_exponent.is_finite() && self.zipf_exponent >= 0.0) {
            return Err(format!(
                "Zipf exponent must be finite and >= 0, got {}",
                self.zipf_exponent
            ));
        }
        if !(self.rate_bps.is_finite() && self.rate_bps > 0.0) {
            return Err(format!(
                "aggregate rate must be positive and finite, got {}",
                self.rate_bps
            ));
        }
        if !(self.min_bytes > 0 && self.min_bytes <= self.max_bytes) {
            return Err(format!(
                "packet size bounds must satisfy 0 < min <= max, got {}..={}",
                self.min_bytes, self.max_bytes
            ));
        }
        if let Some(churn) = &self.churn {
            if !(churn.crowd_flows > 0 && churn.crowd_flows <= self.flows) {
                return Err("crowd must be a non-empty subset of the population".into());
            }
            if !(0.0..=1.0).contains(&churn.boost) {
                return Err("churn boost must be a fraction".into());
            }
            if !(churn.start_s >= 0.0 && churn.duration_s > 0.0) {
                return Err("churn window must be non-degenerate".into());
            }
        }
        Ok(())
    }
}

/// The streaming packet source a [`ScaleConfig`] describes.
///
/// Implements [`Iterator`]; arrivals are emitted in nondecreasing time
/// order and `seq` numbers the stream densely from zero.
///
/// # Example
///
/// ```
/// use traffic::{ScaleConfig, ScaleWorkload};
///
/// let cfg = ScaleConfig {
///     flows: 1_000_000,
///     packets: 1_000,
///     zipf_exponent: 1.1,
///     rate_bps: 10e9,
///     min_bytes: 64,
///     max_bytes: 1500,
///     churn: None,
///     seed: 42,
/// };
/// let trace: Vec<_> = ScaleWorkload::new(cfg).collect();
/// assert_eq!(trace.len(), 1_000);
/// assert!(trace.windows(2).all(|w| w[0].arrival <= w[1].arrival));
/// ```
#[derive(Debug, Clone)]
pub struct ScaleWorkload {
    cfg: ScaleConfig,
    rng: Rng,
    zipf: Zipf,
    now_s: f64,
    seq: u64,
}

impl ScaleWorkload {
    /// Creates the stream for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if [`ScaleConfig::check`] rejects the config. Callers
    /// holding external input check it first.
    pub fn new(cfg: ScaleConfig) -> Self {
        if let Err(e) = cfg.check() {
            panic!("invalid scale workload: {e}");
        }
        Self {
            rng: Rng::seed_from_u64(cfg.seed),
            zipf: Zipf::new(u64::from(cfg.flows), cfg.zipf_exponent),
            now_s: 0.0,
            seq: 0,
            cfg,
        }
    }

    /// The config this stream was built from.
    pub fn config(&self) -> &ScaleConfig {
        &self.cfg
    }

    fn pick_flow(&mut self) -> FlowId {
        if let Some(churn) = self.cfg.churn {
            let in_window =
                self.now_s >= churn.start_s && self.now_s < churn.start_s + churn.duration_s;
            if in_window && self.rng.unit_f64() < churn.boost {
                // The crowd band: the top `crowd_flows` ids, uniformly.
                let band_base = self.cfg.flows - churn.crowd_flows;
                return FlowId(band_base + self.rng.below_u32(churn.crowd_flows));
            }
        }
        FlowId((self.zipf.sample(&mut self.rng) - 1) as u32)
    }
}

impl Iterator for ScaleWorkload {
    type Item = Packet;

    fn next(&mut self) -> Option<Packet> {
        if self.seq >= self.cfg.packets {
            return None;
        }
        // Aggregate Poisson arrivals at the configured packet rate.
        self.now_s += -self.rng.positive_unit_f64().ln() / self.cfg.mean_pps();
        let flow = self.pick_flow();
        let size_bytes = self
            .rng
            .range_u32_inclusive(self.cfg.min_bytes, self.cfg.max_bytes);
        let pkt = Packet {
            flow,
            size_bytes,
            arrival: Time(self.now_s),
            seq: self.seq,
        };
        self.seq += 1;
        Some(pkt)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.cfg.packets - self.seq) as usize;
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ScaleConfig {
        ScaleConfig {
            flows: 1 << 20,
            packets: 20_000,
            zipf_exponent: 1.1,
            rate_bps: 1e9,
            min_bytes: 64,
            max_bytes: 1500,
            churn: None,
            seed: 7,
        }
    }

    #[test]
    fn replay_is_exact() {
        let a: Vec<_> = ScaleWorkload::new(cfg()).collect();
        let b: Vec<_> = ScaleWorkload::new(cfg()).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 20_000);
        let c: Vec<_> = ScaleWorkload::new(ScaleConfig { seed: 8, ..cfg() }).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn arrivals_are_ordered_and_sized_in_bounds() {
        let trace: Vec<_> = ScaleWorkload::new(cfg()).collect();
        assert!(trace.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(trace
            .iter()
            .all(|p| (64..=1500).contains(&p.size_bytes) && p.flow.0 < 1 << 20));
        // seq is dense from zero.
        assert!(trace.iter().enumerate().all(|(i, p)| p.seq == i as u64));
    }

    #[test]
    fn aggregate_rate_is_respected() {
        let trace: Vec<_> = ScaleWorkload::new(cfg()).collect();
        let span = trace.last().unwrap().arrival.0;
        let mean_bytes = cfg().mean_bytes();
        let measured_bps = trace.len() as f64 * 8.0 * mean_bytes / span;
        assert!(
            (measured_bps - 1e9).abs() < 1e9 * 0.05,
            "measured {measured_bps:.3e} bps"
        );
    }

    #[test]
    fn zipf_head_dominates_the_flow_mix() {
        let trace: Vec<_> = ScaleWorkload::new(cfg()).collect();
        let head = trace.iter().filter(|p| p.flow.0 < 10).count();
        // Under a uniform mix 10 flows of 2^20 would see ~0 packets of
        // 20 000; the Zipf head must carry a visible share.
        assert!(head > 1_000, "head flows carried only {head} packets");
    }

    #[test]
    fn flash_crowd_fills_its_window_and_departs() {
        let churn = ChurnSpec {
            start_s: 0.02,
            duration_s: 0.02,
            crowd_flows: 1000,
            boost: 0.9,
        };
        let trace: Vec<_> = ScaleWorkload::new(ScaleConfig {
            churn: Some(churn),
            packets: 40_000,
            ..cfg()
        })
        .collect();
        let band_base = (1 << 20) - 1000;
        let in_crowd = |p: &Packet| p.flow.0 >= band_base;
        let during = trace
            .iter()
            .filter(|p| p.arrival.0 >= 0.02 && p.arrival.0 < 0.04);
        let outside = trace
            .iter()
            .filter(|p| p.arrival.0 < 0.02 || p.arrival.0 >= 0.04);
        let (d_total, d_crowd) = during.fold((0usize, 0usize), |(t, c), p| {
            (t + 1, c + usize::from(in_crowd(p)))
        });
        let (o_total, o_crowd) = outside.fold((0usize, 0usize), |(t, c), p| {
            (t + 1, c + usize::from(in_crowd(p)))
        });
        assert!(d_total > 0 && o_total > 0, "window must be populated");
        let d_frac = d_crowd as f64 / d_total as f64;
        let o_frac = o_crowd as f64 / o_total as f64;
        assert!(d_frac > 0.8, "crowd share in window: {d_frac:.3}");
        assert!(o_frac < 0.01, "crowd share outside window: {o_frac:.3}");
    }
}
