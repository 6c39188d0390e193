//! Finishing-tag quantization and wrap-around (paper Fig. 6).
//!
//! The WFQ virtual clock produces unbounded real-valued tags; the silicon
//! sorts fixed-width integers. The quantizer divides virtual time into
//! ticks and maps each tag onto the circular W-bit space, recycling
//! top-level sections as the window advances — the Fig. 6 protocol.
//!
//! One subtlety the paper does not spell out: when live tags straddle the
//! wrap boundary, a *linear* sorter would serve just-wrapped (logically
//! newest) tags before the old lap's largest tags. This module makes the
//! resolution explicit via [`WrapPolicy`]:
//!
//! * [`WrapPolicy::Saturate`] (default) — every tick is confined to the
//!   lap of the oldest live tick: tags that would wrap while older tags
//!   still occupy the top of the range are clamped to the range top, and
//!   tags that would fall below the lap to its base. Service order is
//!   preserved exactly; the clamp introduces a bounded quantization
//!   error that disappears as soon as the window clears (and the base is
//!   rebased whenever the system drains empty). Because all live ticks
//!   share one lap, tag order is tick order, and a scheduler can read
//!   its smallest and largest live ticks from the sorter.
//! * [`WrapPolicy::Wrap`] — the paper-literal behaviour: tags wrap
//!   modulo 2^W. Order inversions at the boundary are possible and are
//!   *measured* by experiment E4 rather than hidden.

use fairq::VirtualTime;
use tagsort::{Geometry, Tag};

/// How tags behave at the top of the W-bit range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WrapPolicy {
    /// Clamp new tags into the oldest live tag's lap until it drains
    /// (order-preserving; bounded extra quantization error).
    #[default]
    Saturate,
    /// Wrap modulo 2^W, as the paper describes; boundary inversions are
    /// possible and left observable.
    Wrap,
}

/// Result of quantizing one finishing tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantizeOutcome {
    /// The W-bit tag to hand to the sorter.
    pub tag: Tag,
    /// The unwrapped tick the tag was derived from. Callers track the
    /// minimum outstanding tick with this and feed it back into
    /// [`TagQuantizer::quantize`].
    pub tick: u64,
    /// Sections that must be recycled (cleared) before this tag is
    /// inserted, in circular order — usually empty or one entry; more
    /// after a large virtual-time jump.
    pub recycle: Vec<u32>,
    /// Whether the saturate policy clamped this tag.
    pub clamped: bool,
}

/// Maps continuous [`VirtualTime`] finishing tags onto the sorter's
/// circular integer space.
///
/// # Example
///
/// ```
/// use fairq::VirtualTime;
/// use scheduler::TagQuantizer;
/// use tagsort::Geometry;
///
/// let mut q = TagQuantizer::new(Geometry::paper(), 100.0); // 100 v-units per tick
/// let out = q.quantize(VirtualTime(1234.0), None);
/// assert_eq!(out.tag.value(), 12);
/// ```
#[derive(Debug, Clone)]
pub struct TagQuantizer {
    geometry: Geometry,
    /// Virtual-time units per tag tick.
    scale: f64,
    policy: WrapPolicy,
    /// Virtual time corresponding to tick 0 of the current numbering.
    base: f64,
    /// Highest tick handed out since the last rebase.
    max_tick: u64,
    /// Ticks per top-level section.
    section_ticks: u64,
    /// Last section that was prepared (recycled) for allocation.
    prepared_through: u64,
    clamped: u64,
}

impl TagQuantizer {
    /// Creates a quantizer with `scale` virtual units per tag tick.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive and finite.
    pub fn new(geometry: Geometry, scale: f64) -> Self {
        Self::with_policy(geometry, scale, WrapPolicy::default())
    }

    /// Creates a quantizer with an explicit wrap policy.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive and finite.
    pub fn with_policy(geometry: Geometry, scale: f64, policy: WrapPolicy) -> Self {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "scale must be positive and finite"
        );
        let section_ticks = geometry.tag_space() / u64::from(geometry.sections());
        Self {
            geometry,
            scale,
            policy,
            base: 0.0,
            max_tick: 0,
            section_ticks,
            prepared_through: geometry.tag_space() - 1,
            clamped: 0,
        }
    }

    /// The configured geometry.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Virtual units per tick.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// How many tags the saturate policy has clamped so far.
    pub fn clamped_count(&self) -> u64 {
        self.clamped
    }

    /// The wrap policy in force.
    pub fn policy(&self) -> WrapPolicy {
        self.policy
    }

    /// Quantizes a finishing tag given the smallest *tick* still
    /// outstanding in the sorter (`None` when the sorter is empty).
    /// Outstanding ticks are the [`QuantizeOutcome::tick`] values of
    /// previous calls whose tags have not yet been served.
    ///
    /// Returns the sorter tag plus any sections that must be recycled
    /// first. Callers must perform the recycling *before* inserting the
    /// tag. Under [`WrapPolicy::Saturate`] the returned tick always lies
    /// in the lap (the aligned `tag_space()` window) of
    /// `min_outstanding_tick`.
    ///
    /// # Panics
    ///
    /// Panics if `finish` precedes the current base (virtual time never
    /// runs backwards) or if — under [`WrapPolicy::Wrap`] — the live
    /// window leaves less than one section of recycling slack, which no
    /// wrap protocol can recover.
    pub fn quantize(
        &mut self,
        finish: VirtualTime,
        min_outstanding_tick: Option<u64>,
    ) -> QuantizeOutcome {
        assert!(
            finish.value() >= self.base - 1e-9,
            "virtual time ran backwards past the quantizer base"
        );
        let space = self.geometry.tag_space();
        let mut tick = ((finish.value() - self.base) / self.scale).floor() as u64;
        let min_tick = min_outstanding_tick.unwrap_or(tick);
        let mut clamped = false;
        if self.policy == WrapPolicy::Saturate {
            // Order preservation requires every live tick to sit in the
            // same lap-aligned window (modular reduction is monotone only
            // within one lap). Clamp into the oldest live tag's lap: to
            // its top for a tag that would wrap (a rebase when the sorter
            // drains restores headroom), to its base for one that would
            // fall below it (a tag landing more than a lap past the floor
            // opens a new lap on an empty sorter, and smaller tags that
            // follow it undershoot). Schedulers read their live-tick
            // bounds from the sorter on the strength of this.
            let lap_base = (min_tick / space) * space;
            let confined = tick.clamp(lap_base, lap_base + space - 1);
            if confined != tick {
                tick = confined;
                clamped = true;
                self.clamped += 1;
            }
            debug_assert_eq!(tick / space, min_tick / space, "tick left the live lap");
        } else {
            // (saturating: PGPS may legitimately emit a tag below the
            // smallest outstanding one; the window is then zero.)
            // One section of slack guarantees that when allocation enters
            // a wrapped section, the same section of the previous lap has
            // fully drained — the precondition for recycling it.
            let window = tick.saturating_sub(min_tick);
            assert!(
                window <= space - self.section_ticks,
                "live tag window ({window} ticks) leaves no recycling slack"
            );
        }
        self.max_tick = self.max_tick.max(tick);
        // Recycle any sections this tick newly enters. No lookahead: a
        // section is cleared exactly when its first wrapped tick is
        // allocated, at which point the window bound above guarantees the
        // previous lap's occupants of that section have departed.
        let mut recycle = Vec::new();
        while self.prepared_through < tick {
            let next_section_base = self.prepared_through + 1;
            let section =
                (next_section_base / self.section_ticks) % u64::from(self.geometry.sections());
            recycle.push(section as u32);
            self.prepared_through = next_section_base + self.section_ticks - 1;
        }
        QuantizeOutcome {
            tag: Tag((tick % space) as u32),
            tick,
            recycle,
            clamped,
        }
    }

    /// Rebases tick 0 to virtual time `at` — call when the sorter drains
    /// empty so tick numbering (and float precision) restarts cleanly.
    pub fn rebase(&mut self, at: VirtualTime) {
        self.base = at.value();
        self.max_tick = 0;
        self.prepared_through = self.geometry.tag_space() - 1;
    }

    /// The quantizer's mutable state as checkpoint words (base, tick
    /// high-water mark, section preparation cursor, clamp count).
    /// Configuration — geometry, scale, policy — is not included: a
    /// restore rebuilds the quantizer identically configured and then
    /// loads these words.
    pub fn state_words(&self) -> Vec<u64> {
        vec![
            self.base.to_bits(),
            self.max_tick,
            self.prepared_through,
            self.clamped,
        ]
    }

    /// Restores the state captured by [`TagQuantizer::state_words`].
    ///
    /// # Panics
    ///
    /// Panics if the word count is wrong.
    pub fn load_state_words(&mut self, words: &[u64]) {
        assert_eq!(words.len(), 4, "quantizer state is four words");
        self.base = f64::from_bits(words[0]);
        self.max_tick = words[1];
        self.prepared_through = words[2];
        self.clamped = words[3];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quant() -> TagQuantizer {
        // 12-bit space (4096 ticks), 16 sections of 256 ticks.
        TagQuantizer::new(Geometry::paper(), 1.0)
    }

    #[test]
    fn quantizes_by_scale() {
        let mut q = TagQuantizer::new(Geometry::paper(), 100.0);
        let out = q.quantize(VirtualTime(1234.0), None);
        assert_eq!(out.tag, Tag(12));
        assert_eq!(out.tick, 12);
        assert!(!out.clamped);
        assert!(out.recycle.is_empty());
    }

    #[test]
    fn first_lap_needs_no_recycling() {
        let mut q = quant();
        for v in [0.0, 100.0, 2000.0, 4095.0] {
            let out = q.quantize(VirtualTime(v), Some(0));
            assert!(out.recycle.is_empty(), "at {v}: {:?}", out.recycle);
            assert_eq!(out.tag.value() as f64, v.floor());
        }
    }

    #[test]
    fn entering_wrapped_sections_recycles_them() {
        let mut q = TagQuantizer::with_policy(Geometry::paper(), 1.0, WrapPolicy::Wrap);
        q.quantize(VirtualTime(4000.0), Some(3800));
        // Tick 4100 wraps into section 0 (ticks 4096..4351 → wrapped 4..).
        let out = q.quantize(VirtualTime(4100.0), Some(3900));
        assert_eq!(out.tag, Tag(4)); // 4100 mod 4096
        assert!(out.recycle.contains(&0), "{:?}", out.recycle);
    }

    #[test]
    fn sections_recycle_in_circular_order() {
        // Wrap policy: the paper's Fig. 6 protocol reuses sections
        // circularly as the window advances.
        let mut q = TagQuantizer::with_policy(Geometry::paper(), 1.0, WrapPolicy::Wrap);
        let mut recycled = Vec::new();
        for step in 0..40u64 {
            let v = step as f64 * 256.0; // one section per step
            let min_tick = (step * 256).saturating_sub(200);
            let out = q.quantize(VirtualTime(v), Some(min_tick));
            recycled.extend(out.recycle);
        }
        // After several laps every section appears, in ascending circular
        // order.
        assert!(recycled.len() >= 16, "{recycled:?}");
        for w in recycled.windows(2) {
            assert_eq!((w[0] + 1) % 16, w[1], "{recycled:?}");
        }
    }

    #[test]
    fn saturate_clamps_to_the_live_lap_top() {
        let mut q = quant();
        // Oldest outstanding at tick 10 (lap 0); a tag 9000 would cross
        // into lap 2, breaking modular order — clamp to 4095.
        let out = q.quantize(VirtualTime(9000.0), Some(10));
        assert!(out.clamped);
        assert_eq!(out.tag, Tag(4095));
        assert_eq!(q.clamped_count(), 1);
        // A clamped tag never sorts below the live minimum.
        assert!(out.tag.value() >= 10);
    }

    #[test]
    fn saturate_clamps_a_tick_below_the_live_lap_up_to_its_base() {
        let mut q = quant();
        // Oldest outstanding at tick 5000 (lap 1); a tag at 10 would
        // land in lap 0 and sort after it — clamp up to 4096 (tag 0).
        let out = q.quantize(VirtualTime(10.0), Some(5000));
        assert!(out.clamped);
        assert_eq!((out.tick, out.tag), (4096, Tag(0)));
        assert_eq!(q.clamped_count(), 1);
    }

    #[test]
    fn saturate_preserves_order_across_rebases() {
        let mut q = quant();
        let a = q.quantize(VirtualTime(4000.0), Some(3990));
        let b = q.quantize(VirtualTime(5000.0), Some(3990));
        assert!(b.clamped);
        assert!(b.tag >= a.tag, "clamped tag must not precede older tags");
        // After the sorter drains, rebasing restores full resolution.
        q.rebase(VirtualTime(5000.0));
        let c = q.quantize(VirtualTime(5010.0), None);
        assert!(!c.clamped);
        assert_eq!(c.tag, Tag(10));
    }

    #[test]
    fn wrap_policy_wraps_and_panics_only_past_a_full_lap() {
        let mut q = TagQuantizer::with_policy(Geometry::paper(), 1.0, WrapPolicy::Wrap);
        let out = q.quantize(VirtualTime(5000.0), Some(2000));
        assert_eq!(out.tag.value(), 5000 % 4096);
        assert!(!out.clamped);
    }

    #[test]
    #[should_panic(expected = "leaves no recycling slack")]
    fn wrap_policy_rejects_oversized_window() {
        let mut q = TagQuantizer::with_policy(Geometry::paper(), 1.0, WrapPolicy::Wrap);
        let _ = q.quantize(VirtualTime(5000.0), Some(0));
    }

    #[test]
    fn rebase_restarts_numbering() {
        let mut q = quant();
        let _ = q.quantize(VirtualTime(3000.0), Some(2900));
        q.rebase(VirtualTime(3000.0));
        let out = q.quantize(VirtualTime(3005.0), None);
        assert_eq!(out.tag, Tag(5));
    }

    #[test]
    #[should_panic(expected = "ran backwards")]
    fn backwards_virtual_time_rejected() {
        let mut q = quant();
        q.rebase(VirtualTime(100.0));
        let _ = q.quantize(VirtualTime(50.0), None);
    }
}
