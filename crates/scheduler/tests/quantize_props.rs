//! Property tests for the tag quantizer: monotonicity, clamping, and the
//! circular recycling order, under arbitrary virtual-time trajectories.

use proptest::prelude::*;

use fairq::VirtualTime;
use scheduler::{TagQuantizer, WrapPolicy};
use tagsort::Geometry;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ticks never decrease for a monotone virtual-time input, under
    /// either policy, and the clamped flag fires exactly when the tick
    /// was reduced.
    #[test]
    fn ticks_are_monotone(
        steps in proptest::collection::vec(0.0f64..500.0, 1..200),
        saturate in proptest::bool::ANY,
    ) {
        let policy = if saturate { WrapPolicy::Saturate } else { WrapPolicy::Wrap };
        let mut q = TagQuantizer::with_policy(Geometry::paper(), 1.0, policy);
        let mut v = 0.0;
        let mut last_tick = 0u64;
        // Track a window of outstanding ticks (drain aggressively so the
        // wrap policy's slack bound holds for any generated trajectory).
        let mut outstanding: std::collections::VecDeque<u64> = Default::default();
        for s in steps {
            v += s;
            let min = outstanding.front().copied();
            // Keep the window under half a lap.
            let out = q.quantize(VirtualTime(v), min);
            prop_assert!(out.tick >= last_tick, "tick went backwards");
            prop_assert_eq!(
                out.tag.value() as u64,
                out.tick % 4096,
                "tag is the wrapped tick"
            );
            last_tick = out.tick;
            outstanding.push_back(out.tick);
            while outstanding.len() > 4
                || outstanding
                    .front()
                    .is_some_and(|&f| out.tick - f > 1800)
            {
                outstanding.pop_front();
            }
        }
    }

    /// Under Saturate, every assigned tick stays within the lap of the
    /// oldest outstanding tick — the invariant that makes modular
    /// reduction order-preserving.
    #[test]
    fn saturate_confines_ticks_to_the_live_lap(
        steps in proptest::collection::vec(0.0f64..3000.0, 1..150),
    ) {
        let mut q = TagQuantizer::new(Geometry::paper(), 1.0);
        let mut v = 0.0;
        let mut outstanding: Vec<u64> = Vec::new();
        for s in steps {
            v += s;
            let min = outstanding.iter().min().copied();
            let out = q.quantize(VirtualTime(v), min);
            if let Some(m) = min {
                let lap = m / 4096;
                prop_assert_eq!(out.tick / 4096, lap, "tick left the live lap");
            }
            outstanding.push(out.tick);
            if outstanding.len() > 6 {
                outstanding.remove(0);
            }
        }
    }

    /// Under Saturate every tick also lies in the lap of the smallest
    /// live tick when ranks jump around — far below it (bounded-domain
    /// policies, or ordinary tags after a tiny-weight flow's huge one
    /// opened a lap) as well as above — and live entries leave from
    /// either end, as service and push-out take them. So across the live
    /// set tag order is tick order, the fact schedulers rely on when
    /// they read their live-tick bounds from the sorter.
    #[test]
    fn saturate_keeps_every_live_tick_in_the_smallest_ones_lap(
        steps in proptest::collection::vec((0.0f64..20_000.0, 0u8..4), 1..200),
    ) {
        let mut q = TagQuantizer::new(Geometry::paper(), 1.0);
        let mut live: Vec<(u64, u32)> = Vec::new();
        for (finish, leave) in steps {
            let min = live.iter().map(|&(tick, _)| tick).min();
            let out = q.quantize(VirtualTime(finish), min);
            if let Some(m) = min {
                prop_assert_eq!(out.tick / 4096, m / 4096, "tick left the live lap");
            }
            live.push((out.tick, out.tag.value()));
            live.sort_unstable();
            prop_assert!(
                live.windows(2).all(|w| w[0].1 <= w[1].1),
                "tag order differs from tick order: {:?}",
                live
            );
            match leave {
                0 => drop(live.remove(0)),
                1 => drop(live.pop()),
                _ => {}
            }
        }
    }

    /// Recycled sections always appear in circular order with no skips,
    /// whatever the trajectory (Wrap policy, bounded window).
    #[test]
    fn recycling_is_circular_and_gapless(
        steps in proptest::collection::vec(1.0f64..300.0, 1..300),
    ) {
        let mut q = TagQuantizer::with_policy(Geometry::paper(), 1.0, WrapPolicy::Wrap);
        let mut v = 0.0;
        let mut expected_next: Option<u32> = Some(0);
        for s in steps {
            v += s;
            // Keep the window trivially small: nothing outstanding.
            let out = q.quantize(VirtualTime(v), None);
            for r in out.recycle {
                prop_assert_eq!(Some(r), expected_next, "out-of-order recycle");
                expected_next = Some((r + 1) % 16);
            }
        }
    }

    /// Rebase restarts numbering without ever producing a smaller
    /// virtual-time base than before (monotone bases).
    #[test]
    fn rebase_roundtrip(jumps in proptest::collection::vec(0.0f64..5000.0, 1..50)) {
        let mut q = TagQuantizer::new(Geometry::paper(), 2.0);
        let mut v = 0.0;
        for j in jumps {
            v += j;
            q.rebase(VirtualTime(v));
            let out = q.quantize(VirtualTime(v + 10.0), None);
            // 10 virtual units / scale 2 = 5 ticks, minus at most one
            // tick of floating-point floor slack.
            prop_assert!((4..=5).contains(&out.tick), "tick {}", out.tick);
            prop_assert!(!out.clamped);
        }
    }
}
