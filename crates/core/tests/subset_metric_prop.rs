//! Property tests pinning the subset-metric formulas to the paper's
//! sums: the Poisson-binomial dynamic program and the delay-ordered pass
//! behind `subset::{risk, loss, delay}` must agree with exact exponential
//! enumeration over observation/arrival patterns on every admissible
//! `(k, M)` of a random channel set.

use mcss_core::{subset, Channel, ChannelSet, Subset};
use proptest::prelude::*;

/// Random per-channel `(z, l, d, r)` quadruples for 1–8 channels, kept
/// inside the model's validated domain (`l < 1`, `r > 0`). About a
/// quarter of the channels are lossless (`l = 0` exactly) and half the
/// delays sit on a quarter-unit grid, so equal delays — ties in the
/// delay order — are common.
fn arbitrary_channels() -> impl Strategy<Value = Vec<(f64, f64, f64, f64)>> {
    let channel = (
        0.0f64..=1.0,
        -0.33f64..0.99,
        0.0f64..2.0,
        0u8..2,
        1.0f64..100.0,
    )
        .prop_map(|(z, l, d, snap, r)| {
            let d = if snap == 0 {
                (d * 4.0).floor() / 4.0
            } else {
                d
            };
            (z, l.max(0.0), d, r)
        });
    proptest::collection::vec(channel, 1..9)
}

fn build(raw: &[(f64, f64, f64, f64)]) -> ChannelSet {
    ChannelSet::new(
        raw.iter()
            .map(|&(z, l, d, r)| Channel::new(z, l, d, r).expect("in-domain"))
            .collect::<Vec<_>>(),
    )
    .expect("non-empty, within MAX_CHANNELS")
}

proptest! {
    /// z and l: enumeration == DP to 1e-12.
    #[test]
    fn risk_and_loss_agree_across_all_paths(raw in arbitrary_channels()) {
        let channels = build(&raw);
        for m in Subset::all_nonempty(channels.len()) {
            for k in 1..=m.len() {
                let z_dp = subset::risk(&channels, k, m);
                let z_enum = subset::risk_by_enumeration(&channels, k, m);
                prop_assert!(
                    (z_dp - z_enum).abs() <= 1e-12,
                    "risk dp {} vs enum {} at k={} m={}", z_dp, z_enum, k, m
                );

                let l_dp = subset::loss(&channels, k, m);
                let l_enum = subset::loss_by_enumeration(&channels, k, m);
                prop_assert!(
                    (l_dp - l_enum).abs() <= 1e-12,
                    "loss dp {} vs enum {} at k={} m={}", l_dp, l_enum, k, m
                );
            }
        }
    }

    /// d: the delay-ordered `O(|M|²)` pass of `subset::delay` == the
    /// submask enumeration of §IV-A to 1e-12 relative, for every
    /// threshold up to and including `k = |M|`.
    #[test]
    fn delay_agrees_with_enumeration(raw in arbitrary_channels()) {
        let channels = build(&raw);
        for m in Subset::all_nonempty(channels.len()) {
            for k in 1..=m.len() {
                let d_enum = subset::delay_by_enumeration(&channels, k, m);
                let d_pass = subset::delay(&channels, k, m);
                prop_assert!(
                    (d_pass - d_enum).abs() <= 1e-12 * d_enum.abs(),
                    "delay pass {} vs enum {} at k={} m={}", d_pass, d_enum, k, m
                );
            }
        }
    }
}
