//! Property-based invariants of the radar geometry and codec.

use bda_letkf::obs::{DBZ_MAX, DBZ_MIN, DOPPLER_ABS_MAX};
use bda_letkf::{ObsKind, Observation};
use bda_pawr::codec::{decode_volume_salvage, ValueBounds};
use bda_pawr::fuzz::VolumeMutator;
use bda_pawr::geometry::{beam_to, visibility, Invisibility};
use bda_pawr::reflectivity::{fall_speed, to_dbz, z_rain, z_total};
use bda_pawr::scan::ScanResult;
use bda_pawr::{encode_volume, RadarConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Beam direction is always a unit vector; range/azimuth/elevation are
    /// consistent with the Cartesian offset.
    #[test]
    fn beam_geometry_consistent(
        dx in -50_000.0f64..50_000.0,
        dy in -50_000.0f64..50_000.0,
        dz in 10.0f64..15_000.0,
    ) {
        let cfg = RadarConfig::mp_pawr_bda2021();
        let b = beam_to(&cfg, cfg.x + dx, cfg.y + dy, cfg.z + dz);
        let norm = (b.dir.0 * b.dir.0 + b.dir.1 * b.dir.1 + b.dir.2 * b.dir.2).sqrt();
        prop_assert!((norm - 1.0).abs() < 1e-9);
        let range = (dx * dx + dy * dy + dz * dz).sqrt();
        prop_assert!((b.range - range).abs() < 1e-6 * range.max(1.0));
        prop_assert!((0.0..360.0).contains(&b.azimuth_deg));
        prop_assert!((-90.0..=90.0).contains(&b.elevation_deg));
        // Elevation positive for targets above the antenna.
        prop_assert!(b.elevation_deg > 0.0);
    }

    /// Visibility is azimuth-symmetric when there is no blockage: rotating
    /// a target around the radar never changes the verdict.
    #[test]
    fn visibility_rotation_invariant_without_blockage(
        r in 500.0f64..80_000.0,
        z in 50.0f64..15_000.0,
        az1 in 0.0f64..360.0,
        az2 in 0.0f64..360.0,
    ) {
        let mut cfg = RadarConfig::mp_pawr_bda2021();
        cfg.blockage.clear();
        let at = |az: f64| {
            let (s, c) = az.to_radians().sin_cos();
            visibility(&cfg, cfg.x + r * c, cfg.y + r * s, z)
        };
        let v1 = at(az1).map(|_| ());
        let v2 = at(az2).map(|_| ());
        prop_assert_eq!(v1.is_ok(), v2.is_ok());
        if let (Err(a), Err(b)) = (v1, v2) {
            prop_assert_eq!(a, b);
        }
    }

    /// Out-of-range targets are always invisible; close mid-level targets
    /// inside the elevation window are always visible.
    #[test]
    fn range_limit_is_hard(
        extra in 1.0f64..100_000.0,
        az in 0.0f64..360.0,
    ) {
        let mut cfg = RadarConfig::mp_pawr_bda2021();
        cfg.blockage.clear();
        let r = cfg.range_max + extra;
        let (s, c) = az.to_radians().sin_cos();
        // Keep elevation inside the window so range is the only reason.
        let z = cfg.z + r * (10.0f64).to_radians().tan();
        let v = visibility(&cfg, cfg.x + r * c, cfg.y + r * s, z);
        prop_assert_eq!(v.unwrap_err(), Invisibility::OutOfRange);
    }

    /// Reflectivity physics: z_total additive and monotone; dBZ monotone in
    /// Z; fall speed bounded by the fastest species cap.
    #[test]
    fn reflectivity_physics_bounds(
        rain in 0.0f64..10.0,
        snow in 0.0f64..10.0,
        graupel in 0.0f64..10.0,
    ) {
        let z = z_total(rain, snow, graupel);
        prop_assert!(z >= z_rain(rain));
        prop_assert!(z.is_finite() && z >= 0.0);
        let dbz = to_dbz(z, -30.0);
        let dbz_more = to_dbz(z * 2.0, -30.0);
        prop_assert!(dbz_more >= dbz);
        let vt = fall_speed(rain, snow, graupel);
        prop_assert!((0.0..=12.0).contains(&vt), "vt = {vt}");
    }

    /// The volume codec roundtrips arbitrary scans and its size is exactly
    /// linear in the record count.
    #[test]
    fn codec_size_and_roundtrip(
        n in 0usize..80,
        seed in any::<u64>(),
    ) {
        let mut rng = bda_num::SplitMix64::new(seed);
        let obs: Vec<Observation<f32>> = (0..n)
            .map(|i| Observation {
                kind: if i % 3 == 0 { ObsKind::DopplerVelocity } else { ObsKind::Reflectivity },
                x: rng.uniform_in(0.0, 128_000.0),
                y: rng.uniform_in(0.0, 128_000.0),
                z: rng.uniform_in(100.0, 16_000.0),
                value: rng.gaussian(20.0f32, 15.0),
                error_sd: 5.0,
            })
            .collect();
        let scan = ScanResult {
            time: rng.uniform_in(0.0, 1e6),
            obs,
            n_reflectivity: 0,
            n_doppler: 0,
            n_clear_air: 0,
            raw_bytes: 0,
        };
        let bytes = encode_volume(&scan);
        // Header 22 + trailer 8 + 21 per record.
        prop_assert_eq!(bytes.len(), 30 + 21 * n);
        let (dec, report) = decode_volume_salvage::<f32>(&bytes, &ValueBounds::default()).unwrap();
        prop_assert!(report.clean());
        prop_assert_eq!(dec.time, scan.time);
        prop_assert_eq!(dec.obs.len(), n);
        for (a, b) in dec.obs.iter().zip(&scan.obs) {
            prop_assert_eq!(a.kind, b.kind);
            prop_assert_eq!(a.value, b.value);
            prop_assert!((a.x - b.x).abs() < 0.02); // f32 position quantization
        }
    }

    /// The same wire bytes decode into f64 observations without loss beyond
    /// the f32 wire precision — the decoder is generic over the target Real.
    #[test]
    fn codec_roundtrips_into_f64(
        n in 1usize..40,
        seed in any::<u64>(),
    ) {
        let mut rng = bda_num::SplitMix64::new(seed);
        let obs: Vec<Observation<f32>> = (0..n)
            .map(|i| Observation {
                kind: if i % 2 == 0 { ObsKind::Reflectivity } else { ObsKind::DopplerVelocity },
                x: rng.uniform_in(0.0, 128_000.0),
                y: rng.uniform_in(0.0, 128_000.0),
                z: rng.uniform_in(100.0, 16_000.0),
                value: rng.uniform_in(-20.0, 60.0) as f32,
                error_sd: 5.0,
            })
            .collect();
        let scan = ScanResult {
            time: rng.uniform_in(0.0, 1e6),
            obs,
            n_reflectivity: 0,
            n_doppler: 0,
            n_clear_air: 0,
            raw_bytes: 0,
        };
        let bytes = encode_volume(&scan);
        let (dec, report) = decode_volume_salvage::<f64>(&bytes, &ValueBounds::default()).unwrap();
        prop_assert!(report.clean());
        prop_assert_eq!(dec.obs.len(), n);
        for (a, b) in dec.obs.iter().zip(&scan.obs) {
            prop_assert_eq!(a.kind, b.kind);
            prop_assert!((a.value - b.value as f64).abs() < 1e-6);
            prop_assert!((a.z - b.z).abs() < 0.02);
        }
    }

    /// Decoding is total over the corruption corpus: any mutated buffer
    /// yields either a volume or a typed error — never a panic — and
    /// salvage never keeps an out-of-bounds record.
    #[test]
    fn decode_never_panics_on_mutated_volumes(
        seed in any::<u64>(),
        case in 0u64..4096,
    ) {
        let mut rng = bda_num::SplitMix64::new(seed);
        let obs: Vec<Observation<f32>> = (0..16)
            .map(|_| Observation {
                kind: ObsKind::Reflectivity,
                x: rng.uniform_in(0.0, 128_000.0),
                y: rng.uniform_in(0.0, 128_000.0),
                z: rng.uniform_in(100.0, 16_000.0),
                value: rng.uniform_in(-10.0, 40.0) as f32,
                error_sd: 5.0,
            })
            .collect();
        let scan = ScanResult {
            time: 30.0,
            obs,
            n_reflectivity: 0,
            n_doppler: 0,
            n_clear_air: 0,
            raw_bytes: 0,
        };
        let clean = encode_volume(&scan);
        let mutant = VolumeMutator::new(&clean, seed).mutate(case);
        // No catch_unwind needed: a panic fails the test. The property is
        // that the decoder returns *something* typed for arbitrary bytes.
        if let Ok((vol, report)) = decode_volume_salvage::<f32>(&mutant.bytes, &ValueBounds::default()) {
            prop_assert!(report.kept <= report.parseable);
            for o in &vol.obs {
                let v = o.value as f64;
                prop_assert!(v.is_finite());
                prop_assert!((DBZ_MIN..=DBZ_MAX).contains(&v) || v.abs() <= DOPPLER_ABS_MAX);
            }
        }
    }
}
