//! `shell_replay` — the operational shell at paper-scale sizes with no
//! model and no filter: a seeded 100 000-observation volume through
//! `encode_volume` → `pipe` → `decode_volume_salvage`, then the paper's
//! 256×256 product through `publish` → ACK by two subscribers.

use crate::chain::{transfer, volume_pipe};
use crate::egress::Egress;
use crate::workload::{Check, CycleReport, Recorder, RunConfig, Workload};
use bda::jitdt::pipe::{PipeReceiver, PipeSender};
use bda::letkf::{ObsKind, Observation};
use bda::num::SplitMix64;
use bda::pawr::codec::{decode_volume_salvage, encode_volume, ValueBounds};
use bda::pawr::scan::ScanResult;
use bda::serve::tile::synthetic_reflectivity;
use std::collections::BTreeMap;
use std::time::Instant;

const OBSERVATIONS: usize = 100_000;
/// The paper's inner-domain product, 256×256 cells.
const PRODUCT: usize = 256;
const SUBSCRIBERS: usize = 2;

pub struct Shell {
    volume: ScanResult<f32>,
    pipe: (PipeSender, PipeReceiver),
    egress: Egress,
    last_field: Vec<f64>,
    round_trip_mismatches: usize,
}

/// A volume whose every field survives the codec's `f32` records exactly,
/// so the round trip can be checked for equality.
fn seeded_volume(seed: u64) -> ScanResult<f32> {
    let mut rng = SplitMix64::new(seed ^ 0x5E11);
    let mut n_doppler = 0;
    let obs: Vec<Observation<f32>> = (0..OBSERVATIONS)
        .map(|_| {
            let doppler = rng.next_uniform() < 0.4;
            n_doppler += usize::from(doppler);
            let coord =
                |rng: &mut SplitMix64, span: f64| f64::from((rng.next_uniform() * span) as f32);
            Observation {
                kind: if doppler {
                    ObsKind::DopplerVelocity
                } else {
                    ObsKind::Reflectivity
                },
                x: coord(&mut rng, 128_000.0),
                y: coord(&mut rng, 128_000.0),
                z: coord(&mut rng, 16_000.0),
                value: if doppler {
                    (rng.next_uniform() * 60.0 - 30.0) as f32
                } else {
                    (rng.next_uniform() * 60.0 + 5.0) as f32
                },
                error_sd: if doppler { 3.0 } else { 5.0 },
            }
        })
        .collect();
    ScanResult {
        time: 0.0,
        n_reflectivity: OBSERVATIONS - n_doppler,
        n_doppler,
        n_clear_air: 0,
        raw_bytes: 0,
        obs,
    }
}

impl Shell {
    pub fn setup(run: &RunConfig) -> Result<Self, String> {
        let first_field = synthetic_reflectivity(0, PRODUCT, PRODUCT);
        Ok(Self {
            volume: seeded_volume(run.seed),
            pipe: volume_pipe(),
            egress: Egress::start(PRODUCT, PRODUCT, SUBSCRIBERS, &first_field)?,
            last_field: first_field,
            round_trip_mismatches: 0,
        })
    }

    fn tts(&mut self, rec: &mut Recorder, cycle: u64) -> Result<Vec<Observation<f32>>, String> {
        let bytes = rec
            .trace
            .leaf("pawr.encode", || encode_volume(&self.volume));
        rec.sample("pawr.volume_bytes", cycle, bytes.len() as f64);
        let (tx, rx) = &self.pipe;
        let bytes = rec
            .trace
            .leaf("jitdt.transfer", || transfer(tx, rx, bytes))?;
        let (decoded, salvage) = rec
            .trace
            .leaf("pawr.decode", || {
                decode_volume_salvage::<f32>(&bytes, &ValueBounds::default())
            })
            .map_err(|e| format!("decode: {e}"))?;
        if !salvage.clean() {
            return Err(format!("volume not clean: {salvage:?}"));
        }
        let report = self.egress.publish(&mut rec.trace, &self.last_field)?;
        rec.sample("serve.frames", cycle, report.frames as f64);
        rec.sample("serve.delta_bytes", cycle, report.delta_bytes as f64);
        self.egress.wait_acked(&mut rec.trace)?;
        Ok(decoded.obs)
    }
}

impl Workload for Shell {
    fn cycle(&mut self, rec: &mut Recorder, cycle: u64) -> CycleReport {
        rec.trace.open_cycle(cycle);
        // Before T_obs: this cycle's scan time and product field.
        self.volume.time = 30.0 * (cycle + 1) as f64;
        self.last_field = synthetic_reflectivity(cycle + 1, PRODUCT, PRODUCT);
        rec.sample("pawr.obs_scanned", cycle, self.volume.obs.len() as f64);

        let t_obs = Instant::now();
        rec.trace.open("tts");
        let result = self.tts(rec, cycle);
        rec.trace.close();
        let tts_s = t_obs.elapsed().as_secs_f64();

        let failure = match result {
            Ok(decoded) => {
                if decoded != self.volume.obs {
                    self.round_trip_mismatches += 1;
                }
                self.egress
                    .encode_direct(&mut rec.trace, &self.last_field)
                    .err()
            }
            Err(e) => Some(e),
        };
        rec.trace.close();
        CycleReport { tts_s, failure }
    }

    fn finish(
        self: Box<Self>,
        _rec: &mut Recorder,
        micro: &mut BTreeMap<&'static str, f64>,
    ) -> Vec<Check> {
        let mut checks = self.egress.finish(&self.last_field, micro);
        checks.push(Check::new(
            "codec_round_trip_equals_volume",
            self.round_trip_mismatches == 0,
            format!(
                "{} cycles decoded a different volume",
                self.round_trip_mismatches
            ),
        ));
        checks
    }
}
