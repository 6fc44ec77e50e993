//! Integration: data moves losslessly through every transport layer.
//!
//! The production chain serializes a radar volume at Saitama, ships it over
//! SINET, and hands ensemble states between SCALE and the LETKF. These tests
//! drive scan → codec → pipe → decode end to end and verify the analysis is
//! identical whichever SCALE↔LETKF transport carried the states.

use bda::io::{EnsembleTransport, FileTransport, MemoryTransport};
use bda::jitdt::pipe::pipe;
use bda::pawr::{decode_volume_salvage, encode_volume, PawrSimulator, RadarConfig, ValueBounds};
use bda::scale::base::Sounding;
use bda::scale::{BaseState, ModelState};
use bda_grid::GridSpec;

fn scan_setup() -> (GridSpec, BaseState<f32>, ModelState<f32>, PawrSimulator) {
    let grid = GridSpec::reduced(12, 12, 8);
    let base = BaseState::from_sounding(&Sounding::convective(), &grid.vertical, 340.0);
    let mut state = ModelState::init_from_base(&grid, &base);
    // Some rain so the volume has structure — placed away from the radar's
    // cone of silence and below its maximum elevation.
    for k in 0..2 {
        state.qr.set(9, 6, k, 2e-3);
        state.qs.set(9, 7, k, 1e-3);
    }
    let sim = PawrSimulator::new(RadarConfig::reduced(grid.lx(), grid.ly()));
    (grid, base, state, sim)
}

#[test]
fn scan_survives_codec_and_pipe_bit_exact() {
    let (grid, base, state, sim) = scan_setup();
    let scan = sim.scan(&state, &base, &grid, 30.0, 5);
    assert!(scan.n_doppler > 0, "need Doppler obs for a meaningful test");

    let encoded = encode_volume(&scan);

    // Ship through the JIT-DT pipe on a separate thread.
    let (tx, rx) = pipe(1024, 16);
    let payload = encoded.clone();
    let h = std::thread::spawn(move || tx.send(payload).unwrap());
    let received = rx.recv().unwrap();
    h.join().unwrap();
    assert_eq!(&received[..], &encoded[..], "pipe corrupted the volume");

    let (decoded, report) =
        decode_volume_salvage::<f32>(&received, &ValueBounds::default()).unwrap();
    assert!(report.clean(), "{report:?}");
    assert_eq!(decoded.time, scan.time);
    assert_eq!(decoded.obs.len(), scan.obs.len());
    for (a, b) in decoded.obs.iter().zip(&scan.obs) {
        assert_eq!(a.kind, b.kind);
        // Codec stores f32; values were f32 already, so exact.
        assert_eq!(a.value, b.value);
        assert_eq!(a.error_sd, b.error_sd);
    }
}

#[test]
fn file_and_memory_transport_deliver_identical_states() {
    let (grid, base, state, _) = scan_setup();
    let _ = base;
    let members: Vec<Vec<f32>> = (0..4)
        .map(|m| {
            let mut s = state.clone();
            s.theta.set(m as isize, m as isize, 0, m as f32);
            s.to_flat(&bda::scale::ANALYZED_VARS)
        })
        .collect();
    let _ = grid;

    let dir = std::env::temp_dir().join(format!("bda_it_transport_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut file_t = FileTransport::new(&dir).unwrap();
    let mut mem_t = MemoryTransport::<f32>::new();

    file_t.send(&members).unwrap();
    mem_t.send(&members).unwrap();
    let via_file: Vec<Vec<f32>> = file_t.recv().unwrap();
    let via_mem: Vec<Vec<f32>> = mem_t.recv().unwrap();

    assert_eq!(via_file, members, "file path altered the states");
    assert_eq!(via_mem, members, "memory path altered the states");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analysis_is_transport_invariant() {
    use bda::letkf::{analyze_quorum_region, LetkfConfig, ObsEnsemble, StateLayout};
    use bda::pawr::operator::ensemble_equivalents;

    let (grid, base, truth, sim) = scan_setup();
    let members: Vec<ModelState<f32>> = (0..4)
        .map(|m| {
            let mut s = ModelState::init_from_base(&grid, &base);
            s.qr.set(6, 6, 3, 1e-3 * (m as f32 + 1.0));
            s
        })
        .collect();
    let scan = sim.scan(&truth, &base, &grid, 30.0, 9);
    let hx = ensemble_equivalents(&scan.obs, &members, &base, &grid, &sim.cfg, 5.0);
    let obs = ObsEnsemble::new(scan.obs, hx);

    let layout = StateLayout {
        nx: grid.nx,
        ny: grid.ny,
        nz: grid.nz(),
        nvar: bda::scale::ANALYZED_VARS.len(),
        dx: grid.dx,
        z_center: grid.vertical.z_center.clone(),
    };
    let flats: Vec<Vec<f32>> = members
        .iter()
        .map(|m| m.to_flat(&bda::scale::ANALYZED_VARS))
        .collect();

    let alive = [true; 4];
    let analyze = |flats: &mut [Vec<f32>]| {
        let cfg = LetkfConfig::reduced(4);
        analyze_quorum_region(flats, &alive, layout.clone(), &obs, &cfg, 2, None).unwrap();
    };

    // Route A: direct (memory).
    let mut flats_a = flats.clone();
    analyze(&mut flats_a);

    // Route B: states pass through the file transport first.
    let dir = std::env::temp_dir().join(format!("bda_it_inv_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut t = FileTransport::new(&dir).unwrap();
    t.send(&flats).unwrap();
    let mut flats_b: Vec<Vec<f32>> = t.recv().unwrap();
    analyze(&mut flats_b);
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(flats_a, flats_b, "analysis depended on the transport path");
}
