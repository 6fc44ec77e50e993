//! Every sealed byte format in the system opens with a four-byte magic, and
//! a reader's first act is to refuse a frame that carries somebody else's.
//! That only protects anything while the magics are pairwise distinct —
//! the egress subscriber hello and the shard halo frame once shared
//! `BDAH`. One frame of each format, through its public encoder.

use bda::io::checkpoint::{encode_snapshot, CampaignSnapshot};
use bda::io::format::encode_states;
use bda::pawr::codec::encode_volume;
use bda::pawr::scan::ScanResult;
use bda::serve::server::{FRESH_JOIN, HELLO_BYTES, HELLO_MAGIC};
use bda::serve::tile::encode_tile;
use bda::shard::{encode_halo, encode_msg, HaloFrame, NetMsg};

#[test]
fn leading_magics_are_pairwise_distinct() {
    let states = vec![vec![1.0f32, 2.0]];
    let snapshot = CampaignSnapshot {
        next_cycle: 1,
        time: 30.0,
        rng_states: vec![7],
        members: states.clone(),
        member_times: vec![30.0],
        outcomes: Vec::new(),
    };
    let scan = ScanResult::<f32> {
        time: 30.0,
        obs: Vec::new(),
        n_reflectivity: 0,
        n_doppler: 0,
        n_clear_air: 0,
        raw_bytes: 0,
    };
    // The hello has no encoder function: a subscriber assembles it from
    // the protocol's public constants.
    let mut hello = [0u8; HELLO_BYTES];
    hello[..4].copy_from_slice(HELLO_MAGIC);
    hello[4..].copy_from_slice(&FRESH_JOIN.to_be_bytes());

    let frames: [(&str, Vec<u8>); 7] = [
        ("state exchange", encode_states(&states).unwrap().to_vec()),
        ("checkpoint", encode_snapshot(&snapshot).unwrap().to_vec()),
        (
            "egress tile",
            encode_tile(0, 0, 0, 0, 1, 1, false, false, &[0])
                .unwrap()
                .to_vec(),
        ),
        ("egress hello", hello.to_vec()),
        (
            "shard socket message",
            encode_msg(&NetMsg::Hello {
                sender: 0,
                epoch: 1,
            })
            .to_vec(),
        ),
        ("radar volume", encode_volume(&scan).to_vec()),
        (
            "shard halo",
            encode_halo(&HaloFrame::<f32>::Skip { shard: 0, cycle: 0 })
                .unwrap()
                .to_vec(),
        ),
    ];
    for (i, (a, fa)) in frames.iter().enumerate() {
        assert!(fa[..4].iter().all(u8::is_ascii_uppercase), "{a}: {fa:?}");
        for (b, fb) in &frames[i + 1..] {
            assert_ne!(fa[..4], fb[..4], "`{a}` and `{b}` share a magic");
        }
    }
}
