//! Every byte format in the system opens with a four-byte magic, and a
//! reader's first act is to refuse a frame that carries somebody else's.
//! That only protects anything while the magics are pairwise distinct —
//! the egress subscriber hello and the shard halo frame once shared
//! `BDAH`. The sealed kinds come from the one enum that owns them; the two
//! formats outside the envelope (DESIGN.md, "Sealed frames") are added by
//! hand.

use bda::io::frame::Kind;
use bda::pawr::codec::encode_volume;
use bda::pawr::scan::ScanResult;
use bda::serve::server::HELLO_MAGIC;

#[test]
fn leading_magics_are_pairwise_distinct() {
    let scan = ScanResult::<f32> {
        time: 30.0,
        obs: Vec::new(),
        n_reflectivity: 0,
        n_doppler: 0,
        n_clear_air: 0,
        raw_bytes: 0,
    };
    let mut magics: Vec<(String, Vec<u8>)> = Kind::ALL
        .iter()
        .map(|k| (format!("{k:?}"), k.magic().to_vec()))
        .collect();
    magics.push(("egress hello".into(), HELLO_MAGIC.to_vec()));
    magics.push(("radar volume".into(), encode_volume(&scan)[..4].to_vec()));

    for (i, (a, ma)) in magics.iter().enumerate() {
        assert!(ma.iter().all(u8::is_ascii_uppercase), "{a}: {ma:?}");
        for (b, mb) in &magics[i + 1..] {
            assert_ne!(ma, mb, "`{a}` and `{b}` share a magic");
        }
    }
}
