//! A subscriber that stops reading until the server's writes would
//! block, then drains. The fan-out writes each batch of queued messages
//! with one vectored write, so back-pressure ends writes at arbitrary
//! byte offsets inside a batch; across all of them the subscriber must
//! still receive every frame once, in sequence order, and the server's
//! ACK fold must end on the last one.

use bda_num::rng::SplitMix64;
use bda_serve::server::{NowcastServer, ServeConfig, FRESH_JOIN, HELLO_MAGIC, MSG_HEADER_BYTES};
use bda_serve::tile::{decode_tile, QuantGrid, TileAssembler, TileConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Product edge, in cells: the paper's 256×256.
const N: usize = 256;

/// A field that changes in every cell every cycle, so its frames barely
/// compress and fill the socket buffers within a few dozen cycles.
fn noisy_field(cycle: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(cycle ^ 0xB10C);
    (0..N * N).map(|_| rng.uniform_in(-30.0, 97.0)).collect()
}

/// Read every message until `expected` arrived: each seq must be the next
/// one, each frame must decode and fold into the tile state, and each is
/// ACKed as it lands. Returns the assembled tiles, and the socket, which
/// stays open until the server has shut down.
fn drain(mut stream: TcpStream, expected: u64) -> (TileAssembler, TcpStream) {
    let mut tiles = TileAssembler::new();
    for want in 0..expected {
        let mut header = [0u8; MSG_HEADER_BYTES];
        stream.read_exact(&mut header).expect("message header");
        let (seq, len) = header.split_at(8);
        let seq = u64::from_be_bytes(seq.try_into().unwrap());
        let len = u32::from_be_bytes(len.try_into().unwrap()) as usize;
        assert_eq!(seq, want, "messages arrive once each, in order");
        let mut frame = vec![0u8; len];
        stream.read_exact(&mut frame).expect("message frame");
        let frame = decode_tile(&frame).expect("every frame decodes");
        tiles.apply(&frame).expect("every delta has its base");
        stream.write_all(&seq.to_be_bytes()).expect("ACK");
    }
    (tiles, stream)
}

#[test]
fn a_blocked_subscriber_gets_every_frame_in_order_once_it_drains() {
    let cfg = ServeConfig {
        tile: TileConfig::default(),
        queue_frames: 1 << 20,
        ack_lag: u64::MAX,
    };
    let mut server = NowcastServer::bind(cfg).expect("bind");
    let mut client = TcpStream::connect(server.local_addr()).expect("connect");
    let mut hello = HELLO_MAGIC.to_vec();
    hello.extend_from_slice(&FRESH_JOIN.to_be_bytes());
    client.write_all(&hello).expect("hello");
    client
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");

    // Publish until the subscriber is admitted: it joins on a key-frame
    // snapshot of that cycle, as many frames as a cycle's delta stream.
    let mut cycle = 0u64;
    let mut expected = 0u64;
    let t0 = Instant::now();
    while server.client_count() == 0 {
        assert!(t0.elapsed() < Duration::from_secs(10), "never admitted");
        let report = server
            .publish(cycle, &noisy_field(cycle), N, N, false)
            .expect("publish");
        cycle += 1;
        if report.joined_snapshot == 1 {
            expected += report.frames as u64;
        } else {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    // Then until the socket refuses bytes: a pump leaves frames queued.
    loop {
        assert!(cycle < 400, "the socket never filled");
        let report = server
            .publish(cycle, &noisy_field(cycle), N, N, false)
            .expect("publish");
        expected += report.frames as u64;
        cycle += 1;
        if server.pump_all() > 0 {
            break;
        }
    }
    assert_eq!(server.client_count(), 1, "nobody was evicted while blocked");

    let reader = std::thread::spawn(move || drain(client, expected));
    let t0 = Instant::now();
    while !(server.pump_all() == 0 && server.fully_acked()) {
        assert!(t0.elapsed() < Duration::from_secs(20), "never fully ACKed");
        std::thread::yield_now();
    }
    let (tiles, _client) = reader.join().expect("the reader verified every message");

    // The assembled native-zoom tiles are the last field, quantized.
    let last = QuantGrid::quantize(&noisy_field(cycle - 1), N, N).expect("quantize");
    let tile = TileConfig::default().tile;
    for ty in 0..N / tile {
        for tx in 0..N / tile {
            let cells = tiles
                .tile(0, tx as u16, ty as u16)
                .expect("every tile established");
            for (row, got) in cells.chunks(tile).enumerate() {
                let at = (ty * tile + row) * N + tx * tile;
                assert_eq!(got, &last.q[at..at + tile], "tile ({tx}, {ty}) row {row}");
            }
        }
    }

    let report = server.shutdown(Duration::from_secs(1));
    let row = &report.outcomes[0];
    assert_eq!(
        (row.enqueued, row.delivered, row.acked, row.evicted),
        (expected, expected, Some(expected - 1), None)
    );
}
