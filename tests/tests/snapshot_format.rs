//! Hostile-input gate for the snapshot layout (DESIGN.md §3g): the varint
//! codec, the Rice-coded graph in-rows, the run-length planes, the
//! bit-packed placement section and the snapshot file itself, each fed
//! crafted or damaged bytes through the public decoders. Every case must
//! end in a typed error — before any allocation sized by the bad value —
//! and never in a panic or a half-valid state.

use std::path::PathBuf;
use std::time::Duration;

use geodur::snapshot::{load_latest, snapshot_paths, write};
use geodur::{DurableError, Snapshot};
use geograph::generators::preferential::preferential_attachment_edges;
use geograph::wire::{decode_graph, encode_graph, fnv1a, put_varint, BitWriter, Reader, WireError};
use geograph::{GeoGraph, Graph, GraphBuilder, LocalityConfig};
use geopart::snapshot::placement_from_bytes;
use geopart::TrafficProfile;
use geosim::regions::ec2_eight_regions;
use rlcut::{DurableAdaptive, RlCutConfig};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rlcut_snapfmt_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn varint(x: u64) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, x).unwrap();
    out
}

fn decode_full(bytes: &[u8]) -> Result<Graph, WireError> {
    let mut r = Reader::new(bytes);
    let g = decode_graph(&mut r)?;
    r.finish()?;
    Ok(g)
}

fn malformed<T>(got: Result<T, WireError>, what: &str) {
    match got {
        Err(WireError::Malformed(msg)) => assert_eq!(msg, what),
        Err(other) => panic!("expected {what}, got {other:?}"),
        Ok(_) => panic!("expected {what}, decoded"),
    }
}

// ---- the LEB128 codec ------------------------------------------------------

#[test]
fn varint_round_trips_at_every_length() {
    // 1-, 2-, 3-, 5- (u32::MAX), 6-, 9- and 10-byte (u64::MAX) encodings.
    let cases: [(u64, usize); 9] = [
        (0, 1),
        (127, 1),
        (128, 2),
        (16_383, 2),
        (16_384, 3),
        (u32::MAX as u64, 5),
        (1 << 35, 6),
        (u64::MAX >> 1, 9),
        (u64::MAX, 10),
    ];
    for (x, len) in cases {
        let buf = varint(x);
        assert_eq!(buf.len(), len, "{x}");
        let mut r = Reader::new(&buf);
        assert_eq!(r.varint().unwrap(), x);
        r.finish().unwrap();
        for cut in 0..buf.len() {
            assert!(matches!(Reader::new(&buf[..cut]).varint(), Err(WireError::Truncated)));
        }
    }
    assert!(matches!(Reader::new(&[0xff; 5]).varint_u32(), Err(WireError::Truncated)));
    malformed(Reader::new(&varint(1 << 32)).varint_u32(), "varint exceeds u32");
}

#[test]
fn non_canonical_varints_rejected() {
    // Overlong: 0 and 1 padded with a continuation byte.
    for bad in [&[0x80u8, 0x00][..], &[0x81, 0x00], &[0xff, 0x80, 0x00]] {
        malformed(Reader::new(bad).varint(), "overlong varint");
    }
    // Bits past the 64th: a tenth byte above 1, and an eleventh byte.
    let mut wide = vec![0xffu8; 9];
    wide.push(0x02);
    malformed(Reader::new(&wide).varint(), "varint exceeds 64 bits");
    malformed(Reader::new(&[0xff; 11]).varint(), "varint exceeds 64 bits");
}

// ---- graph rows ------------------------------------------------------------

/// A hand-built graph blob: header, then one bit section holding each row
/// as `gamma(len)`, a Rice parameter (`k_of` the one the row derives) and
/// the coded values as given — the first id, then each gap − 1.
fn crafted_with(n: u64, m: u64, k_of: impl Fn(u32) -> u32, rows: &[&[u32]]) -> Vec<u8> {
    let mut out = b"graph_v4".to_vec();
    out.extend(varint(n));
    out.extend(varint(m));
    let mut bits = BitWriter::new(&mut out);
    for row in rows {
        bits.gamma(row.len() as u32).unwrap();
        if !row.is_empty() {
            let mean = row.iter().map(|&x| x as u64).sum::<u64>() / row.len() as u64;
            let k = k_of(mean.checked_ilog2().unwrap_or(0));
            bits.bits(k as u64, 5).unwrap();
            row.iter().for_each(|&x| bits.rice(x, k).unwrap());
        }
    }
    bits.finish().unwrap();
    out
}

fn crafted(n: u64, m: u64, rows: &[&[u32]]) -> Vec<u8> {
    crafted_with(n, m, |k| k, rows)
}

fn ring() -> Graph {
    let mut b = GraphBuilder::new(6);
    b.add_edges([(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]);
    b.build()
}

fn graph_bytes(g: &Graph) -> Vec<u8> {
    let mut out = Vec::new();
    encode_graph(g, &mut out).unwrap();
    out
}

#[test]
fn structural_corruption_rejected() {
    // A well-formed twin first, so the crafting helper itself is pinned:
    // vertex 0's in-row is [1, 2] (coded 1, then gap − 1 = 0), vertex 2's
    // is [0].
    let twin = decode_full(&crafted(3, 3, &[&[1, 0], &[], &[0]])).unwrap();
    assert_eq!(twin.edges().collect::<Vec<_>>(), [(0, 2), (1, 0), (2, 0)]);
    // A duplicate has no spelling (a gap − 1 is never negative); an id at
    // or past n has one, and is refused.
    for row in [&[3u32][..], &[1, 1], &[u32::MAX]] {
        let m = row.len() as u64;
        malformed(decode_full(&crafted(3, m, &[row, &[], &[]])), "edge endpoint out of range");
    }
    malformed(decode_full(&crafted(3, 1, &[&[1, 0], &[], &[]])), "row longer than its bound");
    malformed(
        decode_full(&crafted(3, 3, &[&[1], &[], &[0]])),
        "row lengths fall short of the declared edge count",
    );
    // A length no edge budget can hold: refused inside its unary prefix,
    // before the value is built.
    let mut bytes = crafted(2, 1, &[]);
    let mut bits = BitWriter::new(&mut bytes);
    bits.gamma(u32::MAX).unwrap();
    bits.finish().unwrap();
    malformed(decode_full(&bytes), "row longer than its bound");
    malformed(decode_full(&crafted(u32::MAX as u64, 0, &[])), "graph vertex count");
    // Every row has one accepted Rice parameter: the one it derives.
    for k_of in [|k: u32| k + 1, |k: u32| k.saturating_sub(1) + 3] {
        malformed(
            decode_full(&crafted_with(3, 3, k_of, &[&[1, 0], &[], &[0]])),
            "rice parameter is not the one the row derives",
        );
    }
    // And one accepted padding: the twin's last byte with a spare bit set.
    let mut bytes = crafted(3, 3, &[&[1, 0], &[], &[0]]);
    *bytes.last_mut().unwrap() |= 0x80;
    malformed(decode_full(&bytes), "padding bits are not zero");
}

#[test]
fn older_graph_layouts_are_a_typed_error() {
    // v1 led with the vertex count (then an edge list), v2 with its own
    // magic, v3 with its own magic and varint out-rows (here the edge
    // 0 -> 1: n 2, m 1, row 0 of degree 1 holding 1, row 1 empty).
    let mut v1 = 6u64.to_le_bytes().to_vec();
    v1.extend_from_slice(&1u64.to_le_bytes());
    v1.extend_from_slice(&[0, 0, 0, 0, 1, 0, 0, 0]);
    let mut v2 = b"graph_v2".to_vec();
    v2.extend_from_slice(&[0; 17]);
    let mut v3 = b"graph_v3".to_vec();
    v3.extend_from_slice(&[2, 1, 1, 1, 0]);
    for old in [v1, v2, v3] {
        malformed(decode_full(&old), "graph magic");
    }
}

#[test]
fn oversized_counts_fail_before_allocation() {
    // Declared n or m beyond what the remaining bytes could encode:
    // Truncated from the header check, no row is read or reserved.
    let rows = graph_bytes(&ring()).split_off(10);
    for (n, m) in [(1u64 << 31, 0u64), (6, u64::MAX >> 1), (6, u64::MAX), (1 << 20, 1 << 40)] {
        let mut bytes = crafted(n, m, &[]);
        bytes.extend_from_slice(&rows);
        assert!(matches!(decode_full(&bytes), Err(WireError::Truncated)), "n {n} m {m}");
    }
}

#[test]
fn graph_truncations_and_bit_flips_never_panic() {
    let g = ring();
    let bytes = graph_bytes(&g);
    for len in 0..bytes.len() {
        assert!(decode_full(&bytes[..len]).is_err(), "len {len} decoded");
    }
    for i in 0..bytes.len() * 8 {
        let mut bad = bytes.clone();
        bad[i / 8] ^= 1 << (i % 8);
        // No checksum at this layer: a flip may decode to another valid
        // graph, but never to `g` and never by panicking.
        assert!(decode_full(&bad).map_or(true, |other| other != g), "flip {i}");
    }
}

// ---- run-length planes -----------------------------------------------------

#[test]
fn runs_must_cover_the_vertex_count_exactly() {
    let blob = |runs: &[(u64, u64)], declared: u64| {
        let mut out = varint(declared);
        for &(v, len) in runs {
            out.extend(varint(v));
            out.extend(varint(len));
        }
        out
    };
    let decode = |bytes: &[u8]| Reader::new(bytes).runs(6, Reader::varint);
    assert_eq!(decode(&blob(&[(7, 4), (9, 2)], 2)).unwrap(), [7, 7, 7, 7, 9, 9]);
    for bad in [
        blob(&[(7, 4), (9, 1)], 2), // under-cover
        blob(&[(7, 4), (9, 3)], 2), // over-cover
        blob(&[(7, 6), (9, 0)], 2), // empty run
        blob(&[(7, u64::MAX)], 1),  // a run no vertex count holds
        blob(&[], 0),               // no runs at all
    ] {
        malformed(decode(&bad), "run lengths do not cover the vertex count");
    }
    // More runs declared than the bytes left could spell.
    assert!(matches!(decode(&blob(&[(7, 6)], 1 << 40)), Err(WireError::Truncated)));
    assert!(matches!(decode(&blob(&[(7, 4)], 2)), Err(WireError::Truncated)));
}

// ---- the placement section -------------------------------------------------

#[test]
fn hostile_placement_sections_rejected() {
    // Two vertices over M = 3 with the edges 0 -> 1 and 1 -> 0, and a
    // placement hand-written so every byte is addressable: header, the
    // masters section (two 2-bit fields, vertex 0 lowest), the is_high
    // bitmap, the two profile planes (one run of 8 B = 2048 load units
    // each). No count and no load travels.
    let geo = GeoGraph::new(Graph::from_edges(2, &[(0, 1), (1, 0)]), vec![0, 2], vec![1, 1], 3);
    let blob = |n: u64, m: u64, masters: u8, bitmap: u8| {
        let mut out = varint(n);
        out.extend(varint(m));
        out.extend_from_slice(&[0; 16]);
        out.push(masters);
        out.push(bitmap);
        for _ in 0..2 {
            out.extend(varint(1));
            out.extend(varint(2048));
            out.extend(varint(2));
        }
        out
    };
    let decode = |bytes: Vec<u8>| placement_from_bytes(&bytes, &geo);

    // Both low: each edge sits at its destination's master.
    let low = decode(blob(2, 3, 0b10_00, 0)).unwrap();
    assert_eq!((low.out_count(0, 2), low.in_count(1, 2)), (1, 1));
    assert_eq!((low.out_count(1, 0), low.in_count(0, 0)), (1, 1));
    assert_eq!((low.mirror_mask(0), low.mirror_mask(1)), (0b100, 0b001));
    assert_eq!(low.edges_per_dc(), &[1, 0, 1][..]);
    // Vertex 1 high by the bitmap, not by any θ: its in-edge 0 -> 1 moves
    // to the source's master, and vertex 0 keeps no mirror.
    let high = decode(blob(2, 3, 0b10_00, 0b10)).unwrap();
    assert_eq!((high.out_count(0, 0), high.in_count(1, 0)), (1, 1));
    assert_eq!((high.in_count(1, 2), high.out_count(0, 2)), (0, 0));
    assert_eq!((high.mirror_mask(0), high.mirror_mask(1)), (0, 0b001));
    assert_eq!(high.edges_per_dc(), &[2, 0, 0][..]);
    assert_eq!((high.is_high(0), high.is_high(1)), (false, true));

    // A vertex or DC count that is not the decoded geo's is refused
    // before any count is derived from the graph.
    for (n, m) in [(3, 3), (1, 3), (2, 2), (2, 4)] {
        malformed(decode(blob(n, m, 0, 0)), "placement does not match geo");
    }
    for m in [0, 65] {
        malformed(decode(blob(2, m, 0, 0)), "DC count out of range");
    }
    malformed(decode(blob(2, 3, 0b11_00, 0)), "master out of range");
    // Both sections end in zero padding.
    malformed(decode(blob(2, 3, 0b01_10_00, 0)), "padding bits are not zero");
    malformed(decode(blob(2, 3, 0b10_00, 0b100)), "padding bits are not zero");
    // A vertex costs at least its is_high bit: a count the remaining bytes
    // cannot back fails before any allocation.
    let short = blob(2, 3, 0b10_00, 0);
    assert!(matches!(decode(blob(1 << 40, 3, 0b10_00, 0)), Err(WireError::Truncated)));
    assert!(matches!(decode(short[..short.len() - 1].to_vec()), Err(WireError::Truncated)));
}

// ---- the snapshot file -----------------------------------------------------

/// A real snapshot: a trained, committed window of a 300-vertex pipeline,
/// cut by `snapshot_now`. Returns the store directory and the file's bytes.
fn real_snapshot(tag: &str) -> (PathBuf, Vec<u8>) {
    let n = 300;
    let mut b = GraphBuilder::new(n);
    b.add_edges(preferential_attachment_edges(n, 3, 31));
    let geo = GeoGraph::from_graph(b.build(), &LocalityConfig::paper_default(31));
    let env = ec2_eight_regions();
    let dir = tmp_dir(tag);
    let config = RlCutConfig::new(1.0)
        .with_seed(31)
        .with_threads(1)
        .with_theta(8)
        .with_fixed_sample_rate(0.2)
        .with_max_steps(2);
    let mut durable = DurableAdaptive::create(&dir, config, Some(0.4), geo, &env, 0).unwrap();
    let profile = TrafficProfile::uniform(n, 8.0);
    durable.window(&env, None, &[], &[], profile, 10.0, Duration::from_secs(60)).unwrap();
    let size = durable.snapshot_now().unwrap();
    let (_, path) = snapshot_paths(&dir).unwrap().pop().unwrap();
    let bytes = std::fs::read(path).unwrap();
    assert_eq!(bytes.len() as u64, size);
    (dir, bytes)
}

#[test]
fn real_snapshot_survives_no_truncation_and_no_bit_flip() {
    let (dir, bytes) = real_snapshot("damage");
    let snap = Snapshot::from_bytes(&bytes).unwrap();
    assert!(snap.placement.is_some());
    for len in 0..bytes.len() {
        assert!(Snapshot::from_bytes(&bytes[..len]).is_err(), "len {len} decoded");
    }
    for i in (0..bytes.len()).step_by(7) {
        let mut bad = bytes.clone();
        bad[i] ^= 1 << (i % 8);
        assert!(Snapshot::from_bytes(&bad).is_err(), "flip at {i} decoded");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn streamed_file_equals_to_bytes() {
    // The buffered, block-checksummed file sink and the in-memory encoder
    // are one encoder: the file `snapshot_now` streamed from the live state
    // is what `to_bytes` builds from the decoded form, and writing that
    // form again reproduces it with the same reported size.
    let (dir, bytes) = real_snapshot("streamed");
    let snap = Snapshot::from_bytes(&bytes).unwrap();
    assert_eq!(snap.as_ref().to_bytes().unwrap(), bytes);
    let other = tmp_dir("streamed_again");
    let (path, size) = write(&other, snap.as_ref()).unwrap();
    assert_eq!(std::fs::read(path).unwrap(), bytes);
    assert_eq!(size, bytes.len() as u64);
    for d in [dir, other] {
        std::fs::remove_dir_all(&d).ok();
    }
}

#[test]
fn a_graph_the_wire_cannot_carry_leaves_no_file_behind() {
    let (dir, bytes) = real_snapshot("dup");
    let mut snap = Snapshot::from_bytes(&bytes).unwrap();
    snap.placement = None;
    snap.lsn += 1;
    snap.geo.graph = Graph::from_edges(300, &[(0, 1), (0, 1)]);
    let before = std::fs::read_dir(dir.join("snap")).unwrap().count();
    match write(&dir, snap.as_ref()) {
        Err(DurableError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput),
        other => panic!("expected InvalidInput, got {other:?}"),
    }
    assert_eq!(std::fs::read_dir(dir.join("snap")).unwrap().count(), before);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn older_snapshot_versions_are_typed_and_skipped() {
    // A checksum-valid file of another version: typed at decode, skipped
    // like any undecodable candidate at load. Version 3 stored the count
    // plane that version 4 rebuilds, version 4 wrote varint out-rows and
    // byte-wide DC ids where version 5 bit-codes them, and version 5 stored
    // the f64 stage loads that version 6 rebuilds from integer units; no
    // older decoder is kept.
    let (dir, bytes) = real_snapshot("old_version");
    let lsn = Snapshot::from_bytes(&bytes).unwrap().lsn;
    for (i, version) in [2u32, 3, 4, 5].into_iter().enumerate() {
        let mut old = bytes[..bytes.len() - 8].to_vec();
        old[4..8].copy_from_slice(&version.to_le_bytes());
        let sum = fnv1a(&old);
        old.extend_from_slice(&sum.to_le_bytes());
        match Snapshot::from_bytes(&old) {
            Err(DurableError::UnsupportedVersion { version: v, .. }) => assert_eq!(v, version),
            other => panic!("version {version}: expected UnsupportedVersion, got {other:?}"),
        }
        std::fs::write(dir.join(format!("snap/snap-{:020}.snap", lsn + 1 + i as u64)), &old)
            .unwrap();
    }
    let (snap, stats) = load_latest(&dir).unwrap();
    assert_eq!((snap.lsn, stats.skipped), (lsn, 4));
    std::fs::remove_dir_all(&dir).ok();
}
