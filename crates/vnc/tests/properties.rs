//! Property-based tests for the VNC substrate codecs and framebuffer.

use aroma_sim::SimTime;
use aroma_vnc::encoding::{
    decode_tile, encode_tile, read_tile_stream, rle_decode, rle_encode, write_tile_stream,
};
use aroma_vnc::protocol::{chunk_update, PushResult, Reassembler, VncMsg};
use aroma_vnc::{
    BouncingBox, Damage, Framebuffer, NoiseVideo, Rect, ScreenSource, SlideDeck, TILE,
};
use bytes::Bytes;
use proptest::prelude::*;

fn arb_tile_pixels() -> impl Strategy<Value = Vec<u16>> {
    prop_oneof![
        // Flat-ish content (RLE-friendly).
        (any::<u16>(), prop::collection::vec(0usize..TILE * TILE, 0..8)).prop_map(|(base, hits)| {
            let mut px = vec![base; TILE * TILE];
            for (i, h) in hits.into_iter().enumerate() {
                px[h] = base.wrapping_add(i as u16 + 1);
            }
            px
        }),
        // Arbitrary content.
        prop::collection::vec(any::<u16>(), TILE * TILE),
    ]
}

proptest! {
    /// RLE round-trips any pixel vector of tile size.
    #[test]
    fn rle_round_trip(px in arb_tile_pixels()) {
        let enc = rle_encode(&px);
        let dec = rle_decode(enc, px.len()).unwrap();
        prop_assert_eq!(dec, px);
    }

    /// RLE never exceeds 3 bytes per pixel and never loses a run.
    #[test]
    fn rle_size_bound(px in arb_tile_pixels()) {
        let enc = rle_encode(&px);
        prop_assert!(enc.len() <= px.len() * 3);
        prop_assert!(!enc.is_empty());
    }

    /// Best-of tile encoding round-trips and never exceeds raw size.
    #[test]
    fn tile_encoding_round_trip(px in arb_tile_pixels(), tx in 0u16..64, ty in 0u16..64) {
        let t = encode_tile(tx, ty, &px);
        prop_assert!(t.data.len() <= px.len() * 2, "encoder chose something bigger than raw");
        let dec = decode_tile(&t, px.len()).unwrap();
        prop_assert_eq!(dec, px);
        prop_assert_eq!((t.tx, t.ty), (tx, ty));
    }

    /// Tile streams round-trip any set of encoded tiles.
    #[test]
    fn tile_stream_round_trip(tiles in prop::collection::vec(arb_tile_pixels(), 0..6)) {
        let encoded: Vec<_> = tiles
            .iter()
            .enumerate()
            .map(|(i, px)| encode_tile(i as u16, (i * 3) as u16, px))
            .collect();
        let stream = write_tile_stream(&encoded);
        let parsed = read_tile_stream(stream).unwrap();
        prop_assert_eq!(parsed, encoded);
    }

    /// Chunking + reassembly is the identity for any stream length,
    /// including empty and exact-multiple-of-chunk sizes.
    #[test]
    fn chunk_reassemble_identity(len in 0usize..8000, update_id in any::<u32>()) {
        let stream = Bytes::from((0..len).map(|i| i as u8).collect::<Vec<_>>());
        let chunks = chunk_update(update_id, stream.clone());
        let mut r = Reassembler::new();
        let mut out = None;
        for c in &chunks {
            let VncMsg::UpdateChunk { update_id, seq, last, payload } = c else {
                panic!("chunk_update must emit chunks");
            };
            match r.push(*update_id, *seq, *last, payload) {
                PushResult::Complete(b) => out = Some(b),
                PushResult::Incomplete => {},
                PushResult::Gap => prop_assert!(false, "gap on in-order delivery"),
            }
        }
        prop_assert_eq!(out.expect("last chunk completes"), stream);
    }

    /// Dropping any single chunk of a multi-chunk update produces a Gap (or
    /// an incomplete update if the dropped chunk was the last).
    #[test]
    fn chunk_loss_detected(len in 3001usize..9000, drop_idx in 0usize..6) {
        let stream = Bytes::from(vec![7u8; len]);
        let chunks = chunk_update(1, stream);
        prop_assume!(chunks.len() >= 2);
        let drop_idx = drop_idx % chunks.len();
        let mut r = Reassembler::new();
        let mut completed = false;
        let mut gap = false;
        for (i, c) in chunks.iter().enumerate() {
            if i == drop_idx {
                continue;
            }
            let VncMsg::UpdateChunk { update_id, seq, last, payload } = c else { unreachable!() };
            match r.push(*update_id, *seq, *last, payload) {
                PushResult::Complete(_) => completed = true,
                PushResult::Gap => gap = true,
                PushResult::Incomplete => {}
            }
        }
        prop_assert!(!completed, "an update with a lost chunk must never complete");
        if drop_idx < chunks.len() - 1 {
            prop_assert!(gap, "an interior loss must be flagged");
        }
    }

    /// VNC messages round-trip the wire codec.
    #[test]
    fn vnc_msg_round_trip(update_id in any::<u32>(), seq in any::<u16>(), last in any::<bool>(), payload in prop::collection::vec(any::<u8>(), 0..200)) {
        let m = VncMsg::UpdateChunk { update_id, seq, last, payload: Bytes::from(payload) };
        prop_assert_eq!(VncMsg::decode(m.encode()).unwrap(), m);
    }

    /// Framebuffer tile write/read round-trips at any grid position.
    #[test]
    fn framebuffer_tile_round_trip(px in prop::collection::vec(any::<u16>(), TILE * TILE), tx in 0usize..10, ty in 0usize..8) {
        let mut fb = Framebuffer::new(160, 128);
        fb.write_tile(tx, ty, &px);
        let mut out = vec![0u16; TILE * TILE];
        fb.read_tile(tx, ty, &mut out);
        prop_assert_eq!(out, px);
    }

    /// dirty_tiles is exactly the set of tiles whose hash changed.
    #[test]
    fn dirty_tiles_soundness(writes in prop::collection::vec((0usize..10, 0usize..8, any::<u16>()), 1..12)) {
        let mut fb = Framebuffer::new(160, 128);
        let before = fb.tile_hashes();
        let mut touched = std::collections::BTreeSet::new();
        for (tx, ty, v) in writes {
            // Write a single pixel inside the tile.
            fb.set(tx * TILE + 3, ty * TILE + 5, v);
            if v != 0 {
                touched.insert(ty * fb.tiles_x() + tx);
            }
        }
        let dirty: std::collections::BTreeSet<usize> = fb.dirty_tiles(&before).into_iter().collect();
        // Every dirty tile was touched (soundness). (A touched tile may be
        // clean if the written value matched, or two writes cancelled.)
        for d in &dirty {
            prop_assert!(touched.contains(d), "tile {d} dirty but never written");
        }
    }
}

/// Every built-in screen source. Slides flip every 1.5 s and noise runs at
/// 7 fps, so random instants a few seconds apart cross changes often.
fn builtin_sources() -> Vec<Box<dyn ScreenSource>> {
    vec![
        Box::new(SlideDeck::new(1.5)),
        Box::new(BouncingBox::new()),
        Box::new(NoiseVideo::new(7.0, 11)),
    ]
}

fn drawn(src: &mut dyn ScreenSource, t: SimTime, w: usize, h: usize) -> Framebuffer {
    let mut fb = Framebuffer::new(w, h);
    src.render(t, &mut fb);
    fb
}

proptest! {
    /// Damage never under-reports: for every built-in source and screen
    /// size, `Clean` means the two instants draw the same screen, and
    /// `Rects` means every tile outside the rects hashes the same. (The
    /// server skips exactly that drawing and hashing on the strength of
    /// these answers.) Gaps mix sub-pixel animation steps, spans near one
    /// noise frame, and spans across slide flips, in either direction.
    #[test]
    fn damage_never_under_reports(
        since_us in 0u64..30_000_000,
        gap_us in prop_oneof![0u64..5_000, 0u64..400_000, 0u64..3_000_000],
        backwards in any::<bool>(),
    ) {
        let since = SimTime::from_nanos(since_us * 1_000);
        let now = if backwards {
            SimTime::from_nanos(since_us.saturating_sub(gap_us) * 1_000)
        } else {
            SimTime::from_nanos((since_us + gap_us) * 1_000)
        };
        for (w, h) in [(320, 240), (640, 480)] {
            for mut src in builtin_sources() {
                let before = drawn(src.as_mut(), since, w, h);
                let after = drawn(src.as_mut(), now, w, h);
                match src.damage(since, now, w, h) {
                    Damage::Clean => prop_assert_eq!(
                        before.digest(),
                        after.digest(),
                        "{} at {}x{}: Clean from {:?} to {:?} but the screen changed",
                        src.name(), w, h, since, now
                    ),
                    Damage::Rects(rects) => {
                        let mut touched = Vec::new();
                        after.tiles_touched_into(&rects, &mut touched);
                        for ty in 0..after.tiles_y() {
                            for tx in 0..after.tiles_x() {
                                if touched.binary_search(&(ty * after.tiles_x() + tx)).is_err() {
                                    prop_assert_eq!(
                                        before.tile_hash(tx, ty),
                                        after.tile_hash(tx, ty),
                                        "{} at {}x{}: tile ({}, {}) changed outside {:?}",
                                        src.name(), w, h, tx, ty, rects
                                    );
                                }
                            }
                        }
                    }
                    Damage::Full => {}
                }
            }
        }
    }

    /// `tiles_touched_into` is exactly the set of tiles holding at least
    /// one on-screen pixel of some rect.
    #[test]
    fn tiles_touched_is_exact(
        rects in prop::collection::vec((0usize..200, 0usize..150, 0usize..120, 0usize..120), 0..4),
    ) {
        let fb = Framebuffer::new(160, 128);
        let rects: Vec<Rect> = rects.into_iter().map(|(x, y, w, h)| Rect::new(x, y, w, h)).collect();
        let mut touched = Vec::new();
        fb.tiles_touched_into(&rects, &mut touched);
        let mut expect = std::collections::BTreeSet::new();
        for r in &rects {
            for y in r.y..(r.y + r.h).min(fb.height()) {
                for x in r.x..(r.x + r.w).min(fb.width()) {
                    expect.insert((y / TILE) * fb.tiles_x() + x / TILE);
                }
            }
        }
        prop_assert_eq!(touched, expect.into_iter().collect::<Vec<_>>());
    }
}
