//! Property tests for connection-ID demux isolation: whatever order
//! datagrams arrive in, whichever shard reads them, and whatever
//! corruption rides along, shares never cross between sessions, and
//! every malformed or unroutable datagram is counted and dropped.
//!
//! Each case runs a few external-source sessions whose symbol payloads
//! are tagged with their connection ID, scatters the resulting share
//! datagrams across shards in a case-dependent order (mixed with
//! corrupted variants), and then asserts payload purity per session
//! plus exact drop accounting. A frame read by a shard that does not
//! own its connection ID is processed by the owner, and takes nothing
//! from the reader.

use std::sync::Arc;

use mcss_base::{Endpoint, SimTime};
use mcss_remicss::config::ProtocolConfig;
use mcss_remicss::engine::SourceMode;
use mcss_remicss::wire::{demux_frame, DemuxFrame, CID_PREFIX_BYTES};
use mcss_server::{ServerConfig, ShardSet};
use proptest::prelude::*;

const SYMBOL_BYTES: usize = 16;
/// Registered connection IDs; chosen to straddle shard boundaries for
/// every shard count the cases draw.
const CIDS: [u32; 3] = [1, 2, 5];
/// A connection ID no case registers.
const UNKNOWN_CID: u32 = 0xDEAD_BEEF;

fn tag(cid: u32) -> [u8; SYMBOL_BYTES] {
    [cid as u8; SYMBOL_BYTES]
}

/// Collects `symbols` tagged symbols' share datagrams from each session.
fn collect_datagrams(set: &mut ShardSet, symbols: usize) -> Vec<(u32, usize, Vec<u8>)> {
    let mut out = Vec::new();
    for round in 0..symbols {
        for (i, &cid) in CIDS.iter().enumerate() {
            let now = SimTime::from_micros((round * CIDS.len() + i) as u64);
            set.offer_symbol(now, cid, &tag(cid));
        }
    }
    for shard in 0..set.num_shards() {
        let mut drained = Vec::new();
        set.shard_mut(shard).drain_outbound(|d| {
            drained.push((d.cid, d.channel, d.bytes.clone()));
        });
        out.extend(drained);
    }
    out
}

/// Corruption kinds: 0 rewrites the connection ID to an unregistered
/// one, 1 truncates inside the prefix, 2 mutates the prefix version,
/// 3 mutates the demux magic, 4 rewrites the inner share header's
/// format byte to a codec this build has never heard of (a peer running a
/// future codec — the datagram routes fine but the share must drop
/// under its own counter, whatever codec the session itself runs),
/// 5 strips the prefix, leaving the bare frame a single-session peer
/// would send — it names no session, so a shard must drop it.
fn corrupt(datagram: &[u8], kind: usize, fuzz: usize) -> Vec<u8> {
    let mut bytes = datagram.to_vec();
    match kind {
        0 => bytes[3..7].copy_from_slice(&UNKNOWN_CID.to_be_bytes()),
        1 => bytes.truncate(fuzz % (CID_PREFIX_BYTES + 1)),
        2 => bytes[2] = bytes[2].wrapping_add(1 + (fuzz % 250) as u8),
        3 => {
            bytes[0] = b'Q';
            bytes[1] = fuzz as u8;
        }
        5 => drop(bytes.drain(..CID_PREFIX_BYTES)),
        // Byte 2 of the inner share header is its format byte.
        _ => bytes[CID_PREFIX_BYTES + 2] = 0xEE,
    }
    bytes
}

proptest! {
    #[test]
    fn demux_never_crosses_sessions_and_counts_every_drop(
        shards in 1usize..=4,
        symbols in 1usize..=3,
        order_seed in any::<u64>(),
        corruptions in collection::vec((0usize..6, any::<usize>()), 0..6),
    ) {
        let config = Arc::new(
            ProtocolConfig::new(2.0, 3.0)
                .unwrap()
                .with_symbol_bytes(SYMBOL_BYTES),
        );
        let mut set = ShardSet::new(&ServerConfig::with_shards(shards));
        for &cid in &CIDS {
            set.add_session(cid, Arc::clone(&config), 5, SourceMode::External, u64::from(cid))
                .unwrap();
            set.start(SimTime::ZERO, cid);
        }

        let clean = collect_datagrams(&mut set, symbols);
        prop_assert!(!clean.is_empty());

        // Interleave corrupted variants of real datagrams with the
        // clean ones, then deliver in a case-dependent rotation with a
        // case-dependent reading shard.
        let mut wire: Vec<(usize, Vec<u8>)> = clean
            .iter()
            .map(|(_, channel, bytes)| (*channel, bytes.clone()))
            .collect();
        let mut expect_unknown = 0u64;
        let mut expect_malformed = 0u64;
        let mut expect_unknown_codec = 0u64;
        let mut expect_legacy = 0u64;
        for (i, &(kind, fuzz)) in corruptions.iter().enumerate() {
            let (_, channel, template) = &clean[i % clean.len()];
            let mutated = corrupt(template, kind, fuzz);
            match kind {
                0 => expect_unknown += 1,
                4 => expect_unknown_codec += 1,
                5 => expect_legacy += 1,
                _ => expect_malformed += 1,
            }
            wire.push((*channel, mutated));
        }
        let rotation = (order_seed as usize) % wire.len().max(1);
        wire.rotate_left(rotation);
        // Frames each shard reads for another, and processes for
        // another: a frame names its owner by the ID in its prefix.
        let mut expect_out = vec![0u64; shards];
        let mut expect_in = vec![0u64; shards];
        for (i, (channel, bytes)) in wire.iter().enumerate() {
            let received_on = (order_seed as usize + i * 7) % shards;
            if let Ok(DemuxFrame::Cid { cid, .. }) = demux_frame(bytes) {
                let owner = set.shard_of(cid);
                if owner != received_on {
                    expect_out[received_on] += 1;
                    expect_in[owner] += 1;
                }
            }
            let now = SimTime::from_millis(1) + SimTime::from_micros(i as u64);
            set.deliver_datagram(now, *channel, Endpoint::B, bytes, received_on);
        }

        // Every clean share reached its session, so every symbol
        // reconstructs — with its own session's tag, never a peer's.
        for &cid in &CIDS {
            let owner = set.shard_of(cid);
            let mut delivered = 0usize;
            while let Some((_, payload)) = set.shard_mut(owner).pop_delivered(cid) {
                prop_assert_eq!(&payload[..], &tag(cid)[..], "cross-session delivery to {}", cid);
                delivered += 1;
            }
            prop_assert_eq!(delivered, symbols, "session {} lost symbols", cid);
        }

        let totals = set.totals();
        prop_assert_eq!(totals.dropped_unknown_cid, expect_unknown);
        prop_assert_eq!(totals.dropped_malformed, expect_malformed);
        // Unknown codec ids are their own failure mode, never folded
        // into the generic bad-frame bucket.
        prop_assert_eq!(totals.dropped_unknown_codec, expect_unknown_codec);
        prop_assert_eq!(totals.dropped_bad_frame, 0);
        prop_assert_eq!(totals.dropped_legacy, expect_legacy);
        prop_assert_eq!(totals.datagrams_received, wire.len() as u64);
        // Whichever shard read it, every detoured frame reached its
        // owner and nowhere else.
        prop_assert_eq!(totals.handoff_in, totals.handoff_out);
        for shard in 0..shards {
            let stats = set.stats(shard);
            prop_assert_eq!(stats.handoff_out, expect_out[shard], "shard {}", shard);
            prop_assert_eq!(stats.handoff_in, expect_in[shard], "shard {}", shard);
        }
    }

    /// A shard that hosts no session and reads every frame routes each to
    /// its owner and takes nothing from its own pool doing so.
    #[test]
    fn a_reader_without_sessions_detours_without_touching_its_pool(
        symbols in 1usize..=32,
    ) {
        let config = Arc::new(
            ProtocolConfig::new(2.0, 3.0)
                .unwrap()
                .with_symbol_bytes(SYMBOL_BYTES),
        );
        // Two shards; every session is odd, so shard 0 hosts none.
        const ODD: [u32; 3] = [1, 3, 5];
        let mut set = ShardSet::new(&ServerConfig::with_shards(2));
        for &cid in &ODD {
            set.add_session(cid, Arc::clone(&config), 5, SourceMode::External, u64::from(cid))
                .unwrap();
            set.start(SimTime::ZERO, cid);
        }
        let mut detoured = 0u64;
        for round in 0..symbols {
            let now = SimTime::from_micros(round as u64 * 10);
            for &cid in &ODD {
                set.offer_symbol(now, cid, &tag(cid));
                while let Some(d) = set.shard_mut(1).pop_outbound() {
                    set.deliver_datagram(now, d.channel, Endpoint::B, &d.bytes, 0);
                    set.shard_mut(1).recycle_outbound(d.bytes);
                    detoured += 1;
                }
                let (_, payload) = set.shard_mut(1).pop_delivered(cid).expect("reconstructed");
                prop_assert_eq!(&payload[..], &tag(cid)[..]);
                set.shard_mut(1).recycle_delivered(cid, payload);
            }
        }
        let reader = set.shard(0).pool();
        prop_assert_eq!(reader.hits() + reader.misses(), 0);
        prop_assert_eq!(set.stats(0).handoff_out, detoured);
        prop_assert_eq!(set.stats(1).handoff_in, detoured);
        prop_assert_eq!(set.totals().symbols_delivered, (symbols * ODD.len()) as u64);
    }
}
