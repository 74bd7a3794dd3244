//! An eavesdropper below threshold learns nothing.
//!
//! The paper's `Z(p)` counts a symbol as exposed only once the adversary
//! holds `k` of its shares. That needs every coefficient a share is
//! drawn with to be unpredictable, to the adversary too. This one is as
//! strong as it gets short of `k` shares: it reads every datagram on
//! the wire, knows every session's seed (here the connection ID, as in
//! the `UdpServer` example), and for each symbol keeps one share. It
//! replays each session's seeded generator exactly, by running a twin
//! server with the same sessions, seeds and events but all-zero
//! symbols, and adds the twin's share of the same abscissa to its own:
//! for a Shamir share `s + c₁x + …` drawn from the seeded generator,
//! that is the symbol `s`. The host must draw `c` from a stream the
//! seed does not determine, so the guess is never the symbol.
//!
//! The second test checks the streams apart from one another: the
//! coefficient plane of a `(2, m)` split is `(y₁ + y₂)/3`, so two splits
//! drew the same coefficients iff their first two shares add to the
//! same bytes. No two sessions of a host, no two hosts running the same
//! session with the same seed, and neither direction of an echo session
//! against the other may do that for the same `seq`.

use std::collections::HashMap;
use std::sync::Arc;

use mcss_base::{Endpoint, SimTime};
use mcss_codec::CodecId;
use mcss_remicss::config::ProtocolConfig;
use mcss_remicss::engine::{SourceMode, Workload};
use mcss_remicss::wire::{decode_message_ref, demux_frame, DemuxFrame, MessageRef};
use mcss_server::{ServerConfig, ShardSet};

const SESSIONS: u32 = 4;
const SYMBOLS: u64 = 200;
const BYTES: usize = 64;
const CHANNELS: usize = 3;

/// Every share a host put on the wire: `(cid, from, seq, x)` to the
/// share's payload.
type Wire = HashMap<(u32, Endpoint, u64, u8), Vec<u8>>;

/// `(κ, μ) = (2, 3)`: every symbol is split 2-of-3, so one share is
/// below threshold. Shamir whatever `MCSS_CODEC` says: one Shamir share
/// plus its coefficients is the whole symbol.
fn config() -> Arc<ProtocolConfig> {
    Arc::new(
        ProtocolConfig::new(2.0, 3.0)
            .unwrap()
            .with_codec(CodecId::Shamir),
    )
}

/// Files one datagram's share under its key.
fn record(wire: &mut Wire, from: Endpoint, datagram: &[u8]) {
    let Ok(DemuxFrame::Cid { cid, inner }) = demux_frame(datagram) else {
        panic!("a server datagram carries its connection ID");
    };
    if let Ok(MessageRef::Share(share)) = decode_message_ref(inner) {
        let key = (cid, from, share.seq(), share.x());
        assert!(wire.insert(key, share.payload().to_vec()).is_none());
    }
}

/// A fresh host of `SESSIONS` external-source sessions, connection ID
/// `cid` seeded with `cid`, each offered `SYMBOLS` symbols
/// `symbol(cid, seq)`: what it put on the wire.
fn capture(symbol: impl Fn(u32, u64) -> Vec<u8>) -> Wire {
    let mut set = ShardSet::new(&ServerConfig::with_shards(2));
    for cid in 1..=SESSIONS {
        let source = SourceMode::External;
        set.add_session(cid, config(), CHANNELS, source, u64::from(cid))
            .unwrap();
        set.start(SimTime::ZERO, cid);
    }
    let mut wire = Wire::new();
    for seq in 0..SYMBOLS {
        let now = SimTime::from_micros(100 * (seq + 1));
        for cid in 1..=SESSIONS {
            set.offer_symbol(now, cid, &symbol(cid, seq));
        }
        for shard in 0..set.num_shards() {
            while let Some(d) = set.shard_mut(shard).pop_outbound() {
                record(&mut wire, d.from, &d.bytes);
                set.shard_mut(shard).recycle_outbound(d.bytes);
            }
        }
    }
    wire
}

/// A symbol no two `(cid, seq)` share and no byte of which is zero.
fn secret(cid: u32, seq: u64) -> Vec<u8> {
    (0..BYTES as u64)
        .map(|i| {
            let h = (u64::from(cid) << 40 | seq << 8 | i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            (h >> 56) as u8 | 1
        })
        .collect()
}

fn add(a: &[u8], b: &[u8]) -> Vec<u8> {
    a.iter().zip(b).map(|(x, y)| x ^ y).collect()
}

#[test]
fn one_share_and_every_seed_recover_no_symbol() {
    let victim = capture(secret);
    let twin = capture(|_, _| vec![0; BYTES]);
    let mut recovered = 0;
    for cid in 1..=SESSIONS {
        for seq in 0..SYMBOLS {
            // Share 1 of each symbol, and the twin's share 1 of it.
            let key = (cid, Endpoint::A, seq, 1);
            let guess = add(&victim[&key], &twin[&key]);
            recovered += u64::from(guess == secret(cid, seq));
        }
    }
    assert_eq!(
        recovered,
        0,
        "one share per symbol and the seeds recovered {recovered} of {} symbols",
        u64::from(SESSIONS) * SYMBOLS
    );
}

/// The coefficient plane, times 3, of `from`'s split of `seq`.
fn plane(wire: &Wire, cid: u32, from: Endpoint, seq: u64) -> Vec<u8> {
    add(&wire[&(cid, from, seq, 1)], &wire[&(cid, from, seq, 2)])
}

#[test]
fn sessions_hosts_and_directions_draw_apart() {
    // One symbol everywhere, so equal planes could only be equal draws.
    let same = |_, _| vec![0x5a; BYTES];
    let (host, other_host) = (capture(same), capture(same));
    for seq in 0..SYMBOLS {
        for cid in 1..=SESSIONS {
            let mine = plane(&host, cid, Endpoint::A, seq);
            assert_ne!(
                mine,
                plane(&other_host, cid, Endpoint::A, seq),
                "two hosts drew alike for session {cid}, seq {seq}"
            );
            for peer in cid + 1..=SESSIONS {
                assert_ne!(
                    mine,
                    plane(&host, peer, Endpoint::A, seq),
                    "sessions {cid} and {peer} drew alike for seq {seq}"
                );
            }
        }
    }

    // An echo session over a lossless loopback: B splits every symbol
    // again, on the way back, with the same seq.
    let mut set = ShardSet::new(&ServerConfig::with_shards(1));
    let window = SimTime::from_millis(100);
    let echo = SourceMode::Paced(Workload::echo(1_000.0, window));
    set.add_session(7, config(), CHANNELS, echo, 7).unwrap();
    set.start(SimTime::ZERO, 7);
    let mut wire = Wire::new();
    let mut now = SimTime::ZERO;
    while now < window + SimTime::from_millis(50) {
        now += SimTime::from_micros(250);
        set.poll(now);
        while let Some(d) = set.shard_mut(0).pop_outbound() {
            record(&mut wire, d.from, &d.bytes);
            let to = match d.from {
                Endpoint::A => Endpoint::B,
                Endpoint::B => Endpoint::A,
            };
            set.deliver_datagram(now, d.channel, to, &d.bytes, 0);
            set.shard_mut(0).recycle_outbound(d.bytes);
        }
    }
    let echoed: Vec<u64> = (0..)
        .take_while(|&seq| wire.contains_key(&(7, Endpoint::B, seq, 1)))
        .collect();
    assert!(echoed.len() > 50, "only {} symbols echoed", echoed.len());
    for seq in echoed {
        assert_ne!(
            plane(&wire, 7, Endpoint::A, seq),
            plane(&wire, 7, Endpoint::B, seq),
            "both directions drew alike for seq {seq}"
        );
    }
}
