//! Each split draws its own share stream, once.
//!
//! An engine splits a symbol of one direction on the stream
//! `(stream id, direction, split index)` of its host's key, where the
//! index counts the splits that direction made before. Two paths could
//! split under one index twice, and these tests show that neither does:
//!
//! * the CPU model sheds a symbol before its split, and the symbol's
//!   number goes to the next one offered: every seq on the wire is
//!   split once, on the stream of that seq;
//! * B echoes a symbol each time it completes, and a share replayed
//!   after B forgot the symbol completes it again: the second echo of a
//!   seq draws the next stream, not the first one's.
//!
//! A `(2, m)` Shamir split with coefficient plane `c` sends `s + c·x`
//! as share `x`, so its shares 1 and 2 add to `3·c`: the tests read
//! each split's draw off the wire and compare it with the stream.

use mcss_base::{Endpoint, SimTime};
use mcss_codec::{CodecId, ShareKey};
use mcss_gf256::Gf256;
use mcss_remicss::actions::{Action, Event};
use mcss_remicss::config::ProtocolConfig;
use mcss_remicss::cpu::CpuModel;
use mcss_remicss::engine::{Engine, SourceMode, Workload};
use mcss_remicss::wire::{decode_message_ref, MessageRef};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};

const CHANNELS: usize = 3;
const BYTES: usize = 64;
const SEED: u64 = 0x5eed;

/// 2-of-3 Shamir splits of `BYTES`-byte symbols.
fn config() -> ProtocolConfig {
    ProtocolConfig::new(2.0, 3.0)
        .unwrap()
        .with_symbol_bytes(BYTES)
        .with_codec(CodecId::Shamir)
}

/// One split as the wire shows it: its direction and seq, and its
/// shares 1 and 2 added, which is `3·c`.
#[derive(Debug, Clone, PartialEq)]
struct Split {
    from: Endpoint,
    seq: u64,
    plane: Vec<u8>,
}

/// The splits among `frames` (every `SendShare` frame in the order it
/// was queued; a split's shares are queued together).
fn splits(frames: &[(Endpoint, Vec<u8>)]) -> Vec<Split> {
    let mut out = Vec::new();
    let mut first: Option<(u64, Vec<u8>)> = None;
    for (from, frame) in frames {
        let Ok(MessageRef::Share(share)) = decode_message_ref(frame) else {
            panic!("a SendShare frame holds a share");
        };
        match share.x() {
            1 => first = Some((share.seq(), share.payload().to_vec())),
            2 => {
                let (seq, y1) = first.take().expect("share 1 is queued before share 2");
                assert_eq!(seq, share.seq(), "a split's shares are queued together");
                let plane = y1.iter().zip(share.payload()).map(|(a, b)| a ^ b).collect();
                out.push(Split {
                    from: *from,
                    seq,
                    plane,
                });
            }
            _ => {}
        }
    }
    out
}

/// `3·c` for the coefficient plane `c` drawn on stream 0 of `key`, in
/// direction `reverse`, at split index `index`.
fn drawn(key: &ShareKey, reverse: bool, index: u64) -> Vec<u8> {
    let mut c = [0u8; BYTES];
    key.stream(0, reverse, index).fill_bytes(&mut c);
    c.iter()
        .map(|&c| (Gf256::new(c) * Gf256::new(3)).value())
        .collect()
}

#[test]
fn a_shed_symbol_leaves_its_seq_and_its_stream_to_the_next() {
    // A sender that can take one symbol every 10 µs, offered one a µs.
    let cpu = CpuModel {
        per_symbol_ns: 10_000.0,
        per_share_ns: 0.0,
        split_per_share_byte_ns: 0.0,
        recon_per_k2_byte_ns: 0.0,
        busy_window: SimTime::from_micros(20),
    };
    let key = ShareKey::insecure_from_seed(SEED);
    let mut engine = Engine::new(config(), CHANNELS, SourceMode::External)
        .unwrap()
        .with_cpu_model(cpu)
        .with_share_key(key.clone());
    let mut rng = StdRng::seed_from_u64(SEED);
    engine.handle(SimTime::ZERO, Event::Started, &mut rng);
    let mut frames = Vec::new();
    let offered = 1_000u64;
    for t in 0..offered {
        let payload = [t as u8 | 1; BYTES];
        let now = SimTime::from_micros(t);
        engine.handle(now, Event::SymbolReady { payload: &payload }, &mut rng);
        while let Some(action) = engine.poll_action() {
            if let Action::SendShare { from, frame, .. } = action {
                frames.push((from, frame));
            }
        }
    }
    let splits = splits(&frames);
    assert!(
        splits.len() < offered as usize / 2,
        "the CPU model shed too little: {} of {offered} split",
        splits.len()
    );
    for (index, split) in splits.iter().enumerate() {
        assert_eq!(split.seq, index as u64, "a shed symbol's seq went unused");
        assert_eq!(
            split.plane,
            drawn(&key, false, split.seq),
            "seq {}",
            split.seq
        );
    }
}

/// An echo session whose frames loop straight back, with the timers it
/// sets; every `SendShare` frame is kept in `wire`.
struct Loopback {
    engine: Engine,
    rng: StdRng,
    timers: Vec<(SimTime, u64)>,
    wire: Vec<(Endpoint, Vec<u8>)>,
}

impl Loopback {
    fn pump(&mut self, now: SimTime) {
        while let Some(action) = self.engine.poll_action() {
            match action {
                Action::SendShare {
                    channel,
                    from,
                    frame,
                } => {
                    self.engine.share_send_ok(channel);
                    let to = match from {
                        Endpoint::A => Endpoint::B,
                        Endpoint::B => Endpoint::A,
                    };
                    let _ = self
                        .engine
                        .handle_frame(now, channel, to, &frame, &mut self.rng);
                    self.wire.push((from, frame));
                }
                Action::SetTimer { token, at } => self.timers.push((at, token)),
                Action::SendControl { frame, .. } => self.engine.recycle(frame),
                Action::DeliverSymbol { payload, .. } => self.engine.recycle(payload),
            }
        }
    }

    /// Fires every timer due by `end`, in time order.
    fn run_until(&mut self, end: SimTime) {
        while let Some(next) = (0..self.timers.len()).min_by_key(|&i| self.timers[i].0) {
            if self.timers[next].0 > end {
                break;
            }
            let (at, token) = self.timers.swap_remove(next);
            self.engine
                .handle(at, Event::TimerFired { token }, &mut self.rng);
            self.pump(at);
        }
    }
}

#[test]
fn a_symbol_echoed_twice_draws_two_streams() {
    let key = ShareKey::insecure_from_seed(SEED);
    let window = SimTime::from_millis(50);
    let timeout = SimTime::from_millis(10);
    let config = config().with_reassembly_timeout(timeout);
    let source = SourceMode::Paced(Workload::echo(2_000.0, window));
    let mut run = Loopback {
        engine: Engine::new(config, CHANNELS, source)
            .unwrap()
            .with_share_key(key.clone()),
        rng: StdRng::seed_from_u64(SEED),
        timers: Vec::new(),
        wire: Vec::new(),
    };
    run.engine
        .handle(SimTime::ZERO, Event::Started, &mut run.rng);
    run.pump(SimTime::ZERO);
    run.run_until(window);

    // Long after B resolved symbol 0 and forgot it, A's shares 1 and 2
    // of it arrive again (a replay, or two very late copies).
    let late = window + SimTime::from_millis(100);
    let replay: Vec<Vec<u8>> = run
        .wire
        .iter()
        .filter(|(from, _)| *from == Endpoint::A)
        .take(2)
        .map(|(_, frame)| frame.clone())
        .collect();
    for (channel, frame) in replay.iter().enumerate() {
        let _ = run
            .engine
            .handle_frame(late, channel, Endpoint::B, frame, &mut run.rng);
        run.pump(late);
    }

    let echoes: Vec<Split> = splits(&run.wire)
        .into_iter()
        .filter(|split| split.from == Endpoint::B)
        .collect();
    let again = echoes.last().expect("B echoed");
    assert_eq!(again.seq, 0, "the replay completed symbol 0 again");
    assert!(echoes.len() > 50, "only {} echoes", echoes.len());
    assert_eq!(echoes[0].seq, 0);
    assert_ne!(
        echoes[0].plane, again.plane,
        "seq 0 was echoed on one stream twice"
    );
    for (index, echo) in echoes.iter().enumerate() {
        assert_eq!(echo.plane, drawn(&key, true, index as u64), "echo {index}");
    }
}
