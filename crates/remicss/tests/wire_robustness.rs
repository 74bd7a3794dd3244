//! Robustness of the wire codec: arbitrary bytes never panic the
//! decoder, valid frames survive arbitrary field values, and any
//! mutation the decoder *accepts* re-encodes to exactly the bytes it
//! decoded from (the format is canonical — no two byte strings decode
//! to the same frame).

mod common;

use common::share_bytes;
use mcss_codec::CodecId;
use mcss_remicss::wire::{
    decode_message_ref, ControlFrame, MessageRef, ShareRef, WireError, CONTROL_BYTES, CONTROL_MAGIC,
};
use proptest::prelude::*;

/// One encoded control frame.
fn control_bytes(epoch: u32, delivered: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    ControlFrame::new(epoch, delivered).encode_into(&mut buf);
    buf
}

/// Applies byte `mutations` (index modulo the length, new value).
fn mutate(enc: &mut [u8], mutations: &[(usize, u8)]) {
    for &(idx, byte) in mutations {
        enc[idx % enc.len()] = byte;
    }
}

/// A frame the decoder accepted must re-encode to the bytes it came
/// from.
fn assert_canonical(enc: &[u8]) {
    match decode_message_ref(enc) {
        Err(_) => {}
        Ok(MessageRef::Share(r)) => {
            let again = share_bytes(
                r.codec(),
                r.seq(),
                (r.k(), r.m(), r.x()),
                r.sent_at_nanos(),
                r.payload(),
            );
            assert_eq!(again.as_slice(), enc);
        }
        Ok(MessageRef::Control(c)) => assert_eq!(control_bytes(c.epoch(), c.delivered()), enc),
    }
}

proptest! {
    #[test]
    fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Any result is fine; panicking is not.
        let _ = ShareRef::decode(&bytes);
        let _ = ControlFrame::decode(&bytes);
        let _ = decode_message_ref(&bytes);
    }

    #[test]
    fn share_frame_round_trips_arbitrary_fields(
        codec in 0usize..CodecId::ALL.len(),
        seq in any::<u64>(),
        m in 1u8..=255,
        k_off in 0u8..=254,
        x_off in 0u8..=254,
        stamp in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        let codec = CodecId::ALL[codec];
        let k = 1 + k_off % m;
        let x = 1 + x_off % m;
        let enc = share_bytes(codec, seq, (k, m, x), stamp, &payload);
        let r = ShareRef::decode(&enc).unwrap();
        prop_assert_eq!(
            (r.codec(), r.seq(), r.k(), r.m(), r.x(), r.sent_at_nanos()),
            (codec, seq, k, m, x, stamp)
        );
        prop_assert_eq!(r.payload(), payload.as_slice());
    }

    #[test]
    fn control_frame_round_trips(epoch in any::<u32>(), delivered in any::<u64>()) {
        let c = ControlFrame::new(epoch, delivered);
        let enc = control_bytes(epoch, delivered);
        prop_assert_eq!(ControlFrame::decode(&enc).unwrap(), c);
        match decode_message_ref(&enc).unwrap() {
            MessageRef::Control(got) => prop_assert_eq!(got, c),
            MessageRef::Share(_) => prop_assert!(false, "misdispatched"),
        }
    }

    #[test]
    fn truncations_of_valid_frames_error_cleanly(
        cut in 0usize..24,
        payload in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let enc = share_bytes(CodecId::Shamir, 1, (1, 1, 1), 0, &payload);
        let cut = cut.min(enc.len().saturating_sub(1));
        prop_assert!(ShareRef::decode(&enc[..cut]).is_err());
    }

    #[test]
    fn mutated_share_frames_error_or_reencode_identically(
        seq in any::<u64>(),
        m in 1u8..=8,
        k_off in 0u8..=7,
        x_off in 0u8..=7,
        stamp in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        mutations in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..16),
    ) {
        let k = 1 + k_off % m;
        let x = 1 + x_off % m;
        let mut enc = share_bytes(CodecId::Shamir, seq, (k, m, x), stamp, &payload);
        mutate(&mut enc, &mutations);
        assert_canonical(&enc);
    }

    #[test]
    fn mutated_control_frames_error_or_reencode_identically(
        epoch in any::<u32>(),
        delivered in any::<u64>(),
        mutations in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..8),
    ) {
        let mut enc = control_bytes(epoch, delivered);
        mutate(&mut enc, &mutations);
        assert_canonical(&enc);
    }

    /// Mutate, then truncate, a share frame and a control frame: the
    /// message decoder is the frame decoder the leading magic selects,
    /// verdict for verdict and error for error.
    #[test]
    fn message_dispatch_agrees_with_the_frame_decoders_on_mutations(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        epoch in any::<u32>(),
        delivered in any::<u64>(),
        mutations in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..12),
        cut in 0usize..=CONTROL_BYTES,
    ) {
        let mut share = share_bytes(CodecId::Shamir, 11, (2, 3, 2), 5, &payload);
        mutate(&mut share, &mutations);
        let mut control = control_bytes(epoch, delivered);
        mutate(&mut control, &mutations);
        control.truncate(cut);
        for enc in [&share, &control] {
            let want = if enc.len() >= 2 && enc[..2] == CONTROL_MAGIC {
                ControlFrame::decode(enc).map(MessageRef::Control)
            } else {
                ShareRef::decode(enc).map(MessageRef::Share)
            };
            prop_assert_eq!(decode_message_ref(enc), want);
        }
    }

    #[test]
    fn control_truncations_error_cleanly(
        epoch in any::<u32>(),
        delivered in any::<u64>(),
        cut in 0usize..CONTROL_BYTES,
    ) {
        let enc = control_bytes(epoch, delivered);
        prop_assert_eq!(enc.len(), CONTROL_BYTES);
        prop_assert!(ControlFrame::decode(&enc[..cut]).is_err());
        prop_assert!(decode_message_ref(&enc[..cut]).is_err());
    }

    #[test]
    fn trailing_bytes_never_decode(
        epoch in any::<u32>(),
        delivered in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        extra in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        // The decoders must consume exactly the declared frame — any
        // trailing bytes are an error, never a silent over-read.
        for codec in CodecId::ALL {
            let mut share = share_bytes(codec, 3, (1, 2, 1), 9, &payload);
            share.extend_from_slice(&extra);
            prop_assert!(ShareRef::decode(&share).is_err());
            prop_assert!(decode_message_ref(&share).is_err());
        }

        let mut control = control_bytes(epoch, delivered);
        control.extend_from_slice(&extra);
        prop_assert!(ControlFrame::decode(&control).is_err());
        prop_assert!(decode_message_ref(&control).is_err());
    }

    /// A frame from a peer that predates the single header layout:
    /// byte 2 = 2, then a codec byte ahead of the length, 25 bytes in
    /// all. The length field now reads from one byte earlier, so the
    /// frame either fails typed or happens to be a canonical XOR frame
    /// of the new layout; it never decodes as another codec's share.
    #[test]
    fn pre_change_xor_frames_fail_typed_or_stay_xor(
        seq in any::<u64>(),
        stamp in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let mut enc = vec![b'R', b'M', 2, 2, 3, 1, CodecId::Xor2d.wire_id()];
        enc.extend_from_slice(&(payload.len() as u16).to_be_bytes());
        enc.extend_from_slice(&seq.to_be_bytes());
        enc.extend_from_slice(&stamp.to_be_bytes());
        enc.extend_from_slice(&payload);
        match ShareRef::decode(&enc) {
            Ok(r) => {
                prop_assert_eq!(r.codec(), CodecId::Xor2d);
                assert_canonical(&enc);
            }
            Err(e) => prop_assert!(matches!(
                e,
                WireError::Truncated { .. }
                    | WireError::TrailingBytes { .. }
                    | WireError::InvalidShare { .. }
            )),
        }
    }

    #[test]
    fn single_bit_flips_never_panic(
        payload in proptest::collection::vec(any::<u8>(), 0..128),
        flip_byte in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let mut enc = share_bytes(CodecId::Shamir, 7, (2, 3, 1), 99, &payload);
        let idx = flip_byte % enc.len();
        enc[idx] ^= 1 << flip_bit;
        // Must either decode to *something* or error — never panic.
        let _ = decode_message_ref(&enc);
    }
}
