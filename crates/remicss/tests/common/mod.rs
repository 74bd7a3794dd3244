//! Frame builders shared by the integration tests: shares reach the
//! decoder and the reassembly table the way the engine sends them,
//! header and payload written into one buffer.

#![allow(dead_code)]

use mcss_codec::{CodecId, CodecScratch};
use mcss_remicss::wire::put_share_header_for;
use rand::Rng;

/// One encoded share frame: header for `codec`, then `payload`.
pub fn share_bytes(
    codec: CodecId,
    seq: u64,
    (k, m, x): (u8, u8, u8),
    sent_at_nanos: u64,
    payload: &[u8],
) -> Vec<u8> {
    let mut buf = Vec::new();
    put_share_header_for(&mut buf, codec, seq, k, m, x, sent_at_nanos, payload.len())
        .expect("valid share parameters");
    buf.extend_from_slice(payload);
    buf
}

/// The `m` encoded share frames of symbol `seq`, in abscissa order,
/// drawing the split's randomness from `rng`.
pub fn symbol_frames<R: Rng + ?Sized>(
    codec: CodecId,
    seq: u64,
    (k, m): (u8, u8),
    payload: &[u8],
    rng: &mut R,
) -> Vec<Vec<u8>> {
    let mut outs = vec![Vec::new(); usize::from(m)];
    codec
        .split_into(payload, k, m, rng, &mut CodecScratch::new(), &mut outs)
        .expect("valid split parameters");
    (1..=m)
        .zip(&outs)
        .map(|(x, data)| share_bytes(codec, seq, (k, m, x), 0, data))
        .collect()
}
