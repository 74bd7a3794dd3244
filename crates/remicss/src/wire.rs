//! The ReMICSS wire format: one share per frame.
//!
//! Every share frame has one 24-byte header, whatever codec made the
//! share:
//!
//! ```text
//!  0      2    3    4    5    6        8                16               24
//!  +------+----+----+----+----+--------+----------------+----------------+
//!  | magic| fmt| k  | m  | x  | length | symbol seq     | send timestamp |
//!  +------+----+----+----+----+--------+----------------+----------------+
//!  | share payload (length bytes) …                                      |
//!  +----------------------------------------------------------------------+
//! ```
//!
//! Byte 2 is the frame's *format byte*, `1 +` [`CodecId::wire_id`]: it
//! says which codec made the payload, and since nothing else about the
//! layout depends on the codec it needs no separate codec byte. An
//! unassigned format byte fails with the typed
//! [`WireError::UnknownCodec`], so the engine and server shards drop
//! the frame under its own counter instead of panicking or routing the
//! share into another codec's reassembly entry.
//!
//! Frames are written and read in place: [`put_share_header_for`]
//! appends a header to a pooled buffer the codec then appends the
//! payload to, and [`ShareRef::decode`] borrows the payload from the
//! receive buffer.
//!
//! The timestamp carries the sender's clock at symbol transmission and
//! lets the receiver compute one-way latency without a side channel
//! (both hosts share the simulated clock).
//!
//! Receiver feedback is one fixed-size control frame:
//!
//! ```text
//!  0      2    3            7                    15
//!  +------+----+------------+--------------------+
//!  | "RC" | v=1| epoch      | delivered symbols  |
//!  +------+----+------------+--------------------+
//! ```
//!
//! # Connection-ID demux prefix
//!
//! When many sessions share one UDP socket (the `mcss-server` shards),
//! frames carry a 7-byte demux prefix ahead of the inner share/control
//! frame:
//!
//! ```text
//!  0      2    3            7
//!  +------+----+------------+------------------------------+
//!  | "RX" | ver| conn id    | inner frame ("RM"/"RC" …)    |
//!  +------+----+------------+------------------------------+
//! ```
//!
//! [`demux_frame`] strips the prefix; bare `"RM"`/`"RC"` frames are
//! still accepted as [`DemuxFrame::Legacy`], the versioned fallback for
//! single-session peers that predate the prefix.

use mcss_codec::CodecId;

/// Size of the fixed share-frame header in bytes.
pub const HEADER_BYTES: usize = 24;

/// Frame magic, `b"RM"`.
pub const MAGIC: [u8; 2] = *b"RM";

/// Version of the control frame this implementation speaks.
pub const VERSION: u8 = 1;

/// Header size a share of `codec` is framed with. Every codec shares
/// [`HEADER_BYTES`] today; callers that price a share ask per codec so
/// that they do not have to know that.
#[must_use]
pub fn header_bytes(_codec: CodecId) -> usize {
    HEADER_BYTES
}

/// A share frame decoded *in place*: every field is read out of the
/// receive buffer, the payload stays borrowed, and nothing allocates.
///
/// # Examples
///
/// ```
/// use mcss_codec::CodecId;
/// use mcss_remicss::wire::{put_share_header_for, ShareRef};
///
/// let mut frame = Vec::new();
/// put_share_header_for(&mut frame, CodecId::from_env(), 7, 2, 3, 1, 123456, 16)?;
/// frame.extend_from_slice(&[0xaa; 16]);
/// let share = ShareRef::decode(&frame)?;
/// assert_eq!((share.seq(), share.k(), share.m(), share.x()), (7, 2, 3, 1));
/// assert_eq!(share.payload(), &[0xaa; 16]);
/// # Ok::<(), mcss_remicss::wire::WireError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShareRef<'a> {
    seq: u64,
    k: u8,
    m: u8,
    x: u8,
    codec: CodecId,
    sent_at_nanos: u64,
    payload: &'a [u8],
}

impl<'a> ShareRef<'a> {
    /// Parses a frame without copying the payload; the format byte
    /// names the codec.
    ///
    /// # Errors
    ///
    /// - [`WireError::Truncated`] if the buffer is shorter than the
    ///   header or the declared payload length.
    /// - [`WireError::BadMagic`] for foreign frames.
    /// - [`WireError::UnknownCodec`] for a format byte nobody speaks.
    /// - [`WireError::InvalidShare`] for inconsistent `(k, m, x)`.
    /// - [`WireError::TrailingBytes`] if the buffer is longer than the
    ///   declared frame.
    pub fn decode(buf: &'a [u8]) -> Result<Self, WireError> {
        if buf.len() < HEADER_BYTES {
            return Err(WireError::Truncated {
                have: buf.len(),
                need: HEADER_BYTES,
            });
        }
        if buf[0..2] != MAGIC {
            return Err(WireError::BadMagic {
                found: [buf[0], buf[1]],
            });
        }
        let Some(codec) = buf[2].checked_sub(1).and_then(CodecId::from_wire) else {
            return Err(WireError::UnknownCodec { found: buf[2] });
        };
        let k = buf[3];
        let m = buf[4];
        let x = buf[5];
        if k == 0 || k > m || x == 0 || x > m {
            return Err(WireError::InvalidShare { k, m, x });
        }
        let len = u16::from_be_bytes([buf[6], buf[7]]) as usize;
        let seq = u64::from_be_bytes(buf[8..16].try_into().expect("8 bytes"));
        let sent_at_nanos = u64::from_be_bytes(buf[16..24].try_into().expect("8 bytes"));
        let need = HEADER_BYTES + len;
        if buf.len() < need {
            return Err(WireError::Truncated {
                have: buf.len(),
                need,
            });
        }
        if buf.len() > need {
            return Err(WireError::TrailingBytes {
                extra: buf.len() - need,
            });
        }
        Ok(ShareRef {
            seq,
            k,
            m,
            x,
            codec,
            sent_at_nanos,
            payload: &buf[HEADER_BYTES..need],
        })
    }

    /// The symbol sequence number.
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The threshold `k` for this symbol.
    #[must_use]
    pub fn k(&self) -> u8 {
        self.k
    }

    /// The multiplicity `m` for this symbol.
    #[must_use]
    pub fn m(&self) -> u8 {
        self.m
    }

    /// The share abscissa (1-based).
    #[must_use]
    pub fn x(&self) -> u8 {
        self.x
    }

    /// The codec that produced this share.
    #[must_use]
    pub fn codec(&self) -> CodecId {
        self.codec
    }

    /// Sender clock at transmission, in nanoseconds.
    #[must_use]
    pub fn sent_at_nanos(&self) -> u64 {
        self.sent_at_nanos
    }

    /// The share payload, borrowed from the receive buffer.
    #[must_use]
    pub fn payload(&self) -> &'a [u8] {
        self.payload
    }
}

/// Appends a share-frame header to `buf`, declaring `payload_len`
/// payload bytes that the caller writes right after (e.g. via
/// [`CodecId::split_into`] straight into the same buffer).
///
/// Writing header and payload into one pooled buffer is what removes
/// the encode-and-copy step from the sender: the buffer *is* the wire
/// frame.
///
/// # Errors
///
/// [`WireError::InvalidShare`] unless `1 ≤ k ≤ m` and `1 ≤ x ≤ m`;
/// [`WireError::PayloadTooLarge`] if `payload_len` exceeds `u16::MAX`.
#[allow(clippy::too_many_arguments)]
pub fn put_share_header_for(
    buf: &mut Vec<u8>,
    codec: CodecId,
    seq: u64,
    k: u8,
    m: u8,
    x: u8,
    sent_at_nanos: u64,
    payload_len: usize,
) -> Result<(), WireError> {
    if k == 0 || k > m || x == 0 || x > m {
        return Err(WireError::InvalidShare { k, m, x });
    }
    let Ok(len) = u16::try_from(payload_len) else {
        return Err(WireError::PayloadTooLarge { len: payload_len });
    };
    buf.extend_from_slice(&MAGIC);
    buf.push(1 + codec.wire_id());
    buf.push(k);
    buf.push(m);
    buf.push(x);
    buf.extend_from_slice(&len.to_be_bytes());
    buf.extend_from_slice(&seq.to_be_bytes());
    buf.extend_from_slice(&sent_at_nanos.to_be_bytes());
    Ok(())
}

/// Magic bytes of a control (feedback) frame, `b"RC"`.
pub const CONTROL_MAGIC: [u8; 2] = *b"RC";

/// Size of an encoded control frame in bytes.
pub const CONTROL_BYTES: usize = 2 + 1 + 4 + 8;

/// Receiver-to-sender feedback: cumulative delivery count, used by the
/// adaptive multiplicity controller
/// ([`adaptive`](crate::adaptive)).
///
/// # Examples
///
/// ```
/// use mcss_remicss::wire::ControlFrame;
///
/// let c = ControlFrame::new(3, 1234);
/// let mut buf = Vec::new();
/// c.encode_into(&mut buf);
/// assert_eq!(ControlFrame::decode(&buf).unwrap(), c);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ControlFrame {
    epoch: u32,
    delivered: u64,
}

impl ControlFrame {
    /// Builds a feedback frame for `epoch` reporting `delivered`
    /// cumulative symbol deliveries.
    #[must_use]
    pub fn new(epoch: u32, delivered: u64) -> Self {
        ControlFrame { epoch, delivered }
    }

    /// The feedback epoch number.
    #[must_use]
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Cumulative symbols the receiver has reconstructed.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Appends the encoded frame to `buf` (no allocation beyond the
    /// buffer's own growth).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&CONTROL_MAGIC);
        buf.push(VERSION);
        buf.extend_from_slice(&self.epoch.to_be_bytes());
        buf.extend_from_slice(&self.delivered.to_be_bytes());
    }

    /// Parses a control frame.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`], [`WireError::BadMagic`],
    /// [`WireError::BadVersion`], or [`WireError::TrailingBytes`].
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        if buf.len() < CONTROL_BYTES {
            return Err(WireError::Truncated {
                have: buf.len(),
                need: CONTROL_BYTES,
            });
        }
        if buf[0..2] != CONTROL_MAGIC {
            return Err(WireError::BadMagic {
                found: [buf[0], buf[1]],
            });
        }
        if buf[2] != VERSION {
            return Err(WireError::BadVersion { found: buf[2] });
        }
        if buf.len() > CONTROL_BYTES {
            return Err(WireError::TrailingBytes {
                extra: buf.len() - CONTROL_BYTES,
            });
        }
        Ok(ControlFrame {
            epoch: u32::from_be_bytes(buf[3..7].try_into().expect("4 bytes")),
            delivered: u64::from_be_bytes(buf[7..15].try_into().expect("8 bytes")),
        })
    }
}

/// Magic bytes of the connection-ID demux prefix, `b"RX"`.
pub const CID_MAGIC: [u8; 2] = *b"RX";

/// Version of the demux prefix this implementation speaks.
pub const CID_VERSION: u8 = 1;

/// Size of the demux prefix: magic, version, and a 32-bit connection ID.
pub const CID_PREFIX_BYTES: usize = 2 + 1 + 4;

/// Appends a connection-ID demux prefix to `buf`; the caller writes the
/// inner share/control frame right after, so prefix and frame share one
/// pooled buffer just like [`put_share_header_for`].
pub fn put_cid_prefix(buf: &mut Vec<u8>, cid: u32) {
    buf.extend_from_slice(&CID_MAGIC);
    buf.push(CID_VERSION);
    buf.extend_from_slice(&cid.to_be_bytes());
}

/// A datagram classified by its demux framing, inner bytes borrowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemuxFrame<'a> {
    /// A prefixed frame: route `inner` to the session owning `cid`.
    Cid {
        /// The 32-bit connection ID.
        cid: u32,
        /// The inner share/control frame, prefix stripped.
        inner: &'a [u8],
    },
    /// A bare pre-prefix frame (`b"RM"` / `b"RC"`): the versioned
    /// legacy fallback for peers that speak one session per socket.
    Legacy(&'a [u8]),
}

/// Classifies a datagram by its leading magic: strips a `b"RX"` demux
/// prefix, passes bare `b"RM"`/`b"RC"` frames through as
/// [`DemuxFrame::Legacy`]. The inner frame is *not* validated here —
/// that stays with the owning session's decoder, so a corrupt inner
/// frame is charged to the right session's counters.
///
/// # Errors
///
/// - [`WireError::Truncated`] if a prefixed datagram ends inside the
///   prefix or carries no inner bytes.
/// - [`WireError::BadVersion`] for an unknown prefix version.
/// - [`WireError::BadMagic`] if no known magic leads the datagram.
pub fn demux_frame(buf: &[u8]) -> Result<DemuxFrame<'_>, WireError> {
    if buf.len() >= 2 && buf[0..2] == CID_MAGIC {
        if buf.len() <= CID_PREFIX_BYTES {
            return Err(WireError::Truncated {
                have: buf.len(),
                need: CID_PREFIX_BYTES + 1,
            });
        }
        if buf[2] != CID_VERSION {
            return Err(WireError::BadVersion { found: buf[2] });
        }
        let cid = u32::from_be_bytes(buf[3..7].try_into().expect("4 bytes"));
        return Ok(DemuxFrame::Cid {
            cid,
            inner: &buf[CID_PREFIX_BYTES..],
        });
    }
    if buf.len() >= 2 && (buf[0..2] == MAGIC || buf[0..2] == CONTROL_MAGIC) {
        return Ok(DemuxFrame::Legacy(buf));
    }
    Err(WireError::BadMagic {
        found: [
            buf.first().copied().unwrap_or(0),
            buf.get(1).copied().unwrap_or(0),
        ],
    })
}

/// Any frame the protocol puts on the wire, decoded in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageRef<'a> {
    /// A share of a source symbol, payload borrowed.
    Share(ShareRef<'a>),
    /// Receiver feedback (small enough to always copy out).
    Control(ControlFrame),
}

/// Decodes either frame kind by dispatching on the magic bytes, leaving
/// share payloads borrowed from `buf`.
///
/// # Errors
///
/// [`WireError`] as for the respective `decode` functions;
/// [`WireError::BadMagic`] if neither magic matches.
pub fn decode_message_ref(buf: &[u8]) -> Result<MessageRef<'_>, WireError> {
    if buf.len() >= 2 && buf[0..2] == CONTROL_MAGIC {
        ControlFrame::decode(buf).map(MessageRef::Control)
    } else {
        ShareRef::decode(buf).map(MessageRef::Share)
    }
}

/// Error from encoding or decoding a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum WireError {
    /// Buffer shorter than the frame it claims to hold.
    Truncated {
        /// Bytes available.
        have: usize,
        /// Bytes required.
        need: usize,
    },
    /// The magic bytes are not `b"RM"`.
    BadMagic {
        /// The bytes found instead.
        found: [u8; 2],
    },
    /// Unsupported protocol version.
    BadVersion {
        /// The version found.
        found: u8,
    },
    /// Share parameters violate `1 ≤ k ≤ m` and `1 ≤ x ≤ m`.
    InvalidShare {
        /// Declared threshold.
        k: u8,
        /// Declared multiplicity.
        m: u8,
        /// Declared abscissa.
        x: u8,
    },
    /// Payload longer than the 16-bit length field allows.
    PayloadTooLarge {
        /// The offending length.
        len: usize,
    },
    /// The buffer extends past the declared frame end.
    TrailingBytes {
        /// Number of surplus bytes.
        extra: usize,
    },
    /// A share header's format byte names a codec this implementation
    /// does not know. Dropped under its own counter — never guessed
    /// at, never routed into another codec's reassembly entry.
    UnknownCodec {
        /// The format byte found.
        found: u8,
    },
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated { have, need } => {
                write!(f, "truncated frame: have {have} bytes, need {need}")
            }
            WireError::BadMagic { found } => {
                write!(f, "bad magic {found:02x?}")
            }
            WireError::BadVersion { found } => write!(f, "unsupported version {found}"),
            WireError::InvalidShare { k, m, x } => {
                write!(f, "invalid share parameters k={k} m={m} x={x}")
            }
            WireError::PayloadTooLarge { len } => {
                write!(f, "payload of {len} bytes exceeds the 16-bit length field")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after frame end")
            }
            WireError::UnknownCodec { found } => {
                write!(f, "unknown share format byte {found}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Test-only frame builder shared by this crate's unit tests.
#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// One encoded share frame: header for `codec`, then `payload`.
    pub(crate) fn share_bytes(
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
}

#[cfg(test)]
mod tests {
    use super::testutil::share_bytes;
    use super::*;

    fn sample() -> Vec<u8> {
        share_bytes(
            CodecId::Shamir,
            0xdead_beef,
            (2, 5, 3),
            987_654_321,
            &[7u8; 100],
        )
    }

    fn xor_sample() -> Vec<u8> {
        share_bytes(CodecId::Xor2d, 0xfeed_f00d, (2, 5, 3), 13_579, &[9u8; 64])
    }

    fn control_bytes(c: ControlFrame) -> Vec<u8> {
        let mut buf = Vec::new();
        c.encode_into(&mut buf);
        buf
    }

    /// The frame layouts of the module docs, byte for byte.
    #[test]
    fn frame_bytes_are_pinned() {
        let (seq, stamp) = (0x0102_0304_0506_0708, 0x1112_1314_1516_1718);
        let mut v1 = Vec::new();
        put_share_header_for(&mut v1, CodecId::Shamir, seq, 2, 5, 3, stamp, 100).unwrap();
        assert_eq!(
            v1,
            [
                b'R', b'M', 1, 2, 5, 3, 0, 100, // magic, v, k, m, x, length
                1, 2, 3, 4, 5, 6, 7, 8, // symbol seq
                0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, // send timestamp
            ]
        );
        assert_eq!(v1.len(), HEADER_BYTES);
        let mut xor = Vec::new();
        put_share_header_for(&mut xor, CodecId::Xor2d, seq, 2, 5, 3, stamp, 100).unwrap();
        assert_eq!(
            xor,
            [
                b'R', b'M', 2, 2, 5, 3, 0, 100, // magic, format, k, m, x, length
                1, 2, 3, 4, 5, 6, 7, 8, // symbol seq
                0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, // send timestamp
            ]
        );
        for codec in CodecId::ALL {
            let mut buf = Vec::new();
            put_share_header_for(&mut buf, codec, seq, 2, 5, 3, stamp, 100).unwrap();
            assert_eq!(buf.len(), HEADER_BYTES, "{codec}");
            assert_eq!(header_bytes(codec), HEADER_BYTES, "{codec}");
        }
        let mut control = Vec::new();
        ControlFrame::new(0x0a0b_0c0d, seq).encode_into(&mut control);
        assert_eq!(
            control,
            [b'R', b'C', 1, 0x0a, 0x0b, 0x0c, 0x0d, 1, 2, 3, 4, 5, 6, 7, 8]
        );
        assert_eq!(control.len(), CONTROL_BYTES);
        let mut prefix = Vec::new();
        put_cid_prefix(&mut prefix, 0xdead_cafe);
        assert_eq!(prefix, [b'R', b'X', 1, 0xde, 0xad, 0xca, 0xfe]);
        assert_eq!(prefix.len(), CID_PREFIX_BYTES);
    }

    #[test]
    fn round_trip() {
        let enc = sample();
        assert_eq!(enc.len(), HEADER_BYTES + 100);
        let r = ShareRef::decode(&enc).unwrap();
        assert_eq!(r.payload(), &[7u8; 100]);
        // Borrowed, not copied.
        assert_eq!(r.payload().as_ptr(), enc[HEADER_BYTES..].as_ptr());
    }

    #[test]
    fn accessors() {
        let enc = sample();
        let f = ShareRef::decode(&enc).unwrap();
        assert_eq!(f.seq(), 0xdead_beef);
        assert_eq!((f.k(), f.m(), f.x()), (2, 5, 3));
        assert_eq!(f.sent_at_nanos(), 987_654_321);
        assert_eq!(f.payload().len(), 100);
    }

    #[test]
    fn empty_payload_round_trips() {
        let enc = share_bytes(CodecId::Shamir, 1, (1, 1, 1), 0, &[]);
        let r = ShareRef::decode(&enc).unwrap();
        assert_eq!((r.seq(), r.k(), r.m(), r.x()), (1, 1, 1, 1));
        assert!(r.payload().is_empty());
    }

    #[test]
    fn invalid_share_params_rejected() {
        for codec in CodecId::ALL {
            for (k, m, x) in [(0, 1, 1), (2, 1, 1), (1, 1, 0), (1, 1, 2), (3, 2, 1)] {
                assert_eq!(
                    put_share_header_for(&mut Vec::new(), codec, 0, k, m, x, 0, 0).unwrap_err(),
                    WireError::InvalidShare { k, m, x }
                );
            }
        }
    }

    #[test]
    fn payload_too_large_rejected() {
        for codec in CodecId::ALL {
            assert_eq!(
                put_share_header_for(&mut Vec::new(), codec, 0, 1, 1, 1, 0, 65536).unwrap_err(),
                WireError::PayloadTooLarge { len: 65536 }
            );
        }
    }

    #[test]
    fn decode_truncated() {
        let enc = sample();
        for cut in [0, 10, HEADER_BYTES + 5] {
            assert!(matches!(
                ShareRef::decode(&enc[..cut]),
                Err(WireError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn decode_bad_magic_and_version() {
        let mut enc = sample();
        enc[0] = b'X';
        assert!(matches!(
            ShareRef::decode(&enc),
            Err(WireError::BadMagic { .. })
        ));
        // Byte 2 of a share frame is its format byte, so a value nobody
        // speaks is an unknown codec; control frames and the CID prefix
        // keep a version byte (`control_frame_decode_errors`,
        // `demux_rejects_truncated_and_mutated_prefixes`).
        let mut enc = sample();
        enc[2] = 9;
        assert_eq!(
            ShareRef::decode(&enc).unwrap_err(),
            WireError::UnknownCodec { found: 9 }
        );
    }

    #[test]
    fn decode_trailing_bytes() {
        let mut enc = sample();
        enc.push(0);
        assert_eq!(
            ShareRef::decode(&enc).unwrap_err(),
            WireError::TrailingBytes { extra: 1 }
        );
    }

    #[test]
    fn decode_corrupt_share_params() {
        let mut enc = sample();
        enc[3] = 0; // k = 0
        assert!(matches!(
            ShareRef::decode(&enc),
            Err(WireError::InvalidShare { .. })
        ));
    }

    #[test]
    fn control_frame_round_trip() {
        let c = ControlFrame::new(u32::MAX, u64::MAX);
        let enc = control_bytes(c);
        assert_eq!(ControlFrame::decode(&enc).unwrap(), c);
        assert_eq!(enc.len(), CONTROL_BYTES);
    }

    #[test]
    fn control_frame_decode_errors() {
        let enc = control_bytes(ControlFrame::new(1, 2));
        assert!(matches!(
            ControlFrame::decode(&enc[..5]),
            Err(WireError::Truncated { .. })
        ));
        let mut bad = enc.clone();
        bad[2] = 9;
        assert_eq!(
            ControlFrame::decode(&bad).unwrap_err(),
            WireError::BadVersion { found: 9 }
        );
        let mut long = enc.clone();
        long.push(0);
        assert!(matches!(
            ControlFrame::decode(&long),
            Err(WireError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn message_ref_dispatch() {
        match decode_message_ref(&sample()).unwrap() {
            MessageRef::Share(s) => assert_eq!(s.seq(), 0xdead_beef),
            MessageRef::Control(_) => panic!("expected share"),
        }
        let ctl = ControlFrame::new(7, 8);
        match decode_message_ref(&control_bytes(ctl)).unwrap() {
            MessageRef::Control(c) => assert_eq!(c, ctl),
            MessageRef::Share(_) => panic!("expected control"),
        }
        assert!(decode_message_ref(&[0u8; 3]).is_err());
    }

    #[test]
    fn cid_prefix_round_trips() {
        let share = sample();
        let mut buf = Vec::new();
        put_cid_prefix(&mut buf, 0xdead_cafe);
        buf.extend_from_slice(&share);
        match demux_frame(&buf).unwrap() {
            DemuxFrame::Cid { cid, inner } => {
                assert_eq!(cid, 0xdead_cafe);
                assert_eq!(inner, &share[..]);
                // Borrowed, not copied.
                assert_eq!(inner.as_ptr(), buf[CID_PREFIX_BYTES..].as_ptr());
            }
            DemuxFrame::Legacy(_) => panic!("expected prefixed frame"),
        }
        let mut ctl = Vec::new();
        put_cid_prefix(&mut ctl, 7);
        ControlFrame::new(1, 2).encode_into(&mut ctl);
        assert!(matches!(
            demux_frame(&ctl).unwrap(),
            DemuxFrame::Cid { cid: 7, .. }
        ));
    }

    #[test]
    fn demux_passes_bare_frames_through() {
        let share_enc = sample();
        assert_eq!(
            demux_frame(&share_enc).unwrap(),
            DemuxFrame::Legacy(&share_enc[..])
        );
        let ctl_enc = control_bytes(ControlFrame::new(1, 2));
        assert_eq!(
            demux_frame(&ctl_enc).unwrap(),
            DemuxFrame::Legacy(&ctl_enc[..])
        );
    }

    #[test]
    fn demux_rejects_truncated_and_mutated_prefixes() {
        let mut buf = Vec::new();
        put_cid_prefix(&mut buf, 42);
        buf.extend_from_slice(&sample());
        // Cut anywhere inside the prefix, or right at its end (an empty
        // inner frame routes nowhere), is truncated.
        for cut in [2, 3, CID_PREFIX_BYTES - 1, CID_PREFIX_BYTES] {
            assert!(matches!(
                demux_frame(&buf[..cut]).unwrap_err(),
                WireError::Truncated { .. }
            ));
        }
        let mut bad_ver = buf.clone();
        bad_ver[2] = 9;
        assert_eq!(
            demux_frame(&bad_ver).unwrap_err(),
            WireError::BadVersion { found: 9 }
        );
        let mut bad_magic = buf.clone();
        bad_magic[1] = b'Z';
        assert_eq!(
            demux_frame(&bad_magic).unwrap_err(),
            WireError::BadMagic {
                found: [b'R', b'Z']
            }
        );
        assert!(demux_frame(&[]).is_err());
        assert!(demux_frame(b"R").is_err());
    }

    #[test]
    fn error_display() {
        let errors: Vec<WireError> = vec![
            WireError::Truncated { have: 1, need: 2 },
            WireError::BadMagic { found: [0, 0] },
            WireError::BadVersion { found: 9 },
            WireError::InvalidShare { k: 0, m: 0, x: 0 },
            WireError::PayloadTooLarge { len: 70000 },
            WireError::TrailingBytes { extra: 3 },
            WireError::UnknownCodec { found: 0xEE },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn v2_round_trip_preserves_codec() {
        let enc = xor_sample();
        assert_eq!(enc.len(), HEADER_BYTES + 64);
        assert_eq!(enc[2], 1 + CodecId::Xor2d.wire_id());
        let r = ShareRef::decode(&enc).unwrap();
        assert_eq!(r.codec(), CodecId::Xor2d);
        assert_eq!(
            (r.seq(), r.k(), r.m(), r.x(), r.sent_at_nanos()),
            (0xfeed_f00d, 2, 5, 3, 13_579)
        );
        assert_eq!(r.payload(), &[9u8; 64]);
        assert_eq!(r.payload().as_ptr(), enc[HEADER_BYTES..].as_ptr());
    }

    #[test]
    fn v1_frames_fall_back_to_shamir() {
        let enc = sample();
        assert_eq!(enc[2], 1);
        assert_eq!(enc.len(), HEADER_BYTES + 100);
        assert_eq!(ShareRef::decode(&enc).unwrap().codec(), CodecId::Shamir);
    }

    #[test]
    fn unknown_codec_id_is_a_typed_error() {
        for base in [sample(), xor_sample()] {
            for found in [0, 3, 0xEE] {
                let mut enc = base.clone();
                enc[2] = found;
                assert_eq!(
                    ShareRef::decode(&enc).unwrap_err(),
                    WireError::UnknownCodec { found }
                );
            }
        }
    }

    #[test]
    fn v2_truncation_and_trailing() {
        let enc = xor_sample();
        for cut in [HEADER_BYTES - 1, HEADER_BYTES + 5] {
            assert!(matches!(
                ShareRef::decode(&enc[..cut]).unwrap_err(),
                WireError::Truncated { .. }
            ));
        }
        let mut long = enc.clone();
        long.push(0);
        assert_eq!(
            ShareRef::decode(&long).unwrap_err(),
            WireError::TrailingBytes { extra: 1 }
        );
    }
}
