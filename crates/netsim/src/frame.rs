//! Frames: the unit of transmission on a simulated link.

/// A datagram in flight: an owned byte buffer.
///
/// Frames move through the event queue by value, and the receiver takes
/// the buffer back with [`into_vec`](Frame::into_vec) — the same
/// allocation the sender wrapped, so a buffer drawn from a
/// [`BufferPool`](crate::BufferPool) can return to it. A frame a link
/// loses in flight comes back to the sender instead, emptied, through
/// [`Context::take_lost`](crate::Context::take_lost). That is what keeps
/// the protocol data path allocation-free, lossy links included.
///
/// # Examples
///
/// ```
/// use mcss_netsim::Frame;
///
/// let f = Frame::new(vec![1, 2, 3]);
/// assert_eq!(f.len(), 3);
/// assert_eq!(f.payload(), &[1, 2, 3][..]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Frame {
    payload: Vec<u8>,
}

impl Frame {
    /// Wraps a payload; a `Vec<u8>` is taken over without copying.
    #[must_use]
    pub fn new(payload: impl Into<Vec<u8>>) -> Self {
        Frame {
            payload: payload.into(),
        }
    }

    /// The payload bytes.
    #[must_use]
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Consumes the frame, returning the buffer it was built from.
    #[must_use]
    pub fn into_vec(self) -> Vec<u8> {
        self.payload
    }

    /// Payload length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// Whether the payload is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// Payload size in bits (excluding per-link framing overhead, which
    /// the link adds per its [`LinkConfig`](crate::LinkConfig)).
    #[must_use]
    pub fn bits(&self) -> u64 {
        self.payload.len() as u64 * 8
    }
}

impl From<Vec<u8>> for Frame {
    fn from(v: Vec<u8>) -> Self {
        Frame::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let f = Frame::new(vec![9u8; 100]);
        assert_eq!(f.len(), 100);
        assert_eq!(f.bits(), 800);
        assert!(!f.is_empty());
        assert_eq!(f.clone().into_vec().len(), 100);
    }

    #[test]
    fn empty_frame() {
        let f = Frame::new(Vec::new());
        assert!(f.is_empty());
        assert_eq!(f.bits(), 0);
    }

    #[test]
    fn conversions() {
        let a: Frame = vec![1u8, 2].into();
        let b = Frame::new(&[1u8, 2][..]);
        assert_eq!(a, b);
    }

    #[test]
    fn owned_round_trip_preserves_buffer() {
        let mut v = Vec::with_capacity(2048);
        v.extend_from_slice(&[7u8; 10]);
        let ptr = v.as_ptr();
        let f = Frame::new(v);
        assert_eq!(f.payload(), &[7u8; 10]);
        let back = f.into_vec();
        assert_eq!(back.as_ptr(), ptr);
        assert_eq!(back.capacity(), 2048);
    }
}
