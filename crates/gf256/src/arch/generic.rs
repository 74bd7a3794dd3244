//! Portable kernel implementations: the scalar log/exp reference and the
//! 256-entry table row. These run on every target; the table row is the
//! tail path of every vector backend.

/// Reference kernels: two log/exp hops per byte, zero checks inline.
pub(crate) mod scalar {
    use crate::simd::MulTable;
    use crate::{EXP, LOG};

    #[inline]
    fn mul(b: u8, log_x: usize) -> u8 {
        if b == 0 {
            0
        } else {
            EXP[LOG[b as usize] as usize + log_x]
        }
    }

    pub fn scale_add(dst: &mut [u8], src: &[u8], t: &MulTable) {
        let log_x = LOG[t.x().value() as usize] as usize;
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = mul(*d, log_x) ^ s;
        }
    }

    pub fn add_scaled(dst: &mut [u8], src: &[u8], t: &MulTable) {
        let log_x = LOG[t.x().value() as usize] as usize;
        for (d, &s) in dst.iter_mut().zip(src) {
            *d ^= mul(s, log_x);
        }
    }

    pub fn scale(dst: &mut [u8], t: &MulTable) {
        let log_x = LOG[t.x().value() as usize] as usize;
        for d in dst.iter_mut() {
            *d = mul(*d, log_x);
        }
    }
}

/// One 256-entry table hop per byte, table provided by the caller.
pub(crate) mod table {
    use crate::simd::MulTable;

    pub fn scale_add(dst: &mut [u8], src: &[u8], t: &MulTable) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = t.row[*d as usize] ^ s;
        }
    }

    pub fn add_scaled(dst: &mut [u8], src: &[u8], t: &MulTable) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d ^= t.row[s as usize];
        }
    }

    pub fn scale(dst: &mut [u8], t: &MulTable) {
        for d in dst.iter_mut() {
            *d = t.row[*d as usize];
        }
    }
}
