//! Active-lane masks, the reconvergence stack's frames, and the packing of
//! branch conditions into masks.
//!
//! A branch condition is evaluated over all lane rows into one packed
//! bitmask (see [`pack_rows`]), so deciding uniform vs divergent costs the
//! same either way (the mask as a bit vector follows Karrenberg & Hack,
//! CGO 2011).

use super::tier::Codegen;
use super::LANES;
use crate::bytecode::CmpOp;

/// Active-lane bitmask: bit `l` set means lane `l` executes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct ExecMask(pub(super) u64);

impl ExecMask {
    /// The full prefix mask for a batch of `n` lanes.
    #[inline]
    pub(super) fn full(n: usize) -> Self {
        debug_assert!((1..=LANES).contains(&n));
        Self(if n == LANES { !0 } else { (1u64 << n) - 1 })
    }

    #[inline]
    pub(super) fn is_empty(self) -> bool {
        self.0 == 0
    }

    #[inline]
    pub(super) fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Iterate the set lanes in ascending (= item) order.
    #[inline]
    pub(super) fn lanes(self) -> Lanes {
        Lanes(self.0)
    }
}

/// Ascending iterator over the set bits of an [`ExecMask`].
pub(super) struct Lanes(u64);

impl Iterator for Lanes {
    type Item = usize;
    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            let l = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(l)
        }
    }
}

/// One reconvergence-stack entry: a lane subset executing at `pc` that
/// must be re-merged into its parent when it reaches `rpc` (the pushing
/// branch's immediate post-dominator, or the virtual exit).
pub(super) struct Frame {
    pub(super) pc: u32,
    pub(super) rpc: u32,
    pub(super) mask: ExecMask,
}

/// Branch-condition bitmask over all [`LANES`] rows: bit `l` is
/// `f(a[l], b[l])`; the caller ANDs the result with its active mask. The
/// tier picks the loop shape that vectorizes on it:
///
/// - the wide tiers OR one bit per lane into the mask, which becomes
///   64-bit compares plus a movemask per vector on AVX2, and compares
///   straight into a mask register on AVX-512;
/// - the portable tier builds the mask 8 lanes per byte, because SSE2
///   has no 64-bit compare and the one-bit loop measured slower there.
#[inline(always)]
pub(super) fn pack_rows<K: Codegen, T: Copy, F: Fn(T, T) -> bool>(
    a: &[T; LANES],
    b: &[T; LANES],
    f: F,
) -> u64 {
    if K::WIDE {
        let mut m = 0u64;
        for (l, (&x, &y)) in a.iter().zip(b).enumerate() {
            m |= u64::from(f(x, y)) << l;
        }
        return m;
    }
    let mut bytes = [0u8; LANES / 8];
    for (k, byte) in bytes.iter_mut().enumerate() {
        for j in 0..8 {
            *byte |= u8::from(f(a[8 * k + j], b[8 * k + j])) << j;
        }
    }
    u64::from_le_bytes(bytes)
}

/// [`pack_rows`] for a fused cmp+branch, with the comparison matched once
/// rather than per lane.
#[inline(always)]
pub(super) fn cmp_rows<K: Codegen, T: Copy + PartialOrd>(
    op: CmpOp,
    a: &[T; LANES],
    b: &[T; LANES],
) -> u64 {
    match op {
        CmpOp::Lt => pack_rows::<K, _, _>(a, b, |x, y| x < y),
        CmpOp::Le => pack_rows::<K, _, _>(a, b, |x, y| x <= y),
        CmpOp::Gt => pack_rows::<K, _, _>(a, b, |x, y| x > y),
        CmpOp::Ge => pack_rows::<K, _, _>(a, b, |x, y| x >= y),
        CmpOp::Eq => pack_rows::<K, _, _>(a, b, |x, y| x == y),
        CmpOp::Ne => pack_rows::<K, _, _>(a, b, |x, y| x != y),
    }
}
