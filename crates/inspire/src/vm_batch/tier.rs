//! The CPU-tier ladder and the row kernels it compiles.
//!
//! The batch loop has three codegen tiers built from one body
//! (`exec_batch_body`), and each engine picks the widest one the CPU
//! reports when it is created:
//!
//! - **AVX-512** on x86-64 CPUs with AVX-512F, BW, VL and DQ (and AVX2):
//!   the body is instantiated inside an entry compiled with those
//!   features, so the row kernels run eight 64-bit lanes per vector and
//!   branch masks compare straight into mask registers;
//! - **AVX2** on other x86-64 CPUs with AVX2: the same body inside a
//!   `#[target_feature(enable = "avx2")]` entry, four 64-bit lanes per
//!   vector;
//! - **portable** on every other CPU, built for the crate's compile
//!   target (SSE2 on baseline x86-64).
//!
//! [`Codegen`] gives each tier its layout; both wide tiers share one,
//! [`WideBody`]. `fma` is never used for float results (Rust never
//! contracts `a * b + c`, even where AVX-512 implies the `fma` feature),
//! so float results are bit-identical on every tier.
//!
//! Nothing but the CPU picks the tier; [`lane_tier`] reports it. The same
//! [`Tier`] and its entry macro, `tier_dispatch!`, compile the suite's
//! input fills.
//!
//! Every row (and the per-lane global ids and step counts) starts on a
//! 64-byte cache line, so a row's vector loads never straddle lines and
//! its timing does not depend on where the allocator happened to place
//! it.

use std::ops::{Deref, DerefMut};

use super::LANES;

/// One register row: lane `l`'s value at index `l`, aligned to a 64-byte
/// cache line. It derefs to `[T; LANES]`, so row kernels index it like
/// the array it wraps.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
pub(crate) struct Row<T>(pub(super) [T; LANES]);

impl<T> Deref for Row<T> {
    type Target = [T; LANES];
    #[inline(always)]
    fn deref(&self) -> &[T; LANES] {
        &self.0
    }
}

impl<T> DerefMut for Row<T> {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut [T; LANES] {
        &mut self.0
    }
}

/// A CPU codegen tier, picked by [`Tier::detect`] and run on through
/// `tier_dispatch!`. The ladder, narrowest first: the crate's compile
/// target (SSE2 on baseline x86-64), AVX2, and AVX-512 (F, BW, VL and DQ,
/// with AVX2). The wide variants are `#[non_exhaustive]`, so no other
/// crate can construct them, and inside this one only [`Tier::detect`]
/// and [`Tier::supported`] do, each after the CPU reported the tier's
/// features.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    Portable,
    #[cfg(target_arch = "x86_64")]
    #[non_exhaustive]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    #[non_exhaustive]
    Avx512,
}

impl Tier {
    /// The widest tier this CPU supports.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if has_avx512() {
                return Self::Avx512;
            }
            if is_x86_feature_detected!("avx2") {
                return Self::Avx2;
            }
        }
        Self::Portable
    }

    /// Every tier this CPU supports, in ladder order: `Portable` first,
    /// [`Tier::detect`]'s pick last. For tests that compare the tiers.
    pub fn supported() -> Vec<Self> {
        let mut tiers = vec![Self::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                tiers.push(Self::Avx2);
            }
            if has_avx512() {
                tiers.push(Self::Avx512);
            }
        }
        tiers
    }

    /// `"portable"`, `"avx2"` or `"avx512"`, for reports.
    pub fn name(self) -> &'static str {
        match self {
            Self::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => "avx512",
        }
    }
}

/// Whether the CPU reports every feature the `Avx512` entries of
/// `tier_dispatch!` enable.
#[cfg(target_arch = "x86_64")]
fn has_avx512() -> bool {
    is_x86_feature_detected!("avx2")
        && is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("avx512vl")
        && is_x86_feature_detected!("avx512dq")
}

/// The lane engine's codegen tier on this CPU, `"portable"`, `"avx2"` or
/// `"avx512"` (for reports; the CPU alone picks it).
pub fn lane_tier() -> &'static str {
    Tier::detect().name()
}

/// Run one function body on a [`Tier`]:
///
/// ```text
/// tier_dispatch!(tier, [type K = PortableType | WideType,]
///     fn entry<G: Bound + ...>(param: Type [= value], ...) -> Ret { body })
/// ```
///
/// On `Portable` the body runs as an always-inlined function; on a wide
/// tier as `entry`, compiled with that tier's `#[target_feature]` set
/// (`"avx2"`, or `"avx2,avx512f,avx512bw,avx512vl,avx512dq"`), so
/// whatever the body inlines is built with 256- or 512-bit vectors. Each
/// parameter takes `value`, or else the caller's variable of its name.
/// `type K = P | W` binds `K` in the body to `P` on the portable tier and
/// to `W` on both wide tiers. Generic bounds are plain trait names.
///
/// A macro rather than a function taking a closure: the closure body
/// would be a function of its own, and LLVM may leave it out of line, and
/// compiled without the tier's features, even inside the entry. This is
/// where safe code enters wide-vector code, so the safety argument is
/// written once, here.
#[macro_export]
macro_rules! tier_dispatch {
    (@arg $p:ident) => {
        $p
    };
    (@arg $p:ident $v:expr) => {
        $v
    };
    (
        $tier:expr,
        $(type $k:ident = $kp:ty | $kw:ty,)?
        fn $name:ident $(<$($g:ident $(: $b0:ident $(+ $bs:ident)*)?),+>)?
            ($($p:ident: $t:ty $(= $v:expr)?),* $(,)?) $(-> $r:ty)? $body:block
    ) => {
        match $tier {
            $crate::Tier::Portable => {
                #[inline(always)]
                fn portable $(<$($g $(: $b0 $(+ $bs)*)?),+>)? ($($p: $t),*) $(-> $r)? {
                    $(type $k = $kp;)?
                    $body
                }
                portable($($crate::tier_dispatch!(@arg $p $($v)?)),*)
            }
            #[cfg(target_arch = "x86_64")]
            wide @ ($crate::Tier::Avx2 { .. } | $crate::Tier::Avx512 { .. }) => {
                let ($($p,)*) = ($($crate::tier_dispatch!(@arg $p $($v)?),)*);
                // SAFETY: only `Tier::detect` and `Tier::supported`
                // construct `Tier::Avx2` and `Tier::Avx512`, each only on a
                // CPU that reports every feature its entry below enables
                // (other crates cannot construct the `#[non_exhaustive]`
                // variants at all).
                unsafe {
                    if let $crate::Tier::Avx512 { .. } = wide {
                        /// The body compiled with AVX-512F/BW/VL/DQ and AVX2.
                        ///
                        /// # Safety
                        ///
                        /// The CPU must support every feature enabled here.
                        #[target_feature(enable = "avx2,avx512f,avx512bw,avx512vl,avx512dq")]
                        fn $name $(<$($g $(: $b0 $(+ $bs)*)?),+>)? ($($p: $t),*) $(-> $r)? {
                            $(type $k = $kw;)?
                            $body
                        }
                        $name($($p),*)
                    } else {
                        /// The body compiled with AVX2.
                        ///
                        /// # Safety
                        ///
                        /// The CPU must support AVX2.
                        #[target_feature(enable = "avx2")]
                        fn $name $(<$($g $(: $b0 $(+ $bs)*)?),+>)? ($($p: $t),*) $(-> $r)? {
                            $(type $k = $kw;)?
                            $body
                        }
                        $name($($p),*)
                    }
                }
            }
        }
    };
}

/// One codegen tier of the batch body, as the type parameter the body and
/// its full-width path are instantiated with. The portable and the wide
/// tiers want opposite layouts, so the type carries the inlining policy:
///
/// - the wide body ([`WideBody`], which both the AVX2 and the AVX-512
///   entries instantiate) inlines the whole full-width path (op dispatch,
///   fused superinstructions, row and gather kernels, for the
///   [`Prefix`](super::lanes::Prefix) and [`Select`](super::lanes::Select)
///   walks), since any helper left out of line compiles without the
///   entry's features. The op walk's [`Masked`](super::lanes::Masked)
///   instantiation stays out of line (`exec_block_masked`): it walks
///   active lanes one at a time, which no vector width widens;
/// - the portable body keeps the fused superinstructions and the
///   gather/scatter kernels out of line and leaves the row kernels to
///   LLVM's heuristics; forcing them inline measured slower there.
///
/// The tier also picks how a branch condition packs into its lane mask
/// (see [`pack_rows`](super::mask::pack_rows)): one bit per lane on the
/// wide tiers, 8 lanes per byte on the portable tier.
pub(super) trait Codegen {
    /// Inline the full-width path and outline the masked one (see
    /// `inline_if!`), and pack branch masks one bit per lane.
    const WIDE: bool;

    /// [`apply2`] under this tier's inlining policy; always inlined by
    /// default, as on the wide tiers.
    #[inline(always)]
    fn apply2<T: Copy, G: Fn(usize, T, T, T) -> T>(
        regs: &mut [Row<T>],
        dst: u16,
        a: u16,
        b: u16,
        g: G,
    ) {
        apply2(regs, dst, a, b, g);
    }

    /// [`apply1`] under this tier's inlining policy; always inlined by
    /// default, as on the wide tiers.
    #[inline(always)]
    fn apply1<T: Copy, G: Fn(usize, T, T) -> T>(regs: &mut [Row<T>], dst: u16, a: u16, g: G) {
        apply1(regs, dst, a, g);
    }
}

/// The portable tier's body.
pub(super) struct PortableBody;

impl Codegen for PortableBody {
    const WIDE: bool = false;

    #[inline]
    fn apply2<T: Copy, G: Fn(usize, T, T, T) -> T>(
        regs: &mut [Row<T>],
        dst: u16,
        a: u16,
        b: u16,
        g: G,
    ) {
        apply2(regs, dst, a, b, g);
    }

    #[inline]
    fn apply1<T: Copy, G: Fn(usize, T, T) -> T>(regs: &mut [Row<T>], dst: u16, a: u16, g: G) {
        apply1(regs, dst, a, g);
    }
}

/// The body of both wide tiers, AVX2 and AVX-512: one layout, compiled
/// once per entry with that entry's vector width.
#[cfg(target_arch = "x86_64")]
pub(super) struct WideBody;

#[cfg(target_arch = "x86_64")]
impl Codegen for WideBody {
    const WIDE: bool = true;
}

/// `inline_if!(INLINE, call)`: evaluate `call` in place when `INLINE`,
/// otherwise through an out-of-line call; how the batch body gives each
/// tier its layout (see [`Codegen`]). A macro rather than a function
/// taking a closure, for the reason `tier_dispatch!` is one.
macro_rules! inline_if {
    ($inline:expr, $call:expr) => {
        if $inline {
            $call
        } else {
            $crate::vm_batch::tier::out_of_line(|| $call)
        }
    };
}
pub(super) use inline_if;

#[inline(never)]
pub(super) fn out_of_line<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// Apply `g` lane-wise over all [`LANES`] lanes: `dst[l] = g(l, dst[l],
/// a[l], b[l])`, where the old `dst[l]` lets a
/// [`Select`](super::lanes::Select) pass keep an inactive lane's value.
///
/// The common case (the compiler allocates a fresh temp for `dst`) borrows
/// all three registers disjointly and runs a bounds-check-free loop with
/// a constant trip count, which the optimizer vectorizes with no tail;
/// aliased operands fall back to in-place forms, which are always correct
/// because each lane only reads its own elements.
#[inline(always)]
fn apply2<T: Copy, G: Fn(usize, T, T, T) -> T>(
    regs: &mut [Row<T>],
    dst: u16,
    a: u16,
    b: u16,
    g: G,
) {
    let (dst, a, b) = (dst as usize, a as usize, b as usize);
    if dst != a && dst != b && a != b {
        let Ok([d, x, y]) = regs.get_disjoint_mut([dst, a, b]) else {
            unreachable!("disjoint registers");
        };
        for (l, ((d, &x), &y)) in d.iter_mut().zip(x.iter()).zip(y.iter()).enumerate() {
            *d = g(l, *d, x, y);
        }
    } else if a == b && dst != a {
        let Ok([d, x]) = regs.get_disjoint_mut([dst, a]) else {
            unreachable!("disjoint registers");
        };
        for (l, (d, &x)) in d.iter_mut().zip(x.iter()).enumerate() {
            *d = g(l, *d, x, x);
        }
    } else if dst == a && dst == b {
        for (l, v) in regs[dst].iter_mut().enumerate() {
            *v = g(l, *v, *v, *v);
        }
    } else if dst == a {
        // In-place accumulator: each lane reads its own element before
        // writing it, so a pairwise disjoint borrow of [dst, b] suffices.
        let Ok([d, y]) = regs.get_disjoint_mut([dst, b]) else {
            unreachable!("disjoint registers");
        };
        for (l, (d, &y)) in d.iter_mut().zip(y.iter()).enumerate() {
            *d = g(l, *d, *d, y);
        }
    } else {
        let Ok([d, x]) = regs.get_disjoint_mut([dst, a]) else {
            unreachable!("disjoint registers");
        };
        for (l, (d, &x)) in d.iter_mut().zip(x.iter()).enumerate() {
            *d = g(l, *d, x, *d);
        }
    }
}

/// Apply `g` lane-wise over all [`LANES`] lanes: `dst[l] = g(l, dst[l],
/// a[l])` (see [`apply2`]).
#[inline(always)]
fn apply1<T: Copy, G: Fn(usize, T, T) -> T>(regs: &mut [Row<T>], dst: u16, a: u16, g: G) {
    let (dst, a) = (dst as usize, a as usize);
    if dst != a {
        let Ok([d, x]) = regs.get_disjoint_mut([dst, a]) else {
            unreachable!("disjoint registers");
        };
        for (l, (d, &x)) in d.iter_mut().zip(x.iter()).enumerate() {
            *d = g(l, *d, x);
        }
    } else {
        for (l, v) in regs[dst].iter_mut().enumerate() {
            *v = g(l, *v, *v);
        }
    }
}
