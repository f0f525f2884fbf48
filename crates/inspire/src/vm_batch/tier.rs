//! The CPU-tier ladder and the row kernels it compiles.
//!
//! The batch loop has two codegen tiers built from one body
//! (`exec_batch_body`), and each engine picks one when it is created,
//! from what the CPU reports: **AVX2** on x86-64 CPUs with AVX2, where
//! the body is instantiated inside a `#[target_feature(enable = "avx2")]`
//! entry so the row kernels run four 64-bit lanes per vector, and
//! **portable** on every other CPU, where it is built for the crate's
//! compile target (SSE2 on baseline x86-64). [`Codegen`] gives each tier
//! its layout. `fma` is not enabled and Rust never contracts `a * b + c`,
//! so float results are bit-identical on both tiers.
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
/// `tier_dispatch!`: the crate's compile target (SSE2 on baseline x86-64)
/// or AVX2. `Avx2` is `#[non_exhaustive]`, so no other crate can
/// construct it, and inside this one only `detect` does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    Portable,
    #[cfg(target_arch = "x86_64")]
    #[non_exhaustive]
    Avx2,
}

impl Tier {
    /// The widest tier this CPU supports.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            return Self::Avx2;
        }
        Self::Portable
    }

    /// `"avx2"` or `"portable"`, for reports.
    pub fn name(self) -> &'static str {
        match self {
            Self::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 => "avx2",
        }
    }
}

/// The lane engine's codegen tier on this CPU, `"avx2"` or `"portable"`
/// (for reports; the CPU alone picks it).
pub fn lane_tier() -> &'static str {
    Tier::detect().name()
}

/// Run one function body on a [`Tier`]:
///
/// ```text
/// tier_dispatch!(tier, [type K = PortableType | Avx2Type,]
///     fn entry<G: Bound + ...>(param: Type [= value], ...) -> Ret { body })
/// ```
///
/// On `Portable` the body runs as an always-inlined function; on `Avx2`
/// as `entry`, compiled with `#[target_feature(enable = "avx2")]`, so
/// whatever the body inlines is built with 256-bit vectors. Each
/// parameter takes `value`, or else the caller's variable of its name.
/// `type K = P | A` binds `K` in the body to `P` on the portable tier and
/// to `A` on AVX2. Generic bounds are plain trait names.
///
/// A macro rather than a function taking a closure: the closure body
/// would be a function of its own, and LLVM may leave it out of line, and
/// compiled without AVX2, even inside the AVX2 entry. This is where safe
/// code enters AVX2 code, so the safety argument is written once, here.
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
        $(type $k:ident = $kp:ty | $ka:ty,)?
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
            $crate::Tier::Avx2 { .. } => {
                /// The body compiled with AVX2 enabled.
                ///
                /// # Safety
                ///
                /// The CPU must support AVX2.
                #[target_feature(enable = "avx2")]
                fn $name $(<$($g $(: $b0 $(+ $bs)*)?),+>)? ($($p: $t),*) $(-> $r)? {
                    $(type $k = $ka;)?
                    $body
                }
                let ($($p,)*) = ($($crate::tier_dispatch!(@arg $p $($v)?),)*);
                // SAFETY: only `Tier::detect` constructs `Tier::Avx2`, and
                // only on a CPU that reports AVX2 (other crates cannot
                // construct the `#[non_exhaustive]` variant at all).
                unsafe { $name($($p),*) }
            }
        }
    };
}

/// One codegen tier of the batch body, as the type parameter the body and
/// its full-width path are instantiated with. The two tiers want opposite
/// layouts, so the type carries the inlining policy:
///
/// - the AVX2 body inlines the whole full-width path (op dispatch, fused
///   superinstructions, row and gather kernels, for the
///   [`Prefix`](super::lanes::Prefix) and [`Select`](super::lanes::Select)
///   walks), since any helper left out of line compiles without AVX2. The
///   op walk's [`Masked`](super::lanes::Masked) instantiation stays out of
///   line (`exec_block_masked`): it walks active lanes one at a time,
///   which AVX2 cannot widen;
/// - the portable body keeps the fused superinstructions and the
///   gather/scatter kernels out of line and leaves the row kernels to
///   LLVM's heuristics; forcing them inline measured slower there.
///
/// The tier also picks how a branch condition packs into its lane mask
/// (see [`pack_rows`](super::mask::pack_rows)): one bit per lane on AVX2,
/// 8 lanes per byte on the portable tier.
pub(super) trait Codegen {
    /// Inline the full-width path and outline the masked one (see
    /// `inline_if!`), and pack branch masks one bit per lane.
    const AVX2: bool;

    /// [`apply2`] under this tier's inlining policy; always inlined by
    /// default, as on AVX2.
    #[inline(always)]
    fn apply2<T: Copy, G: Fn(usize, T, T, T) -> T>(
        regs: &mut [Row<T>],
        n: usize,
        dst: u16,
        a: u16,
        b: u16,
        g: G,
    ) {
        apply2(regs, n, dst, a, b, g);
    }

    /// [`apply1`] under this tier's inlining policy; always inlined by
    /// default, as on AVX2.
    #[inline(always)]
    fn apply1<T: Copy, G: Fn(usize, T, T) -> T>(
        regs: &mut [Row<T>],
        n: usize,
        dst: u16,
        a: u16,
        g: G,
    ) {
        apply1(regs, n, dst, a, g);
    }
}

/// The portable tier's body.
pub(super) struct PortableBody;

impl Codegen for PortableBody {
    const AVX2: bool = false;

    #[inline]
    fn apply2<T: Copy, G: Fn(usize, T, T, T) -> T>(
        regs: &mut [Row<T>],
        n: usize,
        dst: u16,
        a: u16,
        b: u16,
        g: G,
    ) {
        apply2(regs, n, dst, a, b, g);
    }

    #[inline]
    fn apply1<T: Copy, G: Fn(usize, T, T) -> T>(
        regs: &mut [Row<T>],
        n: usize,
        dst: u16,
        a: u16,
        g: G,
    ) {
        apply1(regs, n, dst, a, g);
    }
}

/// The AVX2 tier's body.
#[cfg(target_arch = "x86_64")]
pub(super) struct Avx2Body;

#[cfg(target_arch = "x86_64")]
impl Codegen for Avx2Body {
    const AVX2: bool = true;
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

/// Apply `g` lane-wise over the first `n` lanes: `dst[l] = g(l, dst[l],
/// a[l], b[l])`, where the old `dst[l]` lets a
/// [`Select`](super::lanes::Select) pass keep an inactive lane's value.
///
/// The common case (the compiler allocates a fresh temp for `dst`) borrows
/// all three registers disjointly and runs a bounds-check-free loop the
/// optimizer can vectorize; aliased operands fall back to copying, which
/// is always correct because each lane only reads its own elements.
#[inline(always)]
fn apply2<T: Copy, G: Fn(usize, T, T, T) -> T>(
    regs: &mut [Row<T>],
    n: usize,
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
        for (l, ((d, &x), &y)) in d[..n].iter_mut().zip(&x[..n]).zip(&y[..n]).enumerate() {
            *d = g(l, *d, x, y);
        }
    } else if a == b && dst != a {
        let Ok([d, x]) = regs.get_disjoint_mut([dst, a]) else {
            unreachable!("disjoint registers");
        };
        for (l, (d, &x)) in d[..n].iter_mut().zip(&x[..n]).enumerate() {
            *d = g(l, *d, x, x);
        }
    } else if dst == a && dst == b {
        for (l, v) in regs[dst][..n].iter_mut().enumerate() {
            *v = g(l, *v, *v, *v);
        }
    } else if dst == a {
        // In-place accumulator: each lane reads its own element before
        // writing it, so a pairwise disjoint borrow of [dst, b] suffices.
        let Ok([d, y]) = regs.get_disjoint_mut([dst, b]) else {
            unreachable!("disjoint registers");
        };
        for (l, (d, &y)) in d[..n].iter_mut().zip(&y[..n]).enumerate() {
            *d = g(l, *d, *d, y);
        }
    } else {
        let Ok([d, x]) = regs.get_disjoint_mut([dst, a]) else {
            unreachable!("disjoint registers");
        };
        for (l, (d, &x)) in d[..n].iter_mut().zip(&x[..n]).enumerate() {
            *d = g(l, *d, x, *d);
        }
    }
}

/// Apply `g` lane-wise over the first `n` lanes: `dst[l] = g(l, dst[l],
/// a[l])` (see [`apply2`]).
#[inline(always)]
fn apply1<T: Copy, G: Fn(usize, T, T) -> T>(regs: &mut [Row<T>], n: usize, dst: u16, a: u16, g: G) {
    let (dst, a) = (dst as usize, a as usize);
    if dst != a {
        let Ok([d, x]) = regs.get_disjoint_mut([dst, a]) else {
            unreachable!("disjoint registers");
        };
        for (l, (d, &x)) in d[..n].iter_mut().zip(&x[..n]).enumerate() {
            *d = g(l, *d, x);
        }
    } else {
        for (l, v) in regs[dst][..n].iter_mut().enumerate() {
            *v = g(l, *v, *v);
        }
    }
}
