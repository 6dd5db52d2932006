//! Runtime dispatch of the min-plus row kernels onto wider vector lanes.
//!
//! The paper gets the data parallelism of its row updates from GPU warps;
//! on a CPU the analog is SIMD lanes. The row kernels on
//! [`DistEntry`](crate::DistEntry) are plain scalar loops of saturating
//! adds and minima, but baseline x86-64 (SSE2) has neither an unsigned
//! 32-bit `min` nor a saturating 32-bit add, nor an unsigned 16-bit
//! `min`, so LLVM leaves them scalar or half-vectorised. Compiled with
//! AVX2 enabled the same loops vectorise: 8 lanes at `u32` (`vpaddd`,
//! `vpminud`) and 16 at `u16`, where the saturating add and the unsigned
//! minimum are single instructions (`vpaddusw`, `vpminuw`). [`lanes`]
//! runs a loop that way when the CPU reports AVX2, and as compiled
//! otherwise; the loop is written once, and both paths compute the same
//! entries.

/// Runs `f` compiled with AVX2 enabled when this is an x86_64 CPU that
/// has it, else runs `f` as compiled. `f` inlines into the
/// AVX2-enabled body, so the loop inside it is vectorised for that body.
#[inline(always)]
#[allow(unsafe_code)]
pub(crate) fn lanes<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: `avx2` is safe apart from its `target_feature`, whose
        // one requirement is that the CPU executing it supports AVX2; the
        // check just above establishes that.
        return unsafe { avx2(f) };
    }
    f()
}

/// `f()`, with the instructions of AVX2 available to the code generated
/// for it. Callers must run it only on a CPU with AVX2 (see [`lanes`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// The code path the min-plus row kernels take on this CPU: `"avx2"` or
/// `"scalar"`. A recorded wall clock names it, since the two differ in
/// speed (never in result).
pub fn kernel_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "scalar"
}
