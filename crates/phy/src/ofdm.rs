//! OFDM modulation: a planned radix-2 FFT with native SIMD tiers,
//! subcarrier mapping, cyclic prefix.
//!
//! Parameters mirror the paper's 5 MHz FDD configuration: 512-point
//! FFT, 300 used subcarriers (25 RB × 12), normal CP. The FFT itself is
//! the "do OFDM" scalar workload of Figure 7.
//!
//! # The transform
//!
//! [`fft`] is an iterative radix-2 decimation-in-time FFT driven by a
//! plan built once per size and cached process-wide: the bit-reversal
//! swap list and one twiddle table per stage, for each direction. Each
//! table is generated by running the f32 recurrence `w ← w · wlen`
//! (from `w = 1`) that [`fft_reference`], the original transform kept
//! as the test oracle, runs inside its butterfly loop. The tables
//! therefore hold exactly the reference's twiddles, but the butterflies
//! no longer wait on that serial chain of complex multiplies.
//!
//! The butterflies run at one of three tiers ([`FftImpl`]), chosen
//! under the `vran_simd::host` ISA ceiling like every other native
//! kernel: scalar, SSE2 (2 complex values per xmm) and AVX2 (4 per
//! ymm). There is no AVX-512 tier: at the 512-point size the traffic
//! uses, zmm butterflies save about 3 % of a transform, far below the
//! end-to-end run noise, so AVX-512 hosts run the AVX2 butterflies.
//!
//! # Same op, same order
//!
//! Every tier is bit-identical to [`fft_reference`] whenever the
//! transform produces no NaN. Each butterfly performs the ops of
//! [`Cplx::mul`], [`Cplx::add`] and [`Cplx::sub`] on the same operands,
//! each rounded once:
//!
//! - `b = x · w` forms `x.re·w.re − x.im·w.im` and `x.im·w.re + x.re·w.im`
//!   from twiddles broadcast with `moveldup`/`movehdup` and a re/im swap
//!   of `x`. The real lanes subtract and the imaginary lanes add:
//!   `addsub` on AVX2, and on SSE2 a sign flip followed by an add, which
//!   is exact because IEEE 754 defines `a − b` as `a + (−b)`. The
//!   imaginary sum has its operands swapped, which is exact because
//!   addition commutes.
//! - `a + b` and `a − b` are plain vector adds and subtracts.
//!
//! Stages whose half length is narrower than the vector de-interleave
//! two vectors into block tops and bottoms, run the same butterfly and
//! interleave back; transforms shorter than two vectors run the scalar
//! butterflies.
//!
//! Three classic speedups are excluded because each changes the bits:
//! FMA (one rounding for `a·b + c` where the oracle rounds twice),
//! radix-4 or split-radix (they reassociate the sums across stages and
//! multiply by different twiddle products), and skipping the multiply
//! by the unit twiddle (`x · (1 + 0i)` is not `x` for signed zeros and
//! infinities).

use std::sync::OnceLock;

use crate::modulation::Cplx;
use vran_simd::host::{self, HostIsa};

/// Native FFT tiers, least to most capable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FftImpl {
    /// Tabulated-twiddle scalar butterflies: the dispatch floor.
    Scalar,
    /// Two complex values per xmm.
    Sse2,
    /// Four complex values per ymm.
    Avx2,
}

impl FftImpl {
    /// Stable label for metrics and logs.
    pub fn name(self) -> &'static str {
        match self {
            FftImpl::Scalar => "scalar",
            FftImpl::Sse2 => "sse2",
            FftImpl::Avx2 => "avx2",
        }
    }

    /// Minimum host ISA level this tier needs.
    pub fn required_isa(self) -> HostIsa {
        match self {
            FftImpl::Scalar => HostIsa::Scalar,
            FftImpl::Sse2 => HostIsa::Sse2,
            FftImpl::Avx2 => HostIsa::Avx2,
        }
    }

    /// All tiers, ascending.
    pub fn all() -> [FftImpl; 3] {
        [FftImpl::Scalar, FftImpl::Sse2, FftImpl::Avx2]
    }

    /// Complex values per vector register.
    fn lanes(self) -> usize {
        match self {
            FftImpl::Scalar => 1,
            FftImpl::Sse2 => 2,
            FftImpl::Avx2 => 4,
        }
    }
}

/// The FFT tiers usable on this host (ceiling-aware), ascending.
pub fn available_fft() -> Vec<FftImpl> {
    FftImpl::all()
        .into_iter()
        .filter(|i| host::has(i.required_isa()))
        .collect()
}

/// The most capable FFT tier on this host.
pub fn best_fft() -> FftImpl {
    FftImpl::all()
        .into_iter()
        .rev()
        .find(|i| host::has(i.required_isa()))
        .expect("scalar tier is always available")
}

/// In-place iterative radix-2 decimation-in-time FFT at the best tier.
/// `inverse` selects the IFFT (includes the 1/N scale). Bit-identical
/// to [`fft_reference`].
pub fn fft(buf: &mut [Cplx], inverse: bool) {
    // SAFETY: `best_fft` only returns tiers `host::has` admitted.
    unsafe { transform(best_fft(), buf, inverse) };
    scale_inverse(buf, inverse);
}

/// [`fft`] at an explicit tier.
///
/// # Panics
/// If `imp` is not available on this host (see [`available_fft`]) or
/// the length is not a power of two ≥ 2.
pub fn fft_with(imp: FftImpl, buf: &mut [Cplx], inverse: bool) {
    assert!(
        host::has(imp.required_isa()),
        "FFT tier {} is not available on this host",
        imp.name()
    );
    // SAFETY: the assertion above admitted `imp` on this CPU.
    unsafe { transform(imp, buf, inverse) };
    scale_inverse(buf, inverse);
}

/// The inverse transform's 1/N scale, one multiply per component.
fn scale_inverse(buf: &mut [Cplx], inverse: bool) {
    if inverse {
        let s = 1.0 / buf.len() as f32;
        for v in buf.iter_mut() {
            *v = Cplx::new(v.re * s, v.im * s);
        }
    }
}

/// The original serial-twiddle transform: the oracle every tier of
/// [`fft`] must match bit for bit.
pub fn fft_reference(buf: &mut [Cplx], inverse: bool) {
    let n = buf.len();
    assert!(
        n.is_power_of_two() && n >= 2,
        "FFT length must be a power of two, got {n}"
    );

    // bit-reversal permutation
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if j > i {
            buf.swap(i, j);
        }
    }

    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f32::consts::PI / len as f32;
        let wlen = Cplx::new(ang.cos(), ang.sin());
        for start in (0..n).step_by(len) {
            let mut w = Cplx::new(1.0, 0.0);
            for k in 0..len / 2 {
                let a = buf[start + k];
                let b = buf[start + k + len / 2].mul(w);
                buf[start + k] = a.add(b);
                buf[start + k + len / 2] = a.sub(b);
                w = w.mul(wlen);
            }
        }
        len <<= 1;
    }
    if inverse {
        let s = 1.0 / n as f32;
        for v in buf.iter_mut() {
            *v = Cplx::new(v.re * s, v.im * s);
        }
    }
}

/// Everything about an `n`-point transform that does not depend on the
/// data.
struct FftPlan {
    /// Bit-reversal swaps `(i, j)` with `i < j`.
    swaps: Vec<(u32, u32)>,
    /// Forward twiddles: the stage with half length `h` occupies
    /// `[h − 1, 2h − 1)`, so the table holds `n − 1` entries.
    forward: Vec<Cplx>,
    /// Inverse twiddles, laid out like `forward`.
    inverse: Vec<Cplx>,
}

impl FftPlan {
    fn new(n: usize) -> Self {
        let bits = n.trailing_zeros();
        let swaps = (0..n as u32)
            .map(|i| (i, i.reverse_bits() >> (32 - bits)))
            .filter(|&(i, j)| j > i)
            .collect();
        Self {
            swaps,
            forward: Self::twiddles(n, false),
            inverse: Self::twiddles(n, true),
        }
    }

    /// Every stage's twiddles from the oracle's own recurrence.
    fn twiddles(n: usize, inverse: bool) -> Vec<Cplx> {
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut table = Vec::with_capacity(n - 1);
        let mut len = 2;
        while len <= n {
            let ang = sign * 2.0 * std::f32::consts::PI / len as f32;
            let wlen = Cplx::new(ang.cos(), ang.sin());
            let mut w = Cplx::new(1.0, 0.0);
            for _ in 0..len / 2 {
                table.push(w);
                w = w.mul(wlen);
            }
            len <<= 1;
        }
        table
    }
}

/// The cached plan for `n` (a power of two ≥ 2).
fn plan(n: usize) -> &'static FftPlan {
    static PLANS: [OnceLock<FftPlan>; usize::BITS as usize] =
        [const { OnceLock::new() }; usize::BITS as usize];
    PLANS[n.trailing_zeros() as usize].get_or_init(|| FftPlan::new(n))
}

/// The unscaled transform at tier `imp`: bit reversal, then every
/// butterfly stage.
///
/// # Safety
/// The CPU supports `imp.required_isa()`.
unsafe fn transform(imp: FftImpl, buf: &mut [Cplx], inverse: bool) {
    let n = buf.len();
    assert!(
        n.is_power_of_two() && n >= 2,
        "FFT length must be a power of two, got {n}"
    );
    // The plan indexes with u32, like the oracle's bit reversal.
    assert!(
        n <= 1 << 31,
        "FFT length {n} exceeds the plan's index range"
    );
    let plan = plan(n);
    for &(i, j) in &plan.swaps {
        buf.swap(i as usize, j as usize);
    }
    let tw = if inverse {
        &plan.inverse
    } else {
        &plan.forward
    };
    if n < 2 * imp.lanes() {
        return stages_scalar(buf, tw);
    }
    // Every vector arm below runs with `n` a power of two of at least
    // two vectors and `tw` the plan's `n − 1` twiddles.
    match imp {
        FftImpl::Scalar => stages_scalar(buf, tw),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the caller guarantees this CPU has SSE2.
        FftImpl::Sse2 => unsafe { x86::stages_sse2(buf, tw) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the caller guarantees this CPU has AVX2.
        FftImpl::Avx2 => unsafe { x86::stages_avx2(buf, tw) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => stages_scalar(buf, tw),
    }
}

/// The twiddles of the stage with half length `h`.
fn stage_twiddles(tw: &[Cplx], h: usize) -> &[Cplx] {
    &tw[h - 1..2 * h - 1]
}

/// All butterfly stages with scalar [`Cplx`] arithmetic.
fn stages_scalar(buf: &mut [Cplx], tw: &[Cplx]) {
    let n = buf.len();
    let mut h = 1;
    while h < n {
        let w = stage_twiddles(tw, h);
        for block in buf.chunks_exact_mut(2 * h) {
            let (top, bottom) = block.split_at_mut(h);
            for ((a, x), &w) in top.iter_mut().zip(bottom).zip(w) {
                let b = x.mul(w);
                let a0 = *a;
                *a = a0.add(b);
                *x = a0.sub(b);
            }
        }
        h *= 2;
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The vector tiers. Loads and stores go through fixed-size array
    //! references, so every access is in bounds by its type: a kernel
    //! called with a length it does not support computes a wrong
    //! transform (its `debug_assert!`s catch that) but cannot touch
    //! memory outside `buf`. The entry points are safe
    //! `#[target_feature]` functions; the only `unsafe` left to callers
    //! is that the CPU has the feature.

    use super::{stage_twiddles, Cplx};
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// The stage's `h` twiddles repeated across `V` lanes (`h < V`).
    fn repeat<const V: usize>(w: &[Cplx]) -> [Cplx; V] {
        std::array::from_fn(|j| w[j % w.len()])
    }

    // ---------------------------------------------------------- SSE2

    #[inline]
    #[target_feature(enable = "sse2")]
    fn load2(v: &[Cplx; 2]) -> __m128 {
        // SAFETY: `v` is two `#[repr(C)]` `Cplx` = 4 contiguous f32;
        // `loadu` has no alignment requirement.
        unsafe { _mm_loadu_ps(v.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn store2(v: &mut [Cplx; 2], r: __m128) {
        // SAFETY: as `load2`, writing through a unique reference.
        unsafe { _mm_storeu_ps(v.as_mut_ptr().cast(), r) }
    }

    /// `x · w` lane-wise: `[re − re, im + im]` via a sign flip and add.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn cmul_sse2(x: __m128, w: __m128) -> __m128 {
        let wr = _mm_shuffle_ps::<0b10_10_00_00>(w, w);
        let wi = _mm_shuffle_ps::<0b11_11_01_01>(w, w);
        let xs = _mm_shuffle_ps::<0b10_11_00_01>(x, x);
        let t1 = _mm_mul_ps(x, wr); // [x.re·w.re, x.im·w.re]
        let t2 = _mm_mul_ps(xs, wi); // [x.im·w.im, x.re·w.im]
        let neg_re = _mm_setr_ps(-0.0, 0.0, -0.0, 0.0);
        _mm_add_ps(t1, _mm_xor_ps(t2, neg_re))
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn butterfly_sse2(a: __m128, x: __m128, w: __m128) -> (__m128, __m128) {
        let b = cmul_sse2(x, w);
        (_mm_add_ps(a, b), _mm_sub_ps(a, b))
    }

    /// All butterfly stages, two complex values per xmm. Needs
    /// `n ≥ 4`; callable only where the CPU has SSE2.
    #[target_feature(enable = "sse2")]
    pub fn stages_sse2(buf: &mut [Cplx], tw: &[Cplx]) {
        let n = buf.len();
        debug_assert!(n.is_power_of_two() && n >= 4, "n = {n}");
        debug_assert_eq!(tw.len(), n - 1);
        // h = 1: vectors [x0 x1], [x2 x3] → tops [x0 x2], bottoms [x1 x3].
        let w = load2(&repeat(stage_twiddles(tw, 1)));
        let (vecs, _) = buf.as_chunks_mut::<2>();
        for pair in vecs.chunks_exact_mut(2) {
            let (v0, v1) = (
                _mm_castps_pd(load2(&pair[0])),
                _mm_castps_pd(load2(&pair[1])),
            );
            let a = _mm_castpd_ps(_mm_unpacklo_pd(v0, v1));
            let x = _mm_castpd_ps(_mm_unpackhi_pd(v0, v1));
            let (s, d) = butterfly_sse2(a, x, w);
            let (s, d) = (_mm_castps_pd(s), _mm_castps_pd(d));
            store2(&mut pair[0], _mm_castpd_ps(_mm_unpacklo_pd(s, d)));
            store2(&mut pair[1], _mm_castpd_ps(_mm_unpackhi_pd(s, d)));
        }
        let mut h = 2;
        while h < n {
            let (w, _) = stage_twiddles(tw, h).as_chunks::<2>();
            for block in buf.chunks_exact_mut(2 * h) {
                let (top, bottom) = block.split_at_mut(h);
                let (top, _) = top.as_chunks_mut::<2>();
                let (bottom, _) = bottom.as_chunks_mut::<2>();
                for ((a, x), w) in top.iter_mut().zip(bottom).zip(w) {
                    let (s, d) = butterfly_sse2(load2(a), load2(x), load2(w));
                    store2(a, s);
                    store2(x, d);
                }
            }
            h *= 2;
        }
    }

    // ---------------------------------------------------------- AVX2

    #[inline]
    #[target_feature(enable = "avx2")]
    fn load4(v: &[Cplx; 4]) -> __m256 {
        // SAFETY: `v` is four `#[repr(C)]` `Cplx` = 8 contiguous f32;
        // `loadu` has no alignment requirement.
        unsafe { _mm256_loadu_ps(v.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn store4(v: &mut [Cplx; 4], r: __m256) {
        // SAFETY: as `load4`, writing through a unique reference.
        unsafe { _mm256_storeu_ps(v.as_mut_ptr().cast(), r) }
    }

    /// `x · w` lane-wise: `addsub` subtracts in the real lanes and adds
    /// in the imaginary ones.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn cmul_avx2(x: __m256, w: __m256) -> __m256 {
        let t1 = _mm256_mul_ps(x, _mm256_moveldup_ps(w));
        let t2 = _mm256_mul_ps(_mm256_permute_ps::<0b10_11_00_01>(x), _mm256_movehdup_ps(w));
        _mm256_addsub_ps(t1, t2)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn butterfly_avx2(a: __m256, x: __m256, w: __m256) -> (__m256, __m256) {
        let b = cmul_avx2(x, w);
        (_mm256_add_ps(a, b), _mm256_sub_ps(a, b))
    }

    /// Split (or, applied to the results, re-join) two ymm of a stage
    /// with half length `h ∈ {1, 2}` into block tops and bottoms. Both
    /// shuffles are their own inverse on the (top, bottom) pair.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn swizzle_avx2(h: usize, u: __m256, v: __m256) -> (__m256, __m256) {
        if h == 1 {
            // per 128-bit lane: [u0 v0], [u1 v1]
            let (u, v) = (_mm256_castps_pd(u), _mm256_castps_pd(v));
            (
                _mm256_castpd_ps(_mm256_unpacklo_pd(u, v)),
                _mm256_castpd_ps(_mm256_unpackhi_pd(u, v)),
            )
        } else {
            // [u.lo v.lo], [u.hi v.hi]
            (
                _mm256_permute2f128_ps::<0x20>(u, v),
                _mm256_permute2f128_ps::<0x31>(u, v),
            )
        }
    }

    /// All butterfly stages, four complex values per ymm. Needs
    /// `n ≥ 8`; callable only where the CPU has AVX2.
    #[target_feature(enable = "avx2")]
    pub fn stages_avx2(buf: &mut [Cplx], tw: &[Cplx]) {
        let n = buf.len();
        debug_assert!(n.is_power_of_two() && n >= 8, "n = {n}");
        debug_assert_eq!(tw.len(), n - 1);
        for h in [1, 2] {
            let w = load4(&repeat(stage_twiddles(tw, h)));
            let (vecs, _) = buf.as_chunks_mut::<4>();
            for pair in vecs.chunks_exact_mut(2) {
                let (a, x) = swizzle_avx2(h, load4(&pair[0]), load4(&pair[1]));
                let (s, d) = butterfly_avx2(a, x, w);
                let (o0, o1) = swizzle_avx2(h, s, d);
                store4(&mut pair[0], o0);
                store4(&mut pair[1], o1);
            }
        }
        let mut h = 4;
        while h < n {
            let (w, _) = stage_twiddles(tw, h).as_chunks::<4>();
            for block in buf.chunks_exact_mut(2 * h) {
                let (top, bottom) = block.split_at_mut(h);
                let (top, _) = top.as_chunks_mut::<4>();
                let (bottom, _) = bottom.as_chunks_mut::<4>();
                for ((a, x), w) in top.iter_mut().zip(bottom).zip(w) {
                    let (s, d) = butterfly_avx2(load4(a), load4(x), load4(w));
                    store4(a, s);
                    store4(x, d);
                }
            }
            h *= 2;
        }
    }
}

/// OFDM modulator/demodulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OfdmConfig {
    /// FFT size (512 for 5 MHz LTE).
    pub fft_size: usize,
    /// Used (data) subcarriers, mapped symmetrically around DC.
    pub used_subcarriers: usize,
    /// Cyclic-prefix length in samples.
    pub cp_len: usize,
}

impl OfdmConfig {
    /// The paper's testbed configuration: FDD, 5 MHz (25 RB).
    pub const fn lte5mhz() -> Self {
        Self {
            fft_size: 512,
            used_subcarriers: 300,
            cp_len: 36,
        }
    }

    /// Samples per OFDM symbol including CP.
    pub const fn symbol_len(&self) -> usize {
        self.fft_size + self.cp_len
    }

    /// Frequency-domain bin for data subcarrier `i` (DC skipped,
    /// negative frequencies wrap to the top of the FFT input).
    fn bin(&self, i: usize) -> usize {
        let half = self.used_subcarriers / 2;
        if i < half {
            // negative frequencies: -half .. -1
            self.fft_size - half + i
        } else {
            // positive frequencies: 1 .. half
            i - half + 1
        }
    }

    /// Modulate `used_subcarriers` frequency-domain symbols into one
    /// time-domain OFDM symbol with CP.
    ///
    /// The transform pair is **unitary** (1/√N each direction): white
    /// channel noise of per-axis variance σ² in the time domain stays
    /// σ² per subcarrier, so the AWGN channel's configured SNR is the
    /// SNR the demapper sees.
    pub fn modulate(&self, symbols: &[Cplx]) -> Vec<Cplx> {
        assert_eq!(symbols.len(), self.used_subcarriers);
        self.modulate_stream(symbols)
    }

    /// Demodulate one received OFDM symbol (with CP) back to
    /// frequency-domain subcarrier symbols.
    pub fn demodulate(&self, samples: &[Cplx]) -> Vec<Cplx> {
        assert_eq!(samples.len(), self.symbol_len());
        self.demodulate_stream(samples, self.used_subcarriers)
    }

    /// Modulate a stream of symbols into consecutive OFDM symbols,
    /// zero-padding the final one.
    ///
    /// Each symbol is mapped, transformed and scaled in place inside
    /// the one output allocation. The scale stays the IFFT's 1/N
    /// followed by √N, two multiplies per component.
    pub fn modulate_stream(&self, symbols: &[Cplx]) -> Vec<Cplx> {
        let (n, cp) = (self.fft_size, self.cp_len);
        let n_sym = symbols.len().div_ceil(self.used_subcarriers);
        let mut out = vec![Cplx::default(); n_sym * self.symbol_len()];
        let imp = best_fft();
        let down = 1.0 / n as f32;
        let up = (n as f32).sqrt(); // 1/N · √N = 1/√N net
        for (chunk, sym) in symbols
            .chunks(self.used_subcarriers)
            .zip(out.chunks_exact_mut(self.symbol_len()))
        {
            let (prefix, body) = sym.split_at_mut(cp);
            // bins past a short final chunk stay zero: the padding
            for (i, &s) in chunk.iter().enumerate() {
                body[self.bin(i)] = s;
            }
            // SAFETY: `best_fft` only returns tiers `host::has` admitted.
            unsafe { transform(imp, body, true) };
            for v in body.iter_mut() {
                *v = Cplx::new(v.re * down * up, v.im * down * up);
            }
            prefix.copy_from_slice(&body[n - cp..]);
        }
        out
    }

    /// Demodulate a stream produced by [`OfdmConfig::modulate_stream`],
    /// returning `n_symbols` subcarrier symbols.
    ///
    /// Transforms each symbol in one scratch buffer reused across the
    /// stream and writes the scaled bins straight into the one output
    /// allocation.
    pub fn demodulate_stream(&self, samples: &[Cplx], n_symbols: usize) -> Vec<Cplx> {
        let mut out = Vec::with_capacity(n_symbols);
        let imp = best_fft();
        let s = 1.0 / (self.fft_size as f32).sqrt();
        let mut freq = vec![Cplx::default(); self.fft_size];
        for chunk in samples.chunks(self.symbol_len()) {
            if out.len() >= n_symbols {
                break;
            }
            assert_eq!(chunk.len(), self.symbol_len());
            freq.copy_from_slice(&chunk[self.cp_len..]);
            // SAFETY: `best_fft` only returns tiers `host::has` admitted.
            unsafe { transform(imp, &mut freq, false) };
            let take = (n_symbols - out.len()).min(self.used_subcarriers);
            out.extend((0..take).map(|i| {
                let v = freq[self.bin(i)];
                Cplx::new(v.re * s, v.im * s)
            }));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::random_bits;
    use crate::modulation::Modulation;

    fn close(a: Cplx, b: Cplx, eps: f32) -> bool {
        (a.re - b.re).abs() < eps && (a.im - b.im).abs() < eps
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut buf = vec![Cplx::default(); 64];
        buf[0] = Cplx::new(1.0, 0.0);
        fft(&mut buf, false);
        assert!(buf.iter().all(|&v| close(v, Cplx::new(1.0, 0.0), 1e-4)));
    }

    #[test]
    fn fft_of_single_tone_is_a_bin() {
        let n = 128;
        let k = 5;
        let mut buf: Vec<Cplx> = (0..n)
            .map(|i| {
                let ph = 2.0 * std::f32::consts::PI * (k * i) as f32 / n as f32;
                Cplx::new(ph.cos(), ph.sin())
            })
            .collect();
        fft(&mut buf, false);
        for (i, v) in buf.iter().enumerate() {
            if i == k {
                assert!(close(*v, Cplx::new(n as f32, 0.0), 1e-2), "bin {i}: {v:?}");
            } else {
                assert!(v.norm_sq() < 1e-4, "leakage at bin {i}: {v:?}");
            }
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        let mut buf: Vec<Cplx> = (0..256)
            .map(|i| Cplx::new((i as f32 * 0.37).sin(), (i as f32 * 0.11).cos()))
            .collect();
        let orig = buf.clone();
        fft(&mut buf, false);
        fft(&mut buf, true);
        for (a, b) in buf.iter().zip(&orig) {
            assert!(close(*a, *b, 1e-4));
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let mut buf: Vec<Cplx> = (0..512)
            .map(|i| Cplx::new((i as f32 * 0.7).sin(), (i as f32 * 1.3).sin()))
            .collect();
        let t_energy: f32 = buf.iter().map(|v| v.norm_sq()).sum();
        fft(&mut buf, false);
        let f_energy: f32 = buf.iter().map(|v| v.norm_sq()).sum::<f32>() / 512.0;
        assert!((t_energy - f_energy).abs() / t_energy < 1e-3);
    }

    #[test]
    fn plan_twiddles_follow_the_stage_layout() {
        let p = plan(16);
        assert_eq!(p.forward.len(), 15);
        assert_eq!(p.swaps.len(), 6); // 16 − 4 palindromes, halved
        for h in [1, 2, 4, 8] {
            let w = stage_twiddles(&p.forward, h);
            assert_eq!(w.len(), h);
            assert_eq!(w[0], Cplx::new(1.0, 0.0));
        }
        // the quarter-turn twiddle of the last stage, forward and back
        assert!(close(p.forward[7 + 4], Cplx::new(0.0, -1.0), 1e-6));
        assert!(close(p.inverse[7 + 4], Cplx::new(0.0, 1.0), 1e-6));
    }

    #[test]
    fn best_fft_is_last_available() {
        let avail = available_fft();
        assert_eq!(avail[0], FftImpl::Scalar);
        assert_eq!(best_fft(), *avail.last().unwrap());
    }

    #[test]
    fn ofdm_round_trip_is_transparent() {
        let cfg = OfdmConfig::lte5mhz();
        let bits = random_bits(cfg.used_subcarriers * 2, 7);
        let syms = Modulation::Qpsk.modulate(&bits);
        let tx = cfg.modulate(&syms);
        assert_eq!(tx.len(), 548);
        let rx = cfg.demodulate(&tx);
        for (a, b) in rx.iter().zip(&syms) {
            assert!(close(*a, *b, 1e-3), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn cp_really_is_a_prefix_copy() {
        let cfg = OfdmConfig::lte5mhz();
        let syms = Modulation::Qpsk.modulate(&random_bits(600, 8));
        let tx = cfg.modulate(&syms[..300]);
        assert_eq!(&tx[..cfg.cp_len], &tx[cfg.fft_size..]);
    }

    #[test]
    fn stream_round_trip_with_padding() {
        let cfg = OfdmConfig::lte5mhz();
        let bits = random_bits(1450 * 2, 3);
        let syms = Modulation::Qpsk.modulate(&bits);
        let tx = cfg.modulate_stream(&syms);
        assert_eq!(tx.len(), 5 * cfg.symbol_len()); // ceil(1450/300) = 5
        let rx = cfg.demodulate_stream(&tx, syms.len());
        assert_eq!(rx.len(), syms.len());
        for (a, b) in rx.iter().zip(&syms) {
            assert!(close(*a, *b, 1e-3));
        }
    }
}
