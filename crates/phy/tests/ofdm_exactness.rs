//! The `ofdm_exactness` sweep: every native FFT tier against the
//! serial-twiddle oracle [`fft_reference`], bit for bit, at every
//! host-ISA ceiling, and the allocation-free OFDM symbol streams
//! against a per-symbol oracle loop built on that same reference.
//!
//! Covers every power-of-two length from 2 to 4096 (so every stage
//! narrower than a vector, and transforms shorter than two vectors),
//! both directions, random inputs and special values (±0, subnormals,
//! large magnitudes).
//!
//! It also checks the vector kernels' memory contract: each call runs
//! on a buffer offset by 0..7 `Cplx` inside a canary-filled guard
//! region, and every canary must survive the call. This is the first
//! entry of the guarded-buffer registry for `unsafe` `std::arch`
//! kernels.
//!
//! Lives in its own integration-test binary because the ISA ceiling is
//! process-global; a single `#[test]` loops the ceilings so masked
//! regions never overlap.

use vran_phy::modulation::Cplx;
use vran_phy::ofdm::{available_fft, best_fft, fft, fft_reference, fft_with, FftImpl, OfdmConfig};
use vran_simd::host::{self, set_isa_ceiling, HostIsa};
use vran_util::rng::SmallRng;

/// The FFT tier `best_fft` must pick under each ceiling (when the host
/// itself is capable enough to reach it).
fn expected_best_fft(ceiling: HostIsa) -> FftImpl {
    match ceiling {
        HostIsa::Scalar => FftImpl::Scalar,
        HostIsa::Sse2 | HostIsa::Ssse3 => FftImpl::Sse2,
        HostIsa::Avx2 | HostIsa::Avx512bw => FftImpl::Avx2,
    }
}

/// The exact `(re, im)` bit patterns of a buffer.
type Bits = Vec<(u32, u32)>;

/// A buffer's [`Bits`], for `to_bits` comparison.
fn bits(v: &[Cplx]) -> Bits {
    v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
}

fn random(n: usize, span: f32, rng: &mut SmallRng) -> Vec<Cplx> {
    (0..n)
        .map(|_| {
            Cplx::new(
                rng.gen_range_f32(-span, span),
                rng.gen_range_f32(-span, span),
            )
        })
        .collect()
}

/// Inputs per length: random at two scales, a signed-zero-only
/// buffer, and random buffers salted with subnormals and large
/// magnitudes. Large values stay below `f32::MAX / (2 · 4096)` so
/// every transform stays finite.
fn fft_inputs(n: usize, rng: &mut SmallRng) -> Vec<Vec<Cplx>> {
    let specials = [
        0.0,
        -0.0,
        f32::from_bits(1),
        -f32::from_bits(1),
        f32::MIN_POSITIVE / 3.0,
        -f32::MIN_POSITIVE * 0.75,
        1e33,
        -3e33,
    ];
    let mut salted = random(n, 2.0, rng);
    for (i, v) in salted.iter_mut().enumerate() {
        if i % 3 == 0 {
            v.re = specials[rng.gen_range_usize(0, specials.len())];
        }
        if i % 4 == 1 {
            v.im = specials[rng.gen_range_usize(0, specials.len())];
        }
    }
    let zeros = (0..n)
        .map(|_| {
            let z = |r: u32| if r & 1 == 0 { 0.0 } else { -0.0 };
            Cplx::new(z(rng.next_u32()), z(rng.next_u32()))
        })
        .collect();
    vec![random(n, 1.0, rng), random(n, 1e4, rng), zeros, salted]
}

const GUARD: usize = 16;
const CANARY: Cplx = Cplx {
    re: f32::from_bits(0x7FA5_A5A5),
    im: f32::from_bits(0xFFC0_FFEE),
};

/// `fft_with(imp, ·)` on `input` placed at offsets 0..7 `Cplx` inside
/// a canary-filled guard region. Checks the canaries after every call
/// and that the result does not depend on the offset; returns it.
fn run_guarded(imp: FftImpl, input: &[Cplx], inverse: bool) -> Vec<Cplx> {
    let n = input.len();
    let mut first: Option<Vec<Cplx>> = None;
    for off in 0..8 {
        let start = GUARD + off;
        let mut region = vec![CANARY; start + n + GUARD];
        region[start..start + n].copy_from_slice(input);
        fft_with(imp, &mut region[start..start + n], inverse);
        for (i, c) in region.iter().enumerate() {
            if !(start..start + n).contains(&i) {
                assert_eq!(
                    bits(&[*c]),
                    bits(&[CANARY]),
                    "{} n={n} inverse={inverse} offset {off}: canary at {i} overwritten",
                    imp.name()
                );
            }
        }
        let out = region[start..start + n].to_vec();
        match &first {
            Some(f) => assert_eq!(
                bits(f),
                bits(&out),
                "{} n={n} inverse={inverse}: result depends on offset {off}",
                imp.name()
            ),
            None => first = Some(out),
        }
    }
    first.expect("eight offsets ran")
}

#[test]
fn every_fft_tier_and_symbol_stream_bit_exact_at_every_isa_ceiling() {
    fft_sweep();
    stream_sweep();
    set_isa_ceiling(None);
}

fn fft_sweep() {
    let mut rng = SmallRng::seed_from_u64(0x0FD3_0001);
    // Inputs and oracle outputs computed once, reused under every
    // ceiling, so a mismatch is attributable to the tier alone.
    let cases: Vec<(Vec<Cplx>, bool, Bits)> = (1..=12)
        .map(|log| 1usize << log)
        .flat_map(|n| fft_inputs(n, &mut rng))
        .flat_map(|input| {
            [false, true].map(|inverse| {
                let mut expect = input.clone();
                fft_reference(&mut expect, inverse);
                assert!(
                    expect.iter().all(|v| v.re.is_finite() && v.im.is_finite()),
                    "the sweep's inputs must keep the transform finite"
                );
                (input.clone(), inverse, bits(&expect))
            })
        })
        .collect();

    for ceiling in HostIsa::all() {
        set_isa_ceiling(Some(ceiling));
        let best = best_fft();
        if host::has(expected_best_fft(ceiling).required_isa()) {
            assert_eq!(
                best,
                expected_best_fft(ceiling),
                "ceiling {}",
                ceiling.name()
            );
        }
        assert_eq!(available_fft().last(), Some(&best));
        for imp in FftImpl::all() {
            if !available_fft().contains(&imp) {
                let refused = std::panic::catch_unwind(|| {
                    fft_with(imp, &mut [Cplx::default(); 8], false);
                });
                assert!(refused.is_err(), "{} ran above the ceiling", imp.name());
            }
        }

        for (input, inverse, expect) in &cases {
            let n = input.len();
            for imp in available_fft() {
                assert_eq!(
                    bits(&run_guarded(imp, input, *inverse)),
                    *expect,
                    "n={n} inverse={inverse} {} under {} ceiling",
                    imp.name(),
                    ceiling.name()
                );
            }
            let mut dispatched = input.clone();
            fft(&mut dispatched, *inverse);
            assert_eq!(bits(&dispatched), *expect, "fft() n={n} inverse={inverse}");
        }
    }
}

/// The old per-symbol modulator, on the oracle transform.
fn modulate_oracle(cfg: &OfdmConfig, symbols: &[Cplx]) -> Vec<Cplx> {
    let (n, cp, used) = (cfg.fft_size, cfg.cp_len, cfg.used_subcarriers);
    let mut out = Vec::new();
    for chunk in symbols.chunks(used) {
        let mut freq = vec![Cplx::default(); n];
        for (i, &s) in chunk.iter().enumerate() {
            freq[bin(cfg, i)] = s;
        }
        fft_reference(&mut freq, true);
        let s = (n as f32).sqrt();
        for v in freq.iter_mut() {
            *v = Cplx::new(v.re * s, v.im * s);
        }
        out.extend_from_slice(&freq[n - cp..]);
        out.extend_from_slice(&freq);
    }
    out
}

/// The old per-symbol demodulator, on the oracle transform.
fn demodulate_oracle(cfg: &OfdmConfig, samples: &[Cplx], n_symbols: usize) -> Vec<Cplx> {
    let n = cfg.fft_size;
    let mut out = Vec::new();
    for chunk in samples.chunks(cfg.symbol_len()) {
        let mut freq = chunk[cfg.cp_len..].to_vec();
        fft_reference(&mut freq, false);
        let s = 1.0 / (n as f32).sqrt();
        for v in freq.iter_mut() {
            *v = Cplx::new(v.re * s, v.im * s);
        }
        out.extend((0..cfg.used_subcarriers).map(|i| freq[bin(cfg, i)]));
        if out.len() >= n_symbols {
            break;
        }
    }
    out.truncate(n_symbols);
    out
}

/// Subcarrier `i`'s FFT bin: negative frequencies at the top, DC
/// skipped.
fn bin(cfg: &OfdmConfig, i: usize) -> usize {
    let half = cfg.used_subcarriers / 2;
    if i < half {
        cfg.fft_size - half + i
    } else {
        i - half + 1
    }
}

fn stream_sweep() {
    let cfg = OfdmConfig::lte5mhz();
    let mut rng = SmallRng::seed_from_u64(0x0FD3_0002);
    let cases: Vec<(Vec<Cplx>, Vec<Cplx>)> = [1usize, 299, 300, 301, 1450, 4200]
        .into_iter()
        .map(|len| {
            let symbols = random(len, 1.3, &mut rng);
            let air = random(
                len.div_ceil(cfg.used_subcarriers) * cfg.symbol_len(),
                0.2,
                &mut rng,
            );
            (symbols, air)
        })
        .collect();
    let expected: Vec<_> = cases
        .iter()
        .map(|(symbols, air)| {
            (
                bits(&modulate_oracle(&cfg, symbols)),
                bits(&demodulate_oracle(&cfg, air, symbols.len())),
            )
        })
        .collect();

    for ceiling in HostIsa::all() {
        set_isa_ceiling(Some(ceiling));
        for ((symbols, air), (tx, rx)) in cases.iter().zip(&expected) {
            let len = symbols.len();
            let at = ceiling.name();
            assert_eq!(
                bits(&cfg.modulate_stream(symbols)),
                *tx,
                "modulate_stream len={len} {at}"
            );
            assert_eq!(
                bits(&cfg.demodulate_stream(air, len)),
                *rx,
                "demodulate_stream len={len} {at}"
            );
            if len == cfg.used_subcarriers {
                assert_eq!(bits(&cfg.modulate(symbols)), *tx, "modulate {at}");
                assert_eq!(bits(&cfg.demodulate(air)), *rx, "demodulate {at}");
            }
        }
    }
}
