//! Substrate component costs: FFT/OFDM, CRC, scrambler, rate matcher,
//! QPP interleaver, modulation, Viterbi — the per-module cost
//! backdrop of Figures 3–6.

use vran_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use vran_phy::bits::random_bits;
use vran_phy::crc::CRC24A;
use vran_phy::dci::{conv_encode, viterbi_decode_tb};
use vran_phy::interleaver::QppInterleaver;
use vran_phy::modulation::{Cplx, Modulation};
use vran_phy::ofdm::{available_fft, fft_reference, fft_with, OfdmConfig};
use vran_phy::rate_match::RateMatcher;
use vran_phy::scrambler::scramble_bits;

fn bench_fft(c: &mut Criterion) {
    let mut g = c.benchmark_group("fft");
    for n in [512usize, 2048] {
        let buf: Vec<Cplx> = (0..n)
            .map(|i| Cplx::new((i as f32 * 0.1).sin(), (i as f32 * 0.3).cos()))
            .collect();
        let mut t = buf.clone();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(BenchmarkId::new("reference", n), |b| {
            b.iter(|| {
                t.copy_from_slice(&buf);
                fft_reference(std::hint::black_box(&mut t), false);
            })
        });
        for imp in available_fft() {
            g.bench_function(BenchmarkId::new(imp.name(), n), |b| {
                b.iter(|| {
                    t.copy_from_slice(&buf);
                    fft_with(imp, std::hint::black_box(&mut t), false);
                })
            });
        }
    }
    g.finish();
}

fn bench_ofdm_symbol(c: &mut Criterion) {
    let cfg = OfdmConfig::lte5mhz();
    let syms = Modulation::Qpsk.modulate(&random_bits(600, 1));
    let air = cfg.modulate(&syms);
    let stream = Modulation::Qam16.modulate(&random_bits(4 * 1450, 2));
    let stream_air = cfg.modulate_stream(&stream);
    let mut g = c.benchmark_group("ofdm");
    g.bench_function("modulate", |b| {
        b.iter(|| cfg.modulate(std::hint::black_box(&syms)))
    });
    g.bench_function("demodulate", |b| {
        b.iter(|| cfg.demodulate(std::hint::black_box(&air)))
    });
    g.bench_function("modulate_stream_1450", |b| {
        b.iter(|| cfg.modulate_stream(std::hint::black_box(&stream)))
    });
    g.bench_function("demodulate_stream_1450", |b| {
        b.iter(|| cfg.demodulate_stream(std::hint::black_box(&stream_air), 1450))
    });
    g.finish();
}

fn bench_crc(c: &mut Criterion) {
    let bits = random_bits(12_000, 2);
    let mut g = c.benchmark_group("crc24a");
    g.throughput(Throughput::Elements(12_000));
    g.bench_function("attach_12k", |b| {
        b.iter(|| CRC24A.attach(std::hint::black_box(&bits)))
    });
    g.finish();
}

fn bench_scrambler(c: &mut Criterion) {
    let mut bits = random_bits(36_000, 3);
    let mut g = c.benchmark_group("scrambler");
    g.throughput(Throughput::Elements(36_000));
    g.bench_function("scramble_36k", |b| {
        b.iter(|| scramble_bits(std::hint::black_box(&mut bits), 0x5A5A5))
    });
    g.finish();
}

fn bench_rate_match(c: &mut Criterion) {
    let k = 6144;
    let rm = RateMatcher::new(k + 4);
    let d = [
        random_bits(k + 4, 1),
        random_bits(k + 4, 2),
        random_bits(k + 4, 3),
    ];
    let tx = rm.rate_match(&d, 2 * k, 0);
    let llrs: Vec<i16> = tx.iter().map(|&b| if b == 0 { 50 } else { -50 }).collect();
    let mut g = c.benchmark_group("rate_match");
    g.throughput(Throughput::Elements(2 * k as u64));
    g.bench_function("match_2k", |b| {
        b.iter(|| rm.rate_match(std::hint::black_box(&d), 2 * k, 0))
    });
    g.bench_function("dematch_2k", |b| {
        b.iter(|| rm.de_rate_match(std::hint::black_box(&llrs), 0))
    });
    g.finish();
}

fn bench_interleaver(c: &mut Criterion) {
    let mut g = c.benchmark_group("qpp");
    g.bench_function("build_k6144", |b| b.iter(|| QppInterleaver::new(6144)));
    let il = QppInterleaver::new(6144);
    let data: Vec<i16> = (0..6144).map(|i| i as i16).collect();
    g.throughput(Throughput::Elements(6144));
    g.bench_function("interleave_k6144", |b| {
        b.iter(|| il.interleave(std::hint::black_box(&data)))
    });
    g.finish();
}

fn bench_modulation(c: &mut Criterion) {
    let mut g = c.benchmark_group("modulation");
    for m in Modulation::ALL {
        let bits = random_bits(m.bits_per_symbol() * 4096, 4);
        let syms = m.modulate(&bits);
        g.throughput(Throughput::Elements(4096));
        g.bench_with_input(BenchmarkId::new("demap", m.name()), &syms, |b, syms| {
            b.iter(|| m.demodulate(std::hint::black_box(syms), 1.0))
        });
    }
    g.finish();
}

fn bench_viterbi(c: &mut Criterion) {
    let bits = random_bits(44, 6);
    let coded = conv_encode(&bits);
    let llrs: Vec<i16> = coded
        .iter()
        .map(|&b| if b == 0 { 80 } else { -80 })
        .collect();
    let mut g = c.benchmark_group("dci");
    g.sample_size(20);
    g.bench_function("viterbi_tb_44", |b| {
        b.iter(|| viterbi_decode_tb(std::hint::black_box(&llrs), 44))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = fast();
    targets = bench_fft,
    bench_ofdm_symbol,
    bench_crc,
    bench_scrambler,
    bench_rate_match,
    bench_interleaver,
    bench_modulation,
    bench_viterbi
}

/// Short measurement windows keep `cargo bench --workspace` in CI
/// territory; pass `--measurement-time` on the command line for
/// higher-precision runs.
fn fast() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(1500))
        .sample_size(12)
}

criterion_main!(benches);
