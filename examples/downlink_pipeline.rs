//! Drive control + data subframes through the complete downlink chain
//! (grant → turbo encode → rate match → OFDM → AWGN → decode) at the
//! host's best ISA tier and again under a scalar ISA ceiling — the
//! ceiling is the only switch between implementations, and every tier
//! is bit-exact — then show what the packed-word encoder buys: per-ISA
//! encode throughput at K=6144 and a multi-worker scale-out sweep.
//!
//! ```text
//! cargo run --release -p apcm --example downlink_pipeline
//! ```

use std::time::Instant;
use vran_net::downlink::{DownlinkConfig, DownlinkPipeline};
use vran_net::packet::{PacketBuilder, Transport};
use vran_net::runner::downlink_scaleout_sweep;
use vran_phy::bits::random_bits;
use vran_phy::turbo::{EncodeScratch, EncoderIsa, PackedTurboEncoder, TurboEncoder};
use vran_simd::host::{set_isa_ceiling, HostIsa};

fn main() {
    println!("== downlink pipeline: QPSK PDCCH + 16-QAM PDSCH over 25 dB AWGN ==\n");
    let mut outcomes = Vec::new();
    for (tier, ceiling) in [("best", None), ("scalar", Some(HostIsa::Scalar))] {
        set_isa_ceiling(ceiling);
        let cfg = DownlinkConfig {
            snr_db: 25.0,
            ..Default::default()
        };
        let pipe = DownlinkPipeline::new(cfg);
        println!("--- ISA tier: {tier} ---");
        println!(
            "{:>6}  {:>5}  {:>4}  {:>5}  {:>9}  {:>7}  {:>8}",
            "size", "proto", "dci", "data", "coded", "blocks", "µs"
        );
        let mut rows = Vec::new();
        for transport in [Transport::Udp, Transport::Tcp] {
            let mut b = PacketBuilder::new(5060, 5060);
            for size in [64usize, 512, 1500] {
                let p = b.build(transport, size).expect("valid size");
                let t = Instant::now();
                let r = pipe.process(&p);
                let us = t.elapsed().as_secs_f64() * 1e6;
                assert!(r.dci_ok && r.data_ok, "25 dB must decode: {r:?}");
                println!(
                    "{:>6}  {:>5}  {:>4}  {:>5}  {:>9}  {:>7}  {:>8.0}",
                    size,
                    transport.name(),
                    "✓",
                    "✓",
                    r.coded_bits,
                    r.code_blocks,
                    us,
                );
                rows.push((r.dci_ok, r.data_ok, r.coded_bits, r.code_blocks));
            }
        }
        outcomes.push(rows);
        println!();
    }
    set_isa_ceiling(None);
    assert_eq!(outcomes[0], outcomes[1], "ISA tiers must agree bit-for-bit");
    println!("both ISA tiers produced identical subframes ✓\n");

    // Packed encode throughput per ISA tier against the per-bit
    // reference encoder, at the largest block size.
    const K: usize = 6144;
    const REPS: u32 = 200;
    let bits = random_bits(K, 7);
    let scalar_ns = {
        let enc = TurboEncoder::new(K);
        let t = Instant::now();
        for _ in 0..REPS {
            std::hint::black_box(enc.encode(std::hint::black_box(&bits)));
        }
        t.elapsed().as_nanos() as f64 / f64::from(REPS)
    };
    println!("== turbo encode, K=6144, {REPS} reps ==");
    println!(
        "{:>8}  {:>10}  {:>9}  {:>8}",
        "kernel", "ns/block", "Mbit/s", "speedup"
    );
    println!(
        "{:>8}  {:>10.0}  {:>9.0}  {:>8}",
        "scalar",
        scalar_ns,
        K as f64 / scalar_ns * 1e3,
        "1.00x"
    );
    for isa in EncoderIsa::available() {
        let enc = PackedTurboEncoder::with_isa(K, isa);
        let mut scratch = EncodeScratch::new();
        let t = Instant::now();
        for _ in 0..REPS {
            enc.encode_dstreams_into(std::hint::black_box(&bits), &mut scratch);
            std::hint::black_box(scratch.dstream_words());
        }
        let ns = t.elapsed().as_nanos() as f64 / f64::from(REPS);
        println!(
            "{:>8}  {:>10.0}  {:>9.0}  {:>7.2}x",
            isa.name(),
            ns,
            K as f64 / ns * 1e3,
            scalar_ns / ns
        );
    }
    println!();

    // Multi-worker scale-out: one downlink pipeline per worker thread.
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get().clamp(2, 4));
    let cfg = DownlinkConfig {
        snr_db: 30.0,
        ..Default::default()
    };
    println!("== downlink scale-out sweep: 24 × 256 B UDP packets ==");
    println!(
        "{:>7}  {:>8}  {:>9}  {:>5}",
        "workers", "Mbps", "Mbps/core", "ok"
    );
    for pt in downlink_scaleout_sweep(cfg, Transport::Udp, 256, 24, workers) {
        println!(
            "{:>7}  {:>8.2}  {:>9.2}  {:>3}/{}",
            pt.workers, pt.mbps, pt.mbps_per_core, pt.ok_packets, pt.packets
        );
    }
}
