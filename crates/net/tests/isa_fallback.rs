//! ISA-ceiling A/B coverage. The `vran-simd` ISA ceiling is the only
//! switch between implementations, so this is where the production
//! path is held bit-exact against its own scalar tiers: every input
//! runs once at the host's best tier and once under a scalar ceiling
//! (a simulated SIMD-less host), and both runs must report identical
//! outcomes, block structure, coded volume and decoder iterations —
//! uplink through `process` and through the stage graph, downlink at
//! two redundancy versions. The lost speedup must surface as
//! `native_simd_fallbacks` / `packed_encoder_fallbacks` metrics
//! events. The zmm tiers get the same treatment one rung up: under an
//! AVX2 ceiling the quad-in-zmm batch decoder and the 512-bit packed
//! encoder must degrade to their narrower kernels bit-exactly, flagged
//! as `batch_simd_fallbacks` / `zmm_encoder_fallbacks`.
//!
//! Lives in its own integration-test binary (= its own process)
//! because the ceiling is process-global: unit tests elsewhere assume
//! the host's full capability set. Within this binary the tests
//! serialize on [`CEILING_LOCK`] for the same reason.

use std::sync::{Arc, Mutex};
use vran_net::downlink::{DownlinkConfig, DownlinkPipeline};
use vran_net::error::PipelineError;
use vran_net::metrics::PipelineMetrics;
use vran_net::packet::{Packet, PacketBuilder, Transport};
use vran_net::pipeline::{PacketResult, PipelineConfig, UplinkPipeline};
use vran_net::{StageGraph, StageGraphConfig};
use vran_simd::host::{set_isa_ceiling, HostIsa};

/// The ISA ceiling is process-global; tests in this binary must not
/// overlap their masked regions.
static CEILING_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` at the host's best tier, then again under a scalar ISA
/// ceiling (cleared afterwards); returns both results.
fn best_and_scalar<T>(f: impl Fn() -> T) -> (T, T) {
    let best = f();
    set_isa_ceiling(Some(HostIsa::Scalar));
    let scalar = f();
    set_isa_ceiling(None);
    (best, scalar)
}

/// `(ok, tb_bits, code_blocks, coded_bits, decoder_iterations)`; a
/// failed packet reports no coded volume.
type Signature = (bool, usize, usize, usize, usize);

fn signature(r: &Result<PacketResult, PipelineError>) -> Signature {
    match r {
        Ok(p) => (
            true,
            p.tb_bits,
            p.code_blocks,
            p.coded_bits,
            p.decoder_iterations,
        ),
        Err(e) => {
            let f = e.decode_failure().copied().unwrap_or_default();
            (false, f.tb_bits, f.code_blocks, 0, f.decoder_iterations)
        }
    }
}

#[test]
fn uplink_outcomes_match_across_isa_ceiling() {
    let _guard = CEILING_LOCK.lock().unwrap();
    // One and several code blocks, good and marginal channels, and a
    // 2 dB channel where the decoder fails: the failure itself (its
    // category inputs and iteration count) must be tier-independent.
    for (size, snr) in [(64usize, 30.0f32), (256, 8.0), (1500, 30.0), (256, 2.0)] {
        let mut b = PacketBuilder::new(1000, 2000);
        let p = b.build(Transport::Udp, size).unwrap();
        let cfg = PipelineConfig {
            snr_db: snr,
            ..Default::default()
        };
        let (best, scalar) = best_and_scalar(|| signature(&UplinkPipeline::new(cfg).process(&p)));
        assert_eq!(best, scalar, "{size} B at {snr} dB diverged");
        if snr == 2.0 {
            assert!(!best.0, "the 2 dB case must exercise a failing decode");
        } else {
            assert!(best.0, "{size} B at {snr} dB must decode");
        }
    }
}

#[test]
fn stagegraph_outcomes_match_across_isa_ceiling() {
    let _guard = CEILING_LOCK.lock().unwrap();
    // Multi-block packets pooled across UEs: quads and pairs at the
    // best tier, narrower kernels under the ceiling.
    let sizes = [900usize, 1400, 1200, 600, 1500, 300];
    let packets: Vec<Packet> = {
        let mut b = PacketBuilder::new(1000, 2000);
        (0..18)
            .map(|i| b.build(Transport::Udp, sizes[i % sizes.len()]).unwrap())
            .collect()
    };
    let run = || {
        let cfg = PipelineConfig {
            snr_db: 12.0,
            ..Default::default()
        };
        let mut graph = StageGraph::with_config(cfg, StageGraphConfig::default());
        for (i, p) in packets.iter().enumerate() {
            graph.admit((i % 3) as u64, p);
        }
        graph.drain();
        let mut out = Vec::new();
        while let Some((ue, r)) = graph.pop_completed() {
            out.push((ue, signature(&r)));
        }
        out
    };
    let (best, scalar) = best_and_scalar(run);
    assert_eq!(best.len(), packets.len());
    assert!(best.iter().any(|(_, s)| s.2 > 1), "multi-block packets");
    assert_eq!(best, scalar);
}

#[test]
fn downlink_outcomes_match_across_isa_ceiling() {
    let _guard = CEILING_LOCK.lock().unwrap();
    for (size, rv) in [(256usize, 0u8), (700, 2)] {
        let mut b = PacketBuilder::new(80, 443);
        let p = b.build(Transport::Udp, size).unwrap();
        let cfg = DownlinkConfig {
            snr_db: 25.0,
            rv,
            ..Default::default()
        };
        let (best, scalar) = best_and_scalar(|| {
            let r = DownlinkPipeline::new(cfg).process(&p);
            (r.dci_ok, r.data_ok, r.code_blocks, r.coded_bits)
        });
        assert_eq!(best, scalar, "size={size} rv={rv}");
        assert!(best.0 && best.1, "size={size} rv={rv}: {best:?}");
    }
}

#[test]
fn native_backend_degrades_to_scalar_kernels_without_simd() {
    let _guard = CEILING_LOCK.lock().unwrap();
    let cfg = PipelineConfig {
        snr_db: 12.0,
        ..Default::default()
    };
    let mut b = PacketBuilder::new(1000, 2000);
    let p = b.build(Transport::Udp, 512).unwrap();

    // Reference outcome with the host's real capabilities.
    let native = UplinkPipeline::new(cfg).process(&p).expect("12 dB decodes");

    // Mask every SIMD tier: the same pipeline must still decode — via
    // the native decoder's scalar kernels — and report the fallback.
    set_isa_ceiling(Some(HostIsa::Scalar));
    let metrics = Arc::new(PipelineMetrics::new(true));
    let masked_pipe = UplinkPipeline::with_metrics(cfg, metrics.clone());
    let masked = masked_pipe.process(&p).expect("scalar fallback decodes");
    set_isa_ceiling(None);

    assert_eq!(masked.tb_bits, native.tb_bits);
    assert_eq!(masked.code_blocks, native.code_blocks);
    assert_eq!(masked.coded_bits, native.coded_bits);
    assert_eq!(
        masked.decoder_iterations, native.decoder_iterations,
        "scalar kernels must be bit-exact with the SIMD path"
    );
    assert_eq!(
        metrics.native_simd_fallbacks.get(),
        1,
        "the lost SIMD speedup must be observable"
    );
    let snap = metrics.snapshot();
    assert_eq!(
        snap.iter()
            .find(|(name, _)| name == "native_simd_fallbacks")
            .map(|(_, v)| *v),
        Some(1.0),
        "fallback events must appear in snapshots: {snap:?}"
    );
}

#[test]
fn batched_decode_degrades_below_avx512_ceiling() {
    let _guard = CEILING_LOCK.lock().unwrap();
    let cfg = PipelineConfig {
        snr_db: 12.0,
        ..Default::default()
    };
    let mut b = PacketBuilder::new(1000, 2000);
    // 1500 B segments into several code blocks, so the staged batch
    // launch actually forms quads/pairs rather than a single leftover.
    let p = b.build(Transport::Udp, 1500).unwrap();
    let staged = |pipe: UplinkPipeline| {
        let mut graph = StageGraph::new(pipe, StageGraphConfig::default());
        graph.admit(0, &p);
        graph.drain();
        graph.pop_completed().expect("one packet in, one out").1
    };

    // Reference outcome with the host's real capabilities (quad-in-zmm
    // where available, pair/single otherwise).
    let full = staged(UplinkPipeline::new(cfg)).expect("12 dB decodes");

    // Cap the ISA at AVX2: the quad kernel is off the table, the batch
    // launch must split into ymm pairs bit-exactly and flag the loss.
    set_isa_ceiling(Some(HostIsa::Avx2));
    let metrics = Arc::new(PipelineMetrics::new(true));
    let masked =
        staged(UplinkPipeline::with_metrics(cfg, metrics.clone())).expect("pair fallback decodes");
    set_isa_ceiling(None);

    assert_eq!(masked.tb_bits, full.tb_bits);
    assert_eq!(masked.code_blocks, full.code_blocks);
    assert_eq!(masked.coded_bits, full.coded_bits);
    assert_eq!(
        masked.decoder_iterations, full.decoder_iterations,
        "pair-split batch decode must be bit-exact with the quad kernel"
    );
    assert_eq!(
        metrics.batch_simd_fallbacks.get(),
        1,
        "the lost zmm speedup must be observable"
    );
    let snap = metrics.snapshot();
    assert_eq!(
        snap.iter()
            .find(|(name, _)| name == "batch_simd_fallbacks")
            .map(|(_, v)| *v),
        Some(1.0),
        "fallback events must appear in snapshots: {snap:?}"
    );
}

#[test]
fn packed_encoder_degrades_below_avx512_ceiling() {
    let _guard = CEILING_LOCK.lock().unwrap();
    let cfg = DownlinkConfig {
        snr_db: 25.0,
        ..Default::default()
    };
    let mut b = PacketBuilder::new(1000, 2000);
    let p = b.build(Transport::Udp, 300).unwrap();

    // Reference outcome with the host's real capabilities.
    let full = DownlinkPipeline::new(cfg).process(&p);
    assert!(full.dci_ok && full.data_ok, "{full:?}");

    // Cap the ISA at AVX2: the packed encoder must drop from the
    // 512-bit kernel to the 256-bit one, stay bit-exact, and report
    // the zmm-tier degradation (but NOT the full word64 fallback).
    set_isa_ceiling(Some(HostIsa::Avx2));
    let metrics = Arc::new(PipelineMetrics::new(true));
    let masked_pipe = DownlinkPipeline::with_metrics(cfg, metrics.clone());
    let masked = masked_pipe.process(&p);
    set_isa_ceiling(None);

    assert_eq!(masked.dci_ok, full.dci_ok);
    assert_eq!(masked.data_ok, full.data_ok);
    assert_eq!(masked.code_blocks, full.code_blocks);
    assert_eq!(masked.coded_bits, full.coded_bits);
    assert!(masked.data_ok, "256-bit fallback must stay bit-exact");
    assert_eq!(
        metrics.zmm_encoder_fallbacks.get(),
        1,
        "the lost zmm speedup must be observable"
    );
    assert_eq!(
        metrics.packed_encoder_fallbacks.get(),
        0,
        "AVX2 is still a SIMD tier, not the word64 floor"
    );
    let snap = metrics.snapshot();
    assert_eq!(
        snap.iter()
            .find(|(name, _)| name == "zmm_encoder_fallbacks")
            .map(|(_, v)| *v),
        Some(1.0),
        "fallback events must appear in snapshots: {snap:?}"
    );
}

#[test]
fn packed_encoder_degrades_to_word64_kernel_without_simd() {
    let _guard = CEILING_LOCK.lock().unwrap();
    let cfg = DownlinkConfig {
        snr_db: 25.0,
        ..Default::default()
    };
    let mut b = PacketBuilder::new(1000, 2000);
    let p = b.build(Transport::Udp, 300).unwrap();

    // Reference outcome with the host's real capabilities.
    let native = DownlinkPipeline::new(cfg).process(&p);
    assert!(native.dci_ok && native.data_ok, "{native:?}");

    // Mask every SIMD tier: the packed encoder must fall back to the
    // portable u64 kernel, stay bit-exact, and report the degradation.
    set_isa_ceiling(Some(HostIsa::Scalar));
    let metrics = Arc::new(PipelineMetrics::new(true));
    let masked_pipe = DownlinkPipeline::with_metrics(cfg, metrics.clone());
    let masked = masked_pipe.process(&p);
    set_isa_ceiling(None);

    assert_eq!(masked.dci_ok, native.dci_ok);
    assert_eq!(masked.data_ok, native.data_ok);
    assert_eq!(masked.code_blocks, native.code_blocks);
    assert_eq!(masked.coded_bits, native.coded_bits);
    assert!(masked.data_ok, "u64 fallback must stay bit-exact");
    assert_eq!(
        metrics.packed_encoder_fallbacks.get(),
        1,
        "the lost SIMD speedup must be observable"
    );
    let snap = metrics.snapshot();
    assert_eq!(
        snap.iter()
            .find(|(name, _)| name == "packed_encoder_fallbacks")
            .map(|(_, v)| *v),
        Some(1.0),
        "fallback events must appear in snapshots: {snap:?}"
    );
}
