//! Downlink pipeline: PDCCH (DCI over the tail-biting convolutional
//! code) followed by PDSCH (the turbo-coded data channel), optionally
//! over a frequency-selective fading channel with pilot-based
//! equalization.
//!
//! The UE side is honest about its information: it decodes the DCI
//! first and takes the data channel's modulation and redundancy
//! version *from the decoded grant*, so a corrupted PDCCH fails the
//! whole subframe exactly as it would on air.
//!
//! PDSCH runs the same production path as the uplink: the packed
//! encoder and rate matcher on transmit; the SIMD front end, fused
//! de-rate-match/APCM ingest and the native turbo decoder on receive,
//! each at the best tier the `vran_simd::host` ISA ceiling allows.

use crate::metrics::PipelineMetrics;
use crate::packet::Packet;
use crate::pipeline::{record_encoder_tier, HotState};
use std::cell::RefCell;
use std::sync::Arc;
use vran_arrange::{best_fused, fused_ingest_into};
use vran_phy::bits::{pack_msb, unpack_msb};
use vran_phy::channel::AwgnChannel;
use vran_phy::crc::{best_crc, CRC24A, CRC24B};
use vran_phy::dci::{conv_encode_streams, llrs_from_streams, viterbi_decode_tb, Dci};
use vran_phy::demap::{best_demap, demap_with};
use vran_phy::equalizer::{Equalizer, FadingChannel};
use vran_phy::llr::{Llr, TailLlrs};
use vran_phy::modulation::{Cplx, Modulation};
use vran_phy::rate_match::conv::ConvRateMatcher;
use vran_phy::scrambler::{best_descramble, descramble_llrs_with, scramble_bits};
use vran_phy::segmentation::Segmentation;

/// Downlink configuration.
#[derive(Debug, Clone, Copy)]
pub struct DownlinkConfig {
    /// PDSCH modulation (PDCCH is always QPSK).
    pub modulation: Modulation,
    /// Es/N0 in dB.
    pub snr_db: f32,
    /// Turbo iteration cap.
    pub decoder_iterations: usize,
    /// Use the frequency-selective fading channel + equalizer instead
    /// of flat AWGN.
    pub fading: bool,
    /// Redundancy version signaled in the DCI.
    pub rv: u8,
    /// Channel seed.
    pub seed: u64,
}

impl Default for DownlinkConfig {
    fn default() -> Self {
        Self {
            modulation: Modulation::Qam16,
            snr_db: 16.0,
            decoder_iterations: 6,
            fading: false,
            rv: 0,
            seed: 1,
        }
    }
}

/// Outcome of one downlink subframe.
#[derive(Debug, Clone)]
pub struct DownlinkResult {
    /// PDCCH decoded to the transmitted grant.
    pub dci_ok: bool,
    /// PDSCH decoded and the frame CRC passed.
    pub data_ok: bool,
    /// Code blocks in the transport block.
    pub code_blocks: usize,
    /// Coded PDSCH bits.
    pub coded_bits: usize,
}

/// MCS index → modulation for the simplified grant table.
fn mcs_to_modulation(mcs: u8) -> Modulation {
    match mcs {
        0..=9 => Modulation::Qpsk,
        10..=19 => Modulation::Qam16,
        _ => Modulation::Qam64,
    }
}

fn modulation_to_mcs(m: Modulation) -> u8 {
    match m {
        Modulation::Qpsk => 5,
        Modulation::Qam16 => 15,
        Modulation::Qam64 => 25,
    }
}

/// The downlink pipeline.
#[derive(Debug, Clone)]
pub struct DownlinkPipeline {
    cfg: DownlinkConfig,
    eq: Equalizer,
    metrics: Option<Arc<PipelineMetrics>>,
    hot: RefCell<HotState>,
}

/// Subcarriers per resource grid (5 MHz).
const GRID: usize = 300;

/// PDSCH scrambling seed.
const PDSCH_C_INIT: u32 = 0xC0FFEE & 0x7FFF_FFFF;

impl DownlinkPipeline {
    /// New pipeline.
    pub fn new(cfg: DownlinkConfig) -> Self {
        Self {
            cfg,
            eq: Equalizer::lte(),
            metrics: None,
            hot: RefCell::default(),
        }
    }

    /// New pipeline recording into `metrics`.
    pub fn with_metrics(cfg: DownlinkConfig, metrics: Arc<PipelineMetrics>) -> Self {
        Self {
            metrics: Some(metrics),
            ..Self::new(cfg)
        }
    }

    /// The attached metrics registry, if any.
    pub fn metrics(&self) -> Option<&PipelineMetrics> {
        self.metrics.as_deref()
    }

    /// Turbo-encode + rate-match every code block through the packed
    /// encoder; returns the concatenated coded bits and the per-block
    /// rate-match lengths.
    fn encode_blocks(&self, blocks: &[Vec<u8>]) -> (Vec<u8>, Vec<usize>) {
        let cfg = &self.cfg;
        let m = self.metrics.as_deref().filter(|m| m.is_enabled());
        let mut coded = Vec::new();
        let mut block_e = Vec::with_capacity(blocks.len());
        let hot = &mut *self.hot.borrow_mut();
        record_encoder_tier(m);
        for blk in blocks {
            let e = (2 * blk.len()).next_multiple_of(cfg.modulation.bits_per_symbol() * 2);
            hot.encode_block(blk, e, cfg.rv as usize & 3, m, &mut coded);
            block_e.push(e);
        }
        (coded, block_e)
    }

    /// De-rate-match, arrange and decode every code block of a received
    /// PDSCH at redundancy version `rv` — the uplink serial path's
    /// calls (per-block CRC24B early stop when the TB segments).
    /// Returns whether every block decoded and its CRC, where present,
    /// passed; the bits land in `hot.bits_pool[..blocks.len()]`.
    fn decode_blocks(
        &self,
        hot: &mut HotState,
        llrs: &[Llr],
        blocks: &[Vec<u8>],
        block_e: &[usize],
        rv: usize,
    ) -> bool {
        if hot.bits_pool.len() < blocks.len() {
            hot.bits_pool.resize_with(blocks.len(), Vec::new);
        }
        let crc = (blocks.len() > 1).then_some(&CRC24B);
        let mut pos = 0;
        for (i, (blk, &e)) in blocks.iter().zip(block_e).enumerate() {
            let k = blk.len();
            if pos + e > llrs.len() {
                return false;
            }
            let rmi = hot.rm_index(k + 4);
            if hot.rms[rmi]
                .1
                .try_de_rate_match_interleaved_into(&llrs[pos..pos + e], rv, &mut hot.inter)
                .is_err()
            {
                return false;
            }
            pos += e;
            let tails = TailLlrs::from_interleaved(&hot.inter, k);
            let mut s = hot.acquire_streams(k, None);
            fused_ingest_into(
                best_fused(),
                &hot.inter,
                k,
                &mut s.sys,
                &mut s.p1,
                &mut s.p2,
            );
            let di = hot.decoder_index(k, self.cfg.decoder_iterations, false);
            let (_, crc_ok) = hot.natives[di].decode_streams_capped_into(
                &s.sys,
                &s.p1,
                &s.p2,
                &tails,
                self.cfg.decoder_iterations,
                crc,
                &mut hot.scratch,
                &mut hot.bits_pool[i],
            );
            hot.recycle(s);
            if crc_ok == Some(false) {
                return false;
            }
        }
        true
    }

    /// Transmit symbols over the configured channel and return
    /// equalized data symbols plus LLR weights.
    fn channel_pass(&self, data: &[Cplx], seed: u64) -> (Vec<Cplx>, f32) {
        if self.cfg.fading {
            let mut out = Vec::with_capacity(data.len());
            let n_pilots = self.eq.pilot_positions(GRID).len();
            let per_grid = GRID - n_pilots;
            let mut chan = FadingChannel::new(GRID, self.cfg.snr_db, 3, seed);
            for chunk in data.chunks(per_grid) {
                let mut d = chunk.to_vec();
                d.resize(per_grid, Cplx::default());
                let (grid, _) = self.eq.insert_pilots(&d, GRID);
                let rx = chan.apply(&grid);
                let h = self.eq.estimate(&rx);
                let (eq_syms, _w) = self.eq.equalize(&rx, &h);
                out.extend_from_slice(&eq_syms[..chunk.len().min(eq_syms.len())]);
            }
            out.truncate(data.len());
            (out, 1.0)
        } else {
            let mut chan = AwgnChannel::new(self.cfg.snr_db, seed);
            let rx = chan.apply(data);
            let scale = (chan.llr_scale() / 8.0).clamp(0.25, 16.0);
            (rx, scale)
        }
    }

    /// Process one subframe carrying `packet` as its transport block.
    pub fn process(&self, packet: &Packet) -> DownlinkResult {
        let cfg = &self.cfg;

        // ---- eNB: PDCCH (conv code + §5.1.4.2 rate matching at
        // aggregation level 2 = 144 coded bits, QPSK) ----
        const PDCCH_E: usize = 144;
        let grant = Dci {
            rb_assignment: 25,
            mcs: modulation_to_mcs(cfg.modulation),
            harq: 0,
            ndi: true,
            rv: cfg.rv & 3,
        };
        let dci_streams = conv_encode_streams(&grant.to_bits());
        let crm = ConvRateMatcher::new(Dci::BITS);
        let dci_coded = crm.rate_match(&dci_streams, PDCCH_E);
        let pdcch_syms = Modulation::Qpsk.modulate(&dci_coded);

        // ---- eNB: PDSCH ----
        let frame_bits = unpack_msb(&packet.frame, packet.frame.len() * 8);
        let tb = CRC24A.attach_with(best_crc(), &frame_bits);
        let seg = Segmentation::plan(tb.len());
        let blocks = seg.segment(&tb);
        let (coded, block_e) = self.encode_blocks(&blocks);
        let bps = cfg.modulation.bits_per_symbol();
        let padded = coded.len().next_multiple_of(bps);
        let mut tx_bits = coded;
        tx_bits.resize(padded, 0);
        scramble_bits(&mut tx_bits, PDSCH_C_INIT);
        let pdsch_syms = cfg.modulation.modulate(&tx_bits);

        // ---- channel (control then data, separate passes) ----
        let (rx_pdcch, ctrl_scale) = self.channel_pass(&pdcch_syms, cfg.seed);
        let (rx_pdsch, data_scale) = self.channel_pass(&pdsch_syms, cfg.seed ^ 0xD5D5);

        // ---- UE: decode the grant first (de-rate-match, then the
        // tail-biting Viterbi; the 144→66 repetition combines) ----
        let dci_llrs = demap_with(best_demap(), Modulation::Qpsk, &rx_pdcch, ctrl_scale);
        let dci_d = crm.de_rate_match(&dci_llrs[..PDCCH_E]);
        let rx_bits = viterbi_decode_tb(&llrs_from_streams(&dci_d), Dci::BITS);
        let rx_grant = Dci::from_bits(&rx_bits);
        let dci_ok = rx_grant == grant;
        if !dci_ok {
            return DownlinkResult {
                dci_ok,
                data_ok: false,
                code_blocks: blocks.len(),
                coded_bits: padded,
            };
        }

        // ---- UE: PDSCH with parameters FROM THE GRANT ----
        let ue_mod = mcs_to_modulation(rx_grant.mcs);
        let mut llrs = demap_with(best_demap(), ue_mod, &rx_pdsch, data_scale);
        llrs.truncate(padded);
        descramble_llrs_with(best_descramble(), &mut llrs, PDSCH_C_INIT);

        let hot = &mut *self.hot.borrow_mut();
        let data_ok = self.decode_blocks(hot, &llrs, &blocks, &block_e, rx_grant.rv as usize)
            && seg
                .desegment(&hot.bits_pool[..blocks.len()])
                .and_then(|tb_bits| {
                    CRC24A
                        .check_with(best_crc(), &tb_bits)
                        .map(|p| pack_msb(p) == packet.frame.to_vec())
                })
                .unwrap_or(false);

        DownlinkResult {
            dci_ok,
            data_ok,
            code_blocks: blocks.len(),
            coded_bits: padded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{PacketBuilder, Transport};

    fn packet(size: usize) -> Packet {
        PacketBuilder::new(80, 443)
            .build(Transport::Udp, size)
            .unwrap()
    }

    #[test]
    fn awgn_downlink_closes_the_loop() {
        let cfg = DownlinkConfig {
            snr_db: 25.0,
            ..Default::default()
        };
        let r = DownlinkPipeline::new(cfg).process(&packet(256));
        assert!(r.dci_ok, "{r:?}");
        assert!(r.data_ok, "{r:?}");
    }

    #[test]
    fn fading_downlink_closes_the_loop_with_equalization() {
        let cfg = DownlinkConfig {
            fading: true,
            snr_db: 24.0,
            modulation: Modulation::Qpsk,
            decoder_iterations: 8,
            ..Default::default()
        };
        let r = DownlinkPipeline::new(cfg).process(&packet(200));
        assert!(r.dci_ok, "{r:?}");
        assert!(r.data_ok, "equalized fading downlink must decode: {r:?}");
    }

    #[test]
    fn grant_signals_modulation_and_rv() {
        // 64-QAM + rv 2 must round-trip purely via the decoded DCI.
        let cfg = DownlinkConfig {
            modulation: Modulation::Qam64,
            rv: 2,
            snr_db: 26.0,
            ..Default::default()
        };
        let r = DownlinkPipeline::new(cfg).process(&packet(512));
        assert!(r.dci_ok && r.data_ok, "{r:?}");
    }

    #[test]
    fn destroyed_control_channel_fails_the_subframe() {
        let cfg = DownlinkConfig {
            snr_db: -12.0,
            decoder_iterations: 2,
            ..Default::default()
        };
        let r = DownlinkPipeline::new(cfg).process(&packet(128));
        assert!(!r.data_ok, "data must not pass without a grant: {r:?}");
    }

    #[test]
    fn downlink_hot_loop_reuses_encode_scratch() {
        let cfg = DownlinkConfig {
            snr_db: 25.0,
            ..Default::default()
        };
        let pipe = DownlinkPipeline::new(cfg);
        let p = packet(256);
        for _ in 0..4 {
            assert!(pipe.process(&p).data_ok);
        }
        let hot = pipe.hot.borrow();
        assert!(hot.enc_scratch.allocations() > 0);
        assert!(
            hot.enc_scratch.reuses() >= 3,
            "steady-state encodes must reuse scratch: allocs={} reuses={}",
            hot.enc_scratch.allocations(),
            hot.enc_scratch.reuses()
        );
    }

    #[test]
    fn mcs_table_round_trips() {
        for m in Modulation::ALL {
            assert_eq!(mcs_to_modulation(modulation_to_mcs(m)), m);
        }
    }
}
