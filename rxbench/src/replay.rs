//! Per-layer replay: each packet goes through the same public kernel
//! calls `UplinkPipeline` and `StageGraph` make, in the same order,
//! and every call is timed from outside the program.
//!
//! Decode tasks pool by K under the stage graph's flush policy (four
//! lanes full, age bound, ROB pressure, end-of-run drain), so decode
//! time is measured on the same quad/pair/single launches the program
//! ran. The caller compares the replay's outcomes and launch counts
//! with the program's: if a refactor makes them drift, the benchmark
//! fails instead of attributing time to calls the program no longer
//! makes.

use std::collections::HashMap;
use std::time::Instant;
use vran_arrange::{best_fused, fused_ingest_into};
use vran_net::error::{DecodeFailure, ErrorCategory, PipelineError};
use vran_net::l2::{BearerRx, BearerTx, L2_OVERHEAD};
use vran_net::packet::ParsedPacket;
use vran_net::pipeline::{PacketResult, PipelineConfig, MAX_CODE_BLOCKS};
use vran_net::stagegraph::StageGraphConfig;
use vran_phy::bits::{extend_bits_from_words, pack_msb, unpack_msb};
use vran_phy::channel::AwgnChannel;
use vran_phy::crc::{best_crc, CRC24A, CRC24B};
use vran_phy::demap::{best_demap, demap_into};
use vran_phy::llr::{Llr, SoftStreams, TailLlrs, TurboLlrs};
use vran_phy::ofdm::OfdmConfig;
use vran_phy::rate_match::{PackedRateMatcher, RateMatcher};
use vran_phy::scrambler::{best_descramble, descramble_llrs_with, scramble_bits, GoldSequence};
use vran_phy::segmentation::Segmentation;
use vran_phy::turbo::native_batch::{BATCH, QUAD};
use vran_phy::turbo::{
    BatchScratch, BlockLlrs, DecodeScratch, EncodeScratch, NativeBatchTurboDecoder,
    NativeTurboDecoder, PackedTurboEncoder,
};

/// Timed layers in pipeline order. Everything up to [`Span::ChanAwgn`]
/// is the traffic generator and channel (the harness); the rest is the
/// receiver under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// Ingress parse, L2 encapsulation, CRC24A attach, segmentation.
    TxTbBuild,
    TxEncode,
    TxRateMatch,
    /// Scrambling and symbol mapping.
    TxModulate,
    TxIfft,
    ChanAwgn,
    RxFft,
    RxDemap,
    RxDescramble,
    /// De-rate-match into the triple-interleaved layout, tail LLRs.
    RxDerateMatch,
    /// Stream-buffer acquire and fused APCM ingest.
    RxArrange,
    RxDecode,
    /// Per-block CRC24B, desegmentation, CRC24A, L2 delivery check.
    RxTbCheck,
}

/// Every span with its metric name.
pub const SPANS: [(Span, &str); 13] = [
    (Span::TxTbBuild, "tx.tb_build"),
    (Span::TxEncode, "tx.encode"),
    (Span::TxRateMatch, "tx.rate_match"),
    (Span::TxModulate, "tx.modulate"),
    (Span::TxIfft, "tx.ifft"),
    (Span::ChanAwgn, "chan.awgn"),
    (Span::RxFft, "rx.fft"),
    (Span::RxDemap, "rx.demap"),
    (Span::RxDescramble, "rx.descramble"),
    (Span::RxDerateMatch, "rx.derate_match"),
    (Span::RxArrange, "rx.arrange"),
    (Span::RxDecode, "rx.decode"),
    (Span::RxTbCheck, "rx.tb_check"),
];

impl Span {
    pub fn is_harness(self) -> bool {
        (self as usize) <= Span::ChanAwgn as usize
    }
}

/// A packet's outcome, reduced to what both the program and the replay
/// can state: error category, sizes and decoder iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub error: Option<ErrorCategory>,
    pub failure: DecodeFailure,
    /// Rate-matched bits on the air; known only for delivered packets.
    pub coded_bits: usize,
}

impl Outcome {
    pub fn of(r: &Result<PacketResult, PipelineError>) -> Self {
        match r {
            Ok(p) => Self::delivered(p.tb_bits, p.code_blocks, p.decoder_iterations, p.coded_bits),
            Err(e) => Self::failed(
                e.category(),
                e.decode_failure().copied().unwrap_or_default(),
            ),
        }
    }

    fn delivered(tb_bits: usize, code_blocks: usize, iterations: usize, coded_bits: usize) -> Self {
        Self {
            error: None,
            failure: DecodeFailure {
                tb_bits,
                code_blocks,
                failed_blocks: 0,
                decoder_iterations: iterations,
            },
            coded_bits,
        }
    }

    fn failed(error: ErrorCategory, failure: DecodeFailure) -> Self {
        Self {
            error: Some(error),
            failure,
            coded_bits: 0,
        }
    }
}

/// Decode launches and pool flushes, counted the way
/// `StageGraphMetrics` counts them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Launches {
    pub quad_blocks: u64,
    pub pair_blocks: u64,
    pub single_blocks: u64,
    pub lanes_full: u64,
    pub age: u64,
    pub drain: u64,
}

impl Launches {
    /// Counts accumulated after `earlier` was taken.
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            quad_blocks: self.quad_blocks - earlier.quad_blocks,
            pair_blocks: self.pair_blocks - earlier.pair_blocks,
            single_blocks: self.single_blocks - earlier.single_blocks,
            lanes_full: self.lanes_full - earlier.lanes_full,
            age: self.age - earlier.age,
            drain: self.drain - earlier.drain,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Flush {
    LanesFull,
    Age,
    Drain,
}

#[derive(Debug)]
struct Task {
    id: usize,
    block: usize,
    llrs: TurboLlrs,
    staged_at: u64,
    /// Multi-block packets carry CRC24B, so early stop can apply.
    multi: bool,
}

#[derive(Debug)]
struct Pool {
    k: usize,
    dec: NativeBatchTurboDecoder,
    tasks: Vec<Task>,
}

#[derive(Debug)]
struct InFlight {
    frame: Vec<u8>,
    seg: Segmentation,
    tb_bits: usize,
    coded_bits: usize,
    bits: Vec<Vec<u8>>,
    remaining: usize,
    iterations: usize,
}

/// The replay engine: per-K kernel objects and scratch built once and
/// reused, as the program caches them, plus the span totals.
#[derive(Debug)]
pub struct Replay {
    cfg: PipelineConfig,
    sg: StageGraphConfig,
    ofdm: OfdmConfig,
    c_init: u32,
    encoders: Vec<PackedTurboEncoder>,
    tx_rms: Vec<PackedRateMatcher>,
    /// De-rate-matchers keyed by stream length `d = K + 4`.
    rx_rms: Vec<(usize, RateMatcher)>,
    singles: Vec<NativeTurboDecoder>,
    enc_scratch: EncodeScratch,
    wbuf: Vec<u64>,
    ebuf: Vec<u64>,
    inter: Vec<Llr>,
    batch_scratch: BatchScratch,
    scratch: DecodeScratch,
    lane_bits: [Vec<u8>; QUAD],
    probe_bits: Vec<u8>,
    free: Vec<SoftStreams>,
    pools: Vec<Pool>,
    in_flight: HashMap<usize, InFlight>,
    tick: u64,
    /// Nanoseconds per span, indexed by `Span as usize`.
    pub ns: [u64; SPANS.len()],
    pub launches: Launches,
    pub blocks: u64,
    /// Iterations the launches ran, summed over blocks.
    pub iters_run: u64,
    /// Iterations the CRC-early-stop serial decoder needs for the same
    /// blocks (measured untimed, after each flush).
    pub iters_needed: u64,
    /// Finished packets: `(id, outcome)`, in completion order.
    pub done: Vec<(usize, Outcome)>,
}

impl Replay {
    pub fn new(cfg: PipelineConfig, sg: StageGraphConfig) -> Self {
        Self {
            cfg,
            sg,
            ofdm: OfdmConfig::lte5mhz(),
            // The uplink pipeline's fixed scrambling identity.
            c_init: GoldSequence::c_init_pxsch(0x1234, 0, 4, 42),
            encoders: Vec::new(),
            tx_rms: Vec::new(),
            rx_rms: Vec::new(),
            singles: Vec::new(),
            enc_scratch: EncodeScratch::default(),
            wbuf: Vec::new(),
            ebuf: Vec::new(),
            inter: Vec::new(),
            batch_scratch: BatchScratch::default(),
            scratch: DecodeScratch::default(),
            lane_bits: Default::default(),
            probe_bits: Vec::new(),
            free: Vec::new(),
            pools: Vec::new(),
            in_flight: HashMap::new(),
            tick: 0,
            ns: [0; SPANS.len()],
            launches: Launches::default(),
            blocks: 0,
            iters_run: 0,
            iters_needed: 0,
            done: Vec::new(),
        }
    }

    /// Build every per-K object on `frames`, then zero the tallies.
    pub fn warm(&mut self, frames: &[&[u8]]) -> Result<(), String> {
        for (i, f) in frames.iter().enumerate() {
            self.admit(i, f)?;
        }
        self.drain();
        self.ns = [0; SPANS.len()];
        self.launches = Launches::default();
        self.blocks = 0;
        self.iters_run = 0;
        self.iters_needed = 0;
        self.done.clear();
        Ok(())
    }

    fn lap(&mut self, span: Span, since: Instant) {
        self.ns[span as usize] += since.elapsed().as_nanos() as u64;
    }

    /// Admit packet `id` the way `StageGraph::admit` does: run it up to
    /// decode, take a ROB slot (flushing every pool when none is free),
    /// stage its blocks, then flush pools past the age bound.
    pub fn admit(&mut self, id: usize, frame: &[u8]) -> Result<(), String> {
        self.tick += 1;
        let (entry, tasks) = self.prepare(frame)?;
        if self.in_flight.len() >= self.sg.rob_slots.max(1) {
            // No free ROB slot: the graph flushes every pool.
            self.drain();
        }
        let multi = tasks.len() > 1;
        self.in_flight.insert(id, entry);
        for (block, llrs) in tasks.into_iter().enumerate() {
            let k = llrs.k;
            let pi = match self.pools.iter().position(|p| p.k == k) {
                Some(i) => i,
                None => {
                    self.pools.push(Pool {
                        k,
                        dec: NativeBatchTurboDecoder::new(k, self.cfg.decoder_iterations),
                        tasks: Vec::with_capacity(QUAD),
                    });
                    self.pools.len() - 1
                }
            };
            self.pools[pi].tasks.push(Task {
                id,
                block,
                llrs,
                staged_at: self.tick,
                multi,
            });
            if self.pools[pi].tasks.len() >= QUAD {
                self.flush(pi, Flush::LanesFull);
            }
        }
        for pi in 0..self.pools.len() {
            let aged = self.pools[pi]
                .tasks
                .first()
                .is_some_and(|t| self.tick.saturating_sub(t.staged_at) >= self.sg.flush_age);
            if aged {
                self.flush(pi, Flush::Age);
            }
        }
        Ok(())
    }

    /// End of stream: flush every pool.
    pub fn drain(&mut self) {
        for pi in 0..self.pools.len() {
            self.flush(pi, Flush::Drain);
        }
    }

    /// Transmit, channel and receive up to decode, one timed span per
    /// layer call. Returns the in-flight record and the staged blocks.
    fn prepare(&mut self, frame: &[u8]) -> Result<(InFlight, Vec<TurboLlrs>), String> {
        let cfg = self.cfg;
        let t = Instant::now();
        ParsedPacket::parse(frame).map_err(|e| format!("ingress parse: {e:?}"))?;
        let pdu = BearerTx::default()
            .encapsulate(frame, frame.len() + L2_OVERHEAD)
            .ok_or("L2 encapsulation")?;
        let tb = CRC24A.attach_with(best_crc(), &unpack_msb(&pdu, pdu.len() * 8));
        let seg = Segmentation::try_plan(tb.len()).map_err(|e| format!("plan: {e:?}"))?;
        if seg.c > MAX_CODE_BLOCKS {
            return Err(format!("{} code blocks", seg.c));
        }
        let blocks = seg
            .try_segment(&tb)
            .map_err(|e| format!("segment: {e:?}"))?;
        self.lap(Span::TxTbBuild, t);

        let bps = cfg.modulation.bits_per_symbol();
        let mut coded = Vec::new();
        let mut block_e = Vec::with_capacity(blocks.len());
        for blk in &blocks {
            let k = blk.len();
            let e = ((k as u64 * cfg.rate_x1024 as u64 / 1024) as usize)
                .next_multiple_of(bps * 2)
                .min(3 * (k + 4) * 2);
            let ei = cached(
                &mut self.encoders,
                |x| x.k() == k,
                || PackedTurboEncoder::new(k),
            );
            let ri = cached(
                &mut self.tx_rms,
                |x| x.d() == k + 4,
                || PackedRateMatcher::new(k + 4),
            );
            let t = Instant::now();
            self.encoders[ei].encode_dstreams_into(blk, &mut self.enc_scratch);
            self.lap(Span::TxEncode, t);
            let t = Instant::now();
            let rm = &self.tx_rms[ri];
            rm.pack_circular_into(self.enc_scratch.dstream_words(), &mut self.wbuf)
                .map_err(|e| format!("rate match: {e:?}"))?;
            rm.try_rate_match_packed_into(&self.wbuf, e, 0, &mut self.ebuf)
                .map_err(|e| format!("rate match: {e:?}"))?;
            extend_bits_from_words(&self.ebuf, e, &mut coded);
            self.lap(Span::TxRateMatch, t);
            block_e.push(e);
        }
        let coded_bits = coded.len();
        let padded = coded_bits.next_multiple_of(bps);
        coded.resize(padded, 0);

        let t = Instant::now();
        scramble_bits(&mut coded, self.c_init);
        let symbols = cfg.modulation.modulate(&coded);
        self.lap(Span::TxModulate, t);
        let t = Instant::now();
        let air = self.ofdm.modulate_stream(&symbols);
        self.lap(Span::TxIfft, t);
        let t = Instant::now();
        let mut channel = AwgnChannel::new(cfg.snr_db, cfg.seed);
        let rx_air = channel.apply(&air);
        let scale = (channel.llr_scale() / 8.0).clamp(0.25, 16.0);
        self.lap(Span::ChanAwgn, t);
        let t = Instant::now();
        let rx = self.ofdm.demodulate_stream(&rx_air, symbols.len());
        self.lap(Span::RxFft, t);
        let t = Instant::now();
        let mut llrs = Vec::new();
        demap_into(best_demap(), cfg.modulation, &rx, scale, &mut llrs);
        llrs.truncate(padded);
        self.lap(Span::RxDemap, t);
        let t = Instant::now();
        descramble_llrs_with(best_descramble(), &mut llrs, self.c_init);
        self.lap(Span::RxDescramble, t);

        let mut tasks = Vec::with_capacity(blocks.len());
        let mut pos = 0;
        for (blk, &e) in blocks.iter().zip(&block_e) {
            let k = blk.len();
            let ri = cached(
                &mut self.rx_rms,
                |x| x.0 == k + 4,
                || (k + 4, RateMatcher::new(k + 4)),
            );
            let t = Instant::now();
            self.rx_rms[ri]
                .1
                .try_de_rate_match_interleaved_into(&llrs[pos..pos + e], 0, &mut self.inter)
                .map_err(|e| format!("de-rate-match: {e:?}"))?;
            let tails = TailLlrs::from_interleaved(&self.inter, k);
            pos += e;
            self.lap(Span::RxDerateMatch, t);
            let t = Instant::now();
            let mut streams = match self.free.pop() {
                Some(mut s) => {
                    s.sys.resize(k, 0);
                    s.p1.resize(k, 0);
                    s.p2.resize(k, 0);
                    s
                }
                None => SoftStreams::zeros(k),
            };
            fused_ingest_into(
                best_fused(),
                &self.inter,
                k,
                &mut streams.sys,
                &mut streams.p1,
                &mut streams.p2,
            );
            self.lap(Span::RxArrange, t);
            tasks.push(TurboLlrs { k, streams, tails });
        }
        let entry = InFlight {
            frame: frame.to_vec(),
            tb_bits: tb.len(),
            bits: vec![Vec::new(); seg.c],
            remaining: seg.c,
            seg,
            coded_bits: pos,
            iterations: 0,
        };
        Ok((entry, tasks))
    }

    /// Launch pool `pi` as the stage graph does: quads, then a pair,
    /// then a single leftover; then finish the packets whose last
    /// block this flush decoded.
    fn flush(&mut self, pi: usize, why: Flush) {
        let tasks = std::mem::take(&mut self.pools[pi].tasks);
        if tasks.is_empty() {
            return;
        }
        match why {
            Flush::LanesFull => self.launches.lanes_full += 1,
            Flush::Age => self.launches.age += 1,
            Flush::Drain => self.launches.drain += 1,
        }
        let k = self.pools[pi].k;
        let cap = self.cfg.decoder_iterations;
        let si = cached(
            &mut self.singles,
            |d| d.k() == k,
            || NativeTurboDecoder::new(k, cap),
        );
        let mut j = 0;
        while j + QUAD <= tasks.len() {
            let inputs: [BlockLlrs<'_>; QUAD] =
                std::array::from_fn(|g| BlockLlrs::from_turbo(&tasks[j + g].llrs));
            let t = Instant::now();
            let iters = self.pools[pi].dec.decode_quad_staged_into(
                inputs,
                &mut self.batch_scratch,
                &mut self.lane_bits,
            );
            self.lap(Span::RxDecode, t);
            self.launches.quad_blocks += QUAD as u64;
            self.scatter(&tasks[j..j + QUAD], iters);
            j += QUAD;
        }
        while j + BATCH <= tasks.len() {
            let inputs: [BlockLlrs<'_>; BATCH] =
                std::array::from_fn(|g| BlockLlrs::from_turbo(&tasks[j + g].llrs));
            let bits: &mut [Vec<u8>; BATCH] = (&mut self.lane_bits[..BATCH])
                .try_into()
                .expect("pair lanes");
            let t = Instant::now();
            let iters =
                self.pools[pi]
                    .dec
                    .decode_pair_staged_into(inputs, &mut self.batch_scratch, bits);
            self.lap(Span::RxDecode, t);
            self.launches.pair_blocks += BATCH as u64;
            self.scatter(&tasks[j..j + BATCH], iters);
            j += BATCH;
        }
        if j < tasks.len() {
            let l = &tasks[j].llrs;
            let t = Instant::now();
            let (iters, _) = self.singles[si].decode_streams_capped_into(
                &l.streams.sys,
                &l.streams.p1,
                &l.streams.p2,
                &l.tails,
                cap,
                None,
                &mut self.scratch,
                &mut self.lane_bits[0],
            );
            self.lap(Span::RxDecode, t);
            self.launches.single_blocks += 1;
            self.scatter(&tasks[j..], iters);
        }

        for t in &tasks {
            // A packet with two blocks in this flush finishes once.
            if self.in_flight.get(&t.id).is_some_and(|e| e.remaining == 0) {
                let entry = self.in_flight.remove(&t.id).expect("just checked");
                let outcome = self.complete(entry);
                self.done.push((t.id, outcome));
            }
        }

        // Untimed: what the serial CRC-early-stop decoder would need.
        for t in &tasks {
            let l = &t.llrs;
            let (needed, _) = self.singles[si].decode_streams_capped_into(
                &l.streams.sys,
                &l.streams.p1,
                &l.streams.p2,
                &l.tails,
                cap,
                t.multi.then_some(&CRC24B),
                &mut self.scratch,
                &mut self.probe_bits,
            );
            self.iters_needed += needed as u64;
        }
        for t in tasks {
            self.free.push(t.llrs.streams);
        }
    }

    fn scatter(&mut self, run: &[Task], iters: usize) {
        for (lane, t) in run.iter().enumerate() {
            let entry = self
                .in_flight
                .get_mut(&t.id)
                .expect("task of a live packet");
            entry.bits[t.block].clone_from(&self.lane_bits[lane]);
            entry.iterations += iters;
            entry.remaining -= 1;
            self.blocks += 1;
            self.iters_run += iters as u64;
        }
    }

    /// The receive tail, timed as one span.
    fn complete(&mut self, f: InFlight) -> Outcome {
        let t = Instant::now();
        let failed_blocks = if f.bits.len() > 1 {
            f.bits
                .iter()
                .filter(|b| CRC24B.check_with(best_crc(), b).is_none())
                .count()
        } else {
            0
        };
        let outcome = Self::verify(&f, failed_blocks);
        self.lap(Span::RxTbCheck, t);
        outcome
    }

    fn verify(f: &InFlight, failed_blocks: usize) -> Outcome {
        let failure = DecodeFailure {
            tb_bits: f.tb_bits,
            code_blocks: f.bits.len(),
            failed_blocks,
            decoder_iterations: f.iterations,
        };
        let rx_tb = match f.seg.try_desegment(&f.bits) {
            Ok(tb) => tb,
            Err(_) => {
                return Outcome::failed(ErrorCategory::SegmentationOverflow, Default::default())
            }
        };
        if failed_blocks > 0 {
            return Outcome::failed(ErrorCategory::DecoderDiverged, failure);
        }
        let delivered = rx_tb
            .as_deref()
            .and_then(|tb| CRC24A.check_with(best_crc(), tb))
            .and_then(|payload| BearerRx::default().decapsulate(&pack_msb(payload)).ok())
            .is_some_and(|sdu| sdu == f.frame);
        if !delivered {
            return Outcome::failed(ErrorCategory::CrcMismatch, failure);
        }
        Outcome::delivered(f.tb_bits, f.bits.len(), f.iterations, f.coded_bits)
    }
}

/// Index of the cached object matching `hit`, building it on a miss.
fn cached<T>(cache: &mut Vec<T>, hit: impl Fn(&T) -> bool, make: impl FnOnce() -> T) -> usize {
    match cache.iter().position(hit) {
        Some(i) => i,
        None => {
            cache.push(make());
            cache.len() - 1
        }
    }
}
