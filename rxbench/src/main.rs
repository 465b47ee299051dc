//! Benchmark of record for the uplink receive path.
//!
//! One `StageGraph` (the production uplink runtime) is driven from this
//! process's single thread: one worker on one core, closed loop, the
//! next packet admitted as soon as `admit` returns. Packets are built
//! before timing from `--seed`, which also seeds the channel. Timings
//! are on the thread's CPU clock ([`clock`]).
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` reports the
//! per-layer metrics: the same packets run untraced, with the program's
//! metrics registries attached, and replayed through the program's
//! public kernel calls, interleaved so all three see the same host
//! speed; the ledger adds the replay's layer times up to the traced
//! graph's busy time.
//!
//! ```text
//! cargo run --release --manifest-path rxbench/Cargo.toml -- \
//!     --workload paper_mix --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--workload all` runs every workload, each in a child process, and
//! prints one summary.

mod clock;
mod replay;
mod stats;
mod workload;

use clock::thread_cpu_ns;
use replay::{Outcome, Replay, Span, SPANS};
use stats::{delivered_bytes, latency_or_inf, median, ok_mbps, percentile};
use std::collections::VecDeque;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use vran_net::error::ErrorCategory;
use vran_net::metrics::{PipelineMetrics, StageGraphMetrics};
use vran_net::pipeline::{PipelineConfig, StageNanos, UplinkPipeline};
use vran_net::stagegraph::{StageGraph, StageGraphConfig};
use vran_phy::turbo::{DecoderIsa, NativeBatchTurboDecoder};
use vran_util::json::Json;
use workload::{Input, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Share of `--seconds` the traced run spends on its first, untraced
/// pass; the three interleaved passes over the same packets take about
/// three times as long again.
const TRACE_SHARE: f64 = 0.25;
/// Packets per turn when the traced run interleaves its passes: short
/// against the seconds-long swings in host speed.
const CHUNK: usize = 64;
/// Upper bound on admissions per second, used to reserve the per-packet
/// latency record up front (about 40× the fastest workload today).
const MAX_PACKETS_PER_S: f64 = 200_000.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rxbench: {e}");
            eprintln!(
                "usage: rxbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                workload::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(w) = Workload::by_name(&args.workload) else {
        eprintln!("rxbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    println!("{}", host_line());
    println!(
        "workload {}: seed {}, {:.0} s, closed loop, 1 worker, default StageGraph, 16-QAM at {} dB",
        w.name, args.seed, args.seconds, w.snr_db
    );
    let report = if args.trace {
        traced(&args, &w)
    } else {
        end_to_end(&args, &w)
    };
    match report.and_then(|r| r.json().map(|j| (r.correct, j))) {
        Ok((correct, json)) => {
            println!("{json}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("rxbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The host facts a number depends on, printed with every result so
/// figures from different ISA tiers are never compared silently.
fn host_line() -> String {
    format!(
        "host: nproc={} demap={} descramble={} fused={} crc={} decoder={} batch_zmm={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        vran_phy::demap::best_demap().name(),
        vran_phy::scrambler::best_descramble().name(),
        vran_arrange::best_fused().name(),
        vran_phy::crc::best_crc().name(),
        DecoderIsa::best().name(),
        NativeBatchTurboDecoder::is_zmm_accelerated(),
    )
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Report {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The result line. A value JSON cannot hold (a percentile that
    /// landed on a failed packet) is an error, not a number.
    fn json(&self) -> Result<String, String> {
        if let Some(m) = self.metrics.iter().find(|m| !m.value.is_finite()) {
            return Err(format!("{} is {}", m.name, m.value));
        }
        let metrics = self.metrics.iter().map(|m| {
            let value = Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]);
            (m.name.clone(), value)
        });
        Ok(Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_string())
    }
}

fn pipeline_config(w: &Workload, seed: u64) -> PipelineConfig {
    PipelineConfig {
        snr_db: w.snr_db,
        seed,
        ..Default::default()
    }
}

/// What one closed-loop pass observed. Per-packet records stay small
/// (a latency each, plus outcomes only in traced passes) so the
/// benchmark's own bookkeeping barely moves `rss_peak_mb`.
struct Pass {
    /// Per packet in admission order: latency in µs of thread CPU time
    /// (see [`clock`]), `+∞` if it failed.
    latency_us: Vec<f64>,
    /// Per packet, traced passes only: CPU µs inside its own `admit`.
    admit_us: Vec<f64>,
    /// Per packet, traced passes only.
    outcomes: Vec<Outcome>,
    failures: [usize; ErrorCategory::COUNT],
    ok_bytes: u64,
    /// Sum of `PacketResult::nanos` over delivered packets.
    stage_ns: StageNanos,
    /// Wall time inside `admit`, `pop_completed` and `drain`: the
    /// ledger's clock, shared with the replay's spans.
    busy_ns: u64,
    wall_s: f64,
    cpu_s: f64,
}

impl Pass {
    fn attempted(&self) -> usize {
        self.latency_us.len()
    }

    fn failed(&self) -> usize {
        self.failures.iter().sum()
    }
}

enum Limit {
    Seconds(f64),
    Packets(usize),
}

/// Packets admitted but not yet handed back, per UE in admission
/// order (the graph delivers each UE's packets in that order).
struct Outstanding<'a> {
    inputs: &'a [Input],
    /// `(admission number, CPU ns at admission)`.
    pending: Vec<VecDeque<(usize, u64)>>,
    outcomes: Option<Vec<Option<Outcome>>>,
    pass: Pass,
}

impl Outstanding<'_> {
    /// Take every completed packet off `graph`, stamped `at` (CPU ns). A
    /// delivered packet must report the transport block its wire length
    /// implies, which catches results handed to the wrong flow.
    fn collect(&mut self, graph: &mut StageGraph, at: u64) -> Result<(), String> {
        while let Some((ue, r)) = graph.pop_completed() {
            let (id, admitted) = self
                .pending
                .get_mut(ue as usize)
                .and_then(VecDeque::pop_front)
                .ok_or(format!(
                    "completion for UE {ue}, which has nothing outstanding"
                ))?;
            let us = at.saturating_sub(admitted) as f64 / 1e3;
            let input = &self.inputs[id % self.inputs.len()];
            let wire = input.wire_len();
            let pass = &mut self.pass;
            match &r {
                Ok(p) => {
                    if (p.tb_bits, p.code_blocks) != input.expect {
                        return Err(format!(
                            "packet {id} ({wire} B) came back as {:?} (TB bits, blocks), expected {:?}",
                            (p.tb_bits, p.code_blocks),
                            input.expect
                        ));
                    }
                    let s = &mut pass.stage_ns;
                    s.encode += p.nanos.encode;
                    s.transport += p.nanos.transport;
                    s.demap += p.nanos.demap;
                    s.arrangement += p.nanos.arrangement;
                    s.decode += p.nanos.decode;
                }
                Err(e) => pass.failures[e.category() as usize] += 1,
            }
            pass.ok_bytes += delivered_bytes(r.is_ok(), wire);
            pass.latency_us[id] = latency_or_inf(r.is_ok(), us);
            if let Some(o) = &mut self.outcomes {
                o[id] = Some(Outcome::of(&r));
            }
        }
        Ok(())
    }
}

/// One graph driven closed loop over `inputs` (cycled), with the
/// bookkeeping for every packet it admitted. A packet's latency runs
/// from just before the `admit` that takes it to the return of the
/// call that hands it back.
struct Driver<'a> {
    graph: StageGraph,
    out: Outstanding<'a>,
    traced: bool,
    start: Instant,
    cpu_start: u64,
}

impl<'a> Driver<'a> {
    /// `traced` keeps per-packet outcomes and admit times; `capacity`
    /// is the expected packet count.
    fn new(graph: StageGraph, inputs: &'a [Input], capacity: usize, traced: bool) -> Self {
        let ues = inputs.iter().map(|i| i.ue as usize + 1).max().unwrap_or(0);
        Self {
            graph,
            out: Outstanding {
                inputs,
                pending: vec![VecDeque::new(); ues],
                outcomes: traced.then(Vec::new),
                pass: Pass {
                    // Reserved, not touched: only the pages the run fills
                    // become resident, and no reallocation doubles the
                    // footprint mid-run.
                    latency_us: Vec::with_capacity(capacity),
                    admit_us: Vec::new(),
                    outcomes: Vec::new(),
                    failures: [0; ErrorCategory::COUNT],
                    ok_bytes: 0,
                    stage_ns: StageNanos::default(),
                    busy_ns: 0,
                    wall_s: 0.0,
                    cpu_s: 0.0,
                },
            },
            traced,
            start: Instant::now(),
            cpu_start: thread_cpu_ns(),
        }
    }

    /// Admit packets until `limit`: a total packet count, or wall
    /// seconds since this driver was made.
    fn run(&mut self, limit: Limit) -> Result<(), String> {
        let out = &mut self.out;
        loop {
            let id = out.pass.latency_us.len();
            let t0 = Instant::now();
            let done = match limit {
                Limit::Seconds(s) => t0.duration_since(self.start).as_secs_f64() >= s,
                Limit::Packets(n) => id >= n,
            };
            if done {
                return Ok(());
            }
            let input = &out.inputs[id % out.inputs.len()];
            let c0 = thread_cpu_ns();
            out.pending[input.ue as usize].push_back((id, c0));
            out.pass.latency_us.push(f64::NAN);
            if let Some(o) = &mut out.outcomes {
                o.push(None);
            }
            self.graph.admit(input.ue, &input.packet);
            let c1 = thread_cpu_ns();
            if self.traced {
                out.pass.admit_us.push((c1 - c0) as f64 / 1e3);
            }
            out.collect(&mut self.graph, c1)?;
            out.pass.busy_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Drain the graph and return it with what the pass observed.
    fn finish(mut self) -> Result<(StageGraph, Pass), String> {
        let t0 = Instant::now();
        self.graph.drain();
        self.out.collect(&mut self.graph, thread_cpu_ns())?;
        let mut pass = self.out.pass;
        pass.busy_ns += t0.elapsed().as_nanos() as u64;
        pass.wall_s = self.start.elapsed().as_secs_f64();
        pass.cpu_s = (thread_cpu_ns() - self.cpu_start) as f64 / 1e9;
        if let Some(i) = pass.latency_us.iter().position(|v| v.is_nan()) {
            return Err(format!("packet {i} was admitted but never returned"));
        }
        pass.outcomes = self
            .out
            .outcomes
            .unwrap_or_default()
            .into_iter()
            .flatten()
            .collect();
        Ok((self.graph, pass))
    }
}

/// Per-packet records to reserve for a run of `seconds`.
fn capacity(seconds: f64) -> usize {
    (seconds * MAX_PACKETS_PER_S) as usize
}

/// Build a graph and warm every K the workload uses; returns the graph
/// and the CPU seconds it took.
fn setup(
    cfg: PipelineConfig,
    warm: &[Input],
    metrics: Option<(Arc<PipelineMetrics>, Arc<StageGraphMetrics>)>,
) -> Result<(StageGraph, f64), String> {
    let t = thread_cpu_ns();
    let graph = match metrics {
        Some((pm, sgm)) => {
            let mut g = StageGraph::new(
                UplinkPipeline::with_metrics(cfg, pm),
                StageGraphConfig::default(),
            );
            g.set_metrics(sgm);
            g
        }
        None => StageGraph::with_config(cfg, StageGraphConfig::default()),
    };
    let mut d = Driver::new(graph, warm, warm.len(), false);
    d.run(Limit::Packets(warm.len()))?;
    let (graph, pass) = d.finish()?;
    if pass.failed() > 0 {
        return Err(format!("{} warm-up packets failed", pass.failed()));
    }
    Ok((graph, (thread_cpu_ns() - t) as f64 / 1e9))
}

fn print_failures(pass: &Pass) {
    let counts: Vec<String> = ErrorCategory::ALL
        .iter()
        .map(|&c| format!("{}={}", c.name(), pass.failures[c as usize]))
        .collect();
    println!(
        "  fail_frac       {} ratio ({})",
        pass.failed() as f64 / pass.attempted() as f64,
        counts.join(" ")
    );
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn rss_peak_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM in /proc/self/status".into())
}

fn pct(samples: &mut [f64], q: f64, what: &str) -> Result<f64, String> {
    let n = samples.len();
    percentile(samples, q).ok_or(format!(
        "{what}: {n} samples leave fewer than {} beyond p{}",
        stats::MIN_TAIL,
        q * 100.0
    ))
}

fn end_to_end(args: &Args, w: &Workload) -> Result<Report, String> {
    let cfg = pipeline_config(w, args.seed);
    let inputs = workload::packets(&w.classes, args.seed);
    let warm = workload::warm_set(&w.classes);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut graph = None;
    for _ in 0..SETUP_REPEATS {
        let (g, s) = setup(cfg, &warm, None)?;
        setups.push(s);
        graph = Some(g);
    }
    let graph = graph.expect("at least one set-up");
    let mut d = Driver::new(graph, &inputs, capacity(args.seconds), false);
    d.run(Limit::Seconds(args.seconds))?;
    let (_, mut pass) = d.finish()?;

    let mut r = Report {
        correct: true,
        attempted: pass.attempted(),
        failed: pass.failed(),
        metrics: Vec::new(),
    };
    r.push("rx_mbps", ok_mbps(pass.ok_bytes, pass.cpu_s), "Mbps");
    r.push(
        "pkt_p50_us",
        pct(&mut pass.latency_us, 0.50, "pkt_p50_us")?,
        "us",
    );
    r.push(
        "pkt_p99_us",
        pct(&mut pass.latency_us, 0.99, "pkt_p99_us")?,
        "us",
    );
    r.push("setup_s", median(&setups), "s");
    r.push("rss_peak_mb", rss_peak_mib()?, "MiB");

    println!(
        "timed: {} packets in {:.3} s wall, {:.3} s thread CPU; set-ups {:?} s",
        pass.attempted(),
        pass.wall_s,
        pass.cpu_s,
        setups
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    for m in &r.metrics {
        println!("  {:<15} {} {}", m.name, m.value, m.unit);
    }
    print_failures(&pass);
    Ok(r)
}

fn traced(args: &Args, w: &Workload) -> Result<Report, String> {
    let cfg = pipeline_config(w, args.seed);
    let inputs = workload::packets(&w.classes, args.seed);
    let warm = workload::warm_set(&w.classes);
    let mut problems = Vec::new();

    // Untraced and alone: fixes the packet count and gives the waits.
    let (graph, _) = setup(cfg, &warm, None)?;
    let share = args.seconds * TRACE_SHARE;
    let mut d = Driver::new(graph, &inputs, capacity(share), true);
    d.run(Limit::Seconds(share))?;
    let (_, alone) = d.finish()?;
    let n = alone.attempted();

    // The same packets three ways, interleaved CHUNK packets at a time
    // so all three see the same host speed: untraced again, with the
    // program's registries attached, and replayed layer by layer.
    let pm = Arc::new(PipelineMetrics::new(true));
    let sgm = Arc::new(StageGraphMetrics::new(true));
    let (graph, _) = setup(cfg, &warm, None)?;
    let mut plain = Driver::new(graph, &inputs, n, true);
    let (graph, _) = setup(cfg, &warm, Some((pm.clone(), sgm.clone())))?;
    let mut traced = Driver::new(graph, &inputs, n, true);
    let allocs0 = pm.staging_allocs.get();
    let launches0 = launch_counts(&sgm);
    let mut rp = Replay::new(cfg, StageGraphConfig::default());
    let warm_frames: Vec<&[u8]> = warm.iter().map(|i| i.packet.frame.as_slice()).collect();
    rp.warm(&warm_frames)?;
    let mut next = 0;
    while next < n {
        let end = (next + CHUNK).min(n);
        plain.run(Limit::Packets(end))?;
        traced.run(Limit::Packets(end))?;
        for id in next..end {
            rp.admit(id, &inputs[id % inputs.len()].packet.frame)?;
        }
        next = end;
    }
    let (_, plain) = plain.finish()?;
    let (_, pass) = traced.finish()?;
    rp.drain();

    let program = launch_counts(&sgm).since(&launches0);
    if alone.outcomes != pass.outcomes || plain.outcomes != pass.outcomes {
        problems.push("attaching metrics or interleaving changed packet outcomes".to_string());
    }
    let mut replayed = vec![None; n];
    for &(id, o) in &rp.done {
        replayed[id] = Some(o);
    }
    if let Some(id) = (0..n).find(|&id| replayed[id] != Some(pass.outcomes[id])) {
        problems.push(format!(
            "packet {id}: replay {:?} but program {:?}",
            replayed[id], pass.outcomes[id]
        ));
    }
    if rp.launches != program {
        problems.push(format!(
            "decode launches differ: replay {:?}, program {program:?}",
            rp.launches
        ));
    }

    // Per-layer metrics, per attempted packet.
    let per_pkt = |ns: u64| ns as f64 / n as f64 / 1e3;
    let span_us = |s: Span| per_pkt(rp.ns[s as usize]);
    let span_sum = |harness: bool| -> f64 {
        SPANS
            .iter()
            .filter(|(s, _)| s.is_harness() == harness)
            .map(|&(s, _)| span_us(s))
            .sum()
    };
    let harness_us = span_sum(true);
    let receiver_us = span_sum(false);
    let busy_us = per_pkt(pass.busy_ns);
    let unattributed_us = busy_us - harness_us - receiver_us;
    let mut waits: Vec<f64> = alone
        .latency_us
        .iter()
        .zip(&alone.admit_us)
        .map(|(lat, admit)| lat - admit)
        .collect();
    let delivered = (n - pass.failed()).max(1) as f64;
    let stage_us = |ns: u64| ns as f64 / delivered / 1e3;
    let st = pass.stage_ns;
    let program_stages = [
        ("encode", stage_us(st.encode)),
        ("transport", stage_us(st.transport)),
        ("demap", stage_us(st.demap)),
        ("arrangement", stage_us(st.arrangement)),
        ("decode", stage_us(st.decode)),
        ("total", stage_us(st.total())),
    ];

    let mut r = Report {
        correct: true,
        attempted: n,
        failed: pass.failed(),
        metrics: Vec::new(),
    };
    let iters_run = rp.iters_run.max(1) as f64;
    r.push("rx.decode.us_per_pkt", span_us(Span::RxDecode), "us");
    r.push(
        "rx.decode.ns_per_block_iter",
        rp.ns[Span::RxDecode as usize] as f64 / iters_run,
        "ns",
    );
    r.push(
        "decode.blocks_per_pkt",
        rp.blocks as f64 / n as f64,
        "blocks/pkt",
    );
    r.push(
        "decode.iters_per_block",
        rp.iters_run as f64 / rp.blocks.max(1) as f64,
        "iters/block",
    );
    r.push(
        "decode.useful_iter_frac",
        rp.iters_needed as f64 / iters_run,
        "ratio",
    );
    for (s, name) in SPANS {
        if s != Span::RxDecode {
            r.push(format!("{name}.us_per_pkt"), span_us(s), "us");
        }
    }
    let launched = (program.quad_blocks + program.pair_blocks + program.single_blocks).max(1);
    r.push(
        "stagegraph.lane_occupancy",
        program.quad_blocks as f64 / launched as f64,
        "ratio",
    );
    let per_packet = |count: u64| count as f64 / n as f64;
    r.push(
        "stagegraph.flush_lanes_full",
        per_packet(program.lanes_full),
        "1/pkt",
    );
    r.push("stagegraph.flush_age", per_packet(program.age), "1/pkt");
    r.push("stagegraph.flush_drain", per_packet(program.drain), "1/pkt");
    r.push(
        "stagegraph.wait_us_p50",
        pct(&mut waits, 0.50, "wait p50")?,
        "us",
    );
    r.push(
        "stagegraph.wait_us_p99",
        pct(&mut waits, 0.99, "wait p99")?,
        "us",
    );
    r.push(
        "pipeline.staging_allocs",
        (pm.staging_allocs.get() - allocs0) as f64,
        "count",
    );
    r.push("packet.busy_us", busy_us, "us");
    r.push("ledger.harness_us", harness_us, "us");
    r.push("ledger.receiver_us", receiver_us, "us");
    r.push("ledger.unattributed_us", unattributed_us, "us");
    r.push(
        "ledger.unattributed_frac",
        unattributed_us / busy_us,
        "ratio",
    );
    // Derived, not measured: delivered wire bits over the receiver's
    // own kernel time.
    r.push(
        "ledger.receiver_mbps",
        ok_mbps(pass.ok_bytes, receiver_us * n as f64 / 1e6),
        "Mbps",
    );
    r.push(
        "ledger.tracing_overhead_frac",
        pass.busy_ns as f64 / plain.busy_ns as f64 - 1.0,
        "ratio",
    );
    r.push(
        "ledger.stage_sum_gap_frac",
        (busy_us - program_stages[5].1) / busy_us,
        "ratio",
    );

    println!(
        "traced: {n} packets; alone {:.3} s, then untraced/traced/replay interleaved {:.3} s",
        alone.wall_s, pass.wall_s
    );
    for m in &r.metrics {
        println!("  {:<30} {:>14.4} {}", m.name, m.value, m.unit);
    }
    print_failures(&pass);

    let identity = harness_us + receiver_us + unattributed_us;
    let holds = (identity - busy_us).abs() <= 1e-9 * busy_us.max(1.0);
    println!("ledger identity, us per packet (ledger.receiver_mbps is derived):");
    println!(
        "  {:<11} {:>10} {:>10} {:>10} {:>10} {:>10}  holds",
        "workload", "harness", "receiver", "unattrib.", "sum", "busy"
    );
    println!(
        "  {:<11} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2}  {holds}",
        w.name, harness_us, receiver_us, unattributed_us, identity, busy_us
    );
    if !holds {
        problems.push("ledger identity does not hold".into());
    }

    // The program's own per-packet stage sums against the replay.
    let group = |spans: &[Span]| spans.iter().map(|&s| span_us(s)).sum::<f64>();
    let replay_groups = [
        group(&[Span::TxTbBuild, Span::TxEncode, Span::TxRateMatch]),
        group(&[Span::TxModulate, Span::TxIfft, Span::ChanAwgn, Span::RxFft]),
        group(&[Span::RxDemap, Span::RxDescramble, Span::RxDerateMatch]),
        span_us(Span::RxArrange),
        span_us(Span::RxDecode),
        busy_us,
    ];
    println!(
        "PacketResult::nanos vs this ledger, us per packet (total is against packet.busy_us):"
    );
    for ((name, program_us), ledger_us) in program_stages.iter().zip(replay_groups) {
        let gap = (program_us - ledger_us) / ledger_us;
        let flag = if gap.abs() > 0.05 {
            "  does not reconcile within 5%"
        } else {
            ""
        };
        println!(
            "  {name:<12} program {program_us:>10.2}  ledger {ledger_us:>10.2}  diff {:+.1}%{flag}",
            gap * 100.0
        );
    }

    for p in &problems {
        eprintln!("rxbench: MISMATCH: {p}");
    }
    r.correct = problems.is_empty();
    Ok(r)
}

/// The graph's launch and flush counters, as the replay counts them.
fn launch_counts(m: &StageGraphMetrics) -> replay::Launches {
    replay::Launches {
        quad_blocks: m.quad_blocks.get(),
        pair_blocks: m.pair_blocks.get(),
        single_blocks: m.single_blocks.get(),
        lanes_full: m.flush_lanes_full.get(),
        age: m.flush_deadline.get(),
        drain: m.flush_drain.get(),
    }
}

/// Run every workload in its own child process (so peak RSS and
/// set-up are each workload's own) and print one summary table: the
/// end-to-end metrics, or with `--trace 1` the ledger identity.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("rxbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let columns: &[&str] = if args.trace {
        &[
            "ledger.harness_us",
            "ledger.receiver_us",
            "ledger.unattributed_us",
            "packet.busy_us",
        ]
    } else {
        &[
            "rx_mbps",
            "pkt_p50_us",
            "pkt_p99_us",
            "setup_s",
            "rss_peak_mb",
        ]
    };
    let mut ok = true;
    let mut rows = Vec::new();
    for name in workload::NAMES {
        let out = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("rxbench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        ok &= out.status.success();
        let result = text.lines().last().and_then(|l| Json::parse(l).ok());
        let values: Vec<f64> = columns
            .iter()
            .map(|c| {
                result
                    .as_ref()
                    .and_then(|r| r.get("metrics")?.get(c)?.get("value")?.as_f64())
                    .unwrap_or(f64::NAN)
            })
            .collect();
        rows.push((name, values));
    }
    println!("summary, seed {}:", args.seed);
    print!("  {:<11}", "workload");
    for c in columns {
        print!(" {c:>22}");
    }
    println!();
    for (name, values) in rows {
        print!("  {name:<11}");
        for v in &values {
            print!(" {v:>22.4}");
        }
        if args.trace {
            let identity = (values[0] + values[1] + values[2] - values[3]).abs();
            print!("  identity holds: {}", identity <= 1e-6 * values[3]);
        }
        println!();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
