//! The three traffic mixes and the seeded packet sequence each run
//! admits. The program only ever sees the generated packets.

use vran_net::cellsim::{TrafficClass, TrafficMix};
use vran_net::l2::L2_OVERHEAD;
use vran_net::packet::{Packet, PacketBuilder, Transport};
use vran_phy::crc::CRC24A;
use vran_phy::segmentation::Segmentation;
use vran_util::SmallRng;

/// Distinct packets generated per run. The timed loop cycles through
/// them, so generation stays out of the measurement and memory stays
/// bounded however fast the receiver runs.
pub const RING: usize = 4096;

/// Warm-up packets per traffic class: enough for every class's K to
/// fill a quad launch at least once.
const WARM_PER_CLASS: usize = 4;

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub snr_db: f32,
    pub classes: Vec<TrafficClass>,
}

/// Workload names, in the order a full run reports them.
pub const NAMES: [&str; 3] = ["paper_mix", "voip_small", "bulk_edge"];

impl Workload {
    /// The workload called `name`, if there is one.
    pub fn by_name(name: &str) -> Option<Self> {
        // paper_mix: the paper's Fig 13 traffic; seven K values make
        // cross-packet batch formation and pool wait matter.
        // voip_small: one small block per packet, so per-packet fixed
        // costs dominate and CRC early stop cannot apply.
        // bulk_edge: one K at two blocks per packet at the edge SNR, so
        // quad lanes always fill and per-packet kernel work peaks.
        let (snr_db, classes) = match name {
            "paper_mix" => (14.0, TrafficMix::paper_sweep().classes().to_vec()),
            "voip_small" => (14.0, TrafficMix::voip().classes().to_vec()),
            "bulk_edge" => (
                7.0,
                [Transport::Udp, Transport::Tcp]
                    .map(|transport| TrafficClass {
                        transport,
                        wire_len: 1400,
                        weight: 1,
                    })
                    .to_vec(),
            ),
            _ => return None,
        };
        let name = NAMES.into_iter().find(|n| *n == name)?;
        Some(Self {
            name,
            snr_db,
            classes,
        })
    }
}

/// One generated packet. Its traffic class doubles as its UE id, so a
/// UE's packets share one K and one flow.
#[derive(Debug, Clone)]
pub struct Input {
    pub ue: u64,
    pub packet: Packet,
    /// Transport block bits (with CRC24A) and code blocks the receiver
    /// must report for this packet, worked out from its wire length.
    pub expect: (usize, usize),
}

impl Input {
    pub fn wire_len(&self) -> usize {
        self.packet.frame.len()
    }
}

/// One flow (ports and TCP sequence state) per class.
fn builders(classes: &[TrafficClass], base_port: u16) -> Vec<PacketBuilder> {
    (0..classes.len() as u16)
        .map(|c| PacketBuilder::new(base_port + c, base_port + c))
        .collect()
}

fn build(classes: &[TrafficClass], flows: &mut [PacketBuilder], class: usize) -> Input {
    let c = classes[class];
    let tb_bits = (c.wire_len + L2_OVERHEAD) * 8 + CRC24A.width();
    Input {
        ue: class as u64,
        packet: flows[class]
            .build(c.transport, c.wire_len)
            .expect("every class fits its headers"),
        expect: (tb_bits, Segmentation::plan(tb_bits).c),
    }
}

/// `RING` packets drawn by weight from `classes`; the same seed gives
/// the same sequence.
pub fn packets(classes: &[TrafficClass], seed: u64) -> Vec<Input> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let total: u64 = classes.iter().map(|c| c.weight as u64).sum();
    let mut flows = builders(classes, 9000);
    (0..RING)
        .map(|_| {
            let class = draw(classes, total, &mut rng);
            build(classes, &mut flows, class)
        })
        .collect()
}

/// Index of a class drawn with probability proportional to its weight.
fn draw(classes: &[TrafficClass], total: u64, rng: &mut SmallRng) -> usize {
    let mut pick = rng.next_u64() % total;
    for (i, c) in classes.iter().enumerate() {
        if pick < c.weight as u64 {
            return i;
        }
        pick -= c.weight as u64;
    }
    unreachable!("weights sum to total")
}

/// Warm-up packets covering every class, from flows of their own so
/// the timed sequence is unaffected.
pub fn warm_set(classes: &[TrafficClass]) -> Vec<Input> {
    let mut flows = builders(classes, 7000);
    (0..WARM_PER_CLASS)
        .flat_map(|_| 0..classes.len())
        .map(|class| build(classes, &mut flows, class))
        .collect()
}
