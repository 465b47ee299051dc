//! Drive real UDP and TCP packets through the complete uplink PHY
//! chain (encode → OFDM → AWGN → demap → arrange → turbo decode) and
//! report per-stage wall-clock shares.
//!
//! ```text
//! cargo run --release -p apcm --example uplink_pipeline
//! ```

use vran_net::packet::{PacketBuilder, Transport};
use vran_net::pipeline::{PipelineConfig, UplinkPipeline};
use vran_phy::modulation::Modulation;

fn main() {
    println!("== uplink pipeline: 16-QAM over 14 dB AWGN, 5 MHz OFDM ==\n");
    let cfg = PipelineConfig {
        modulation: Modulation::Qam16,
        snr_db: 14.0,
        decoder_iterations: 6,
        ..Default::default()
    };
    let pipe = UplinkPipeline::new(cfg);
    println!(
        "{:>6}  {:>5}  {:>3}  {:>9}  {:>7}  {:>8}  {:>8}",
        "size", "proto", "ok", "coded", "blocks", "arr µs", "dec µs"
    );
    for transport in [Transport::Udp, Transport::Tcp] {
        let mut b = PacketBuilder::new(5060, 5060);
        for size in [64usize, 512, 1500] {
            let p = b.build(transport, size).expect("valid size");
            let r = pipe.process(&p).expect("14 dB 16-QAM should decode");
            println!(
                "{:>6}  {:>5}  {:>3}  {:>9}  {:>7}  {:>8.1}  {:>8.1}",
                size,
                transport.name(),
                "✓",
                r.coded_bits,
                r.code_blocks,
                r.nanos.arrangement as f64 / 1e3,
                r.nanos.decode as f64 / 1e3,
            );
        }
    }
}
