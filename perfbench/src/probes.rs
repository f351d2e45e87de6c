//! Per-call layer probes at a workload's shape, timed through the layers'
//! public functions. Multiplied by the call counts a traced rep records,
//! they give the `*.est_ms_per_mb` rows — estimates, not measurements.

use crate::stats::median;
use pipellm::partition::{apply_stage, iteration_input, StagePartition};
use pipellm_net::link::{EdgeCrypto, Role, WireEdge};
use pipellm_net::proto::{DataAck, DataFrame, Msg};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median microseconds per call of each probed layer function.
#[derive(Debug, Clone, Copy)]
pub struct Probes {
    /// `EdgeCrypto::seal` of one activation.
    pub seal_us: f64,
    /// `EdgeCrypto::open_or_sentinel` of one sealed activation.
    pub open_us: f64,
    /// `apply_stage` over one stage's layer range.
    pub apply_stage_us: f64,
    /// `Msg::encode` of one data frame.
    pub encode_us: f64,
    /// `Msg::decode` of one data frame.
    pub decode_us: f64,
    /// `Msg::encode` + `Msg::decode` of one small control frame (an ACK).
    pub control_codec_us: f64,
}

/// Per-probe time budget.
const BUDGET: Duration = Duration::from_millis(60);
/// Calls per probe at least.
const MIN_CALLS: usize = 16;

/// Times `call` repeatedly within the budget; median µs per call.
fn time(mut call: impl FnMut()) -> f64 {
    call(); // warm caches and lazy state
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_CALLS || start.elapsed() < BUDGET {
        let t = Instant::now();
        call();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples)
}

/// Probes every layer at `activation_bytes` under the cluster `seed`.
pub fn run(activation_bytes: usize, layers: u32, stages: u32, seed: u64) -> Result<Probes, String> {
    let plaintext = iteration_input(seed, 0, 0, activation_bytes);
    let edge = WireEdge::between(0, 1);
    let aad = DataFrame::bind_aad(0, 1, 0, 0, 0, activation_bytes as u64);

    let mut host = EdgeCrypto::new(seed, edge, Role::ChannelHost);
    let mut failed = None;
    let seal_us = time(|| {
        if let Err(e) = host.seal(&aad, black_box(&plaintext)) {
            failed = Some(e.to_string());
        }
    });
    if let Some(e) = failed {
        return Err(format!("seal probe: {e}"));
    }

    // Opens must follow seals IV by IV, so each timed open gets a frame
    // sealed (untimed) at the matching counter.
    let mut sender = EdgeCrypto::new(seed, edge, Role::ChannelHost);
    let mut receiver = EdgeCrypto::new(seed, edge, Role::ChannelDevice);
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < MIN_CALLS || start.elapsed() < BUDGET {
        let sealed = sender
            .seal(&aad, &plaintext)
            .map_err(|e| format!("open probe seal: {e}"))?;
        let t = Instant::now();
        let (opened, ok) = receiver.open_or_sentinel(&aad, sealed.bytes);
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        if !ok || opened != plaintext {
            return Err("open probe did not round-trip".to_string());
        }
    }
    let open_us = median(&samples);

    let range = StagePartition::balanced(layers, stages as usize).layers_of(0);
    let mut buf = plaintext.clone();
    let apply_stage_us = time(|| apply_stage(range.clone(), black_box(&mut buf)));

    let frame = Msg::Data(DataFrame {
        src: 0,
        dst: 1,
        seq: 1,
        epoch: 0,
        iteration: 0,
        micro_batch: 0,
        sealed: vec![0x5a; activation_bytes + 16],
    });
    let encoded = frame.encode().map_err(|e| format!("encode probe: {e}"))?;
    let encode_us = time(|| {
        let _ = black_box(frame.encode());
    });
    let decode_us = time(|| {
        let _ = black_box(Msg::decode(black_box(&encoded)));
    });
    let ack = Msg::AckData(DataAck {
        src: 0,
        dst: 1,
        seq: 1,
    });
    let control_codec_us = time(|| {
        if let Ok(bytes) = ack.encode() {
            let _ = black_box(Msg::decode(&bytes));
        }
    });
    Ok(Probes {
        seal_us,
        open_us,
        apply_stage_us,
        encode_us,
        decode_us,
        control_codec_us,
    })
}
