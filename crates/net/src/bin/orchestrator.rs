//! `pipellm-orchestrator`: serve a networked pipeline over TCP.
//!
//! Binds a listener, waits for one `stage-worker` process per stage to
//! dial in (control + data connections each), then drives the full run:
//! handshake, sealed ingress, ciphertext relay, sequenced drain, lockstep
//! audit. Exits non-zero on any protocol, crypto, or audit failure.
//!
//! ```text
//! pipellm-orchestrator --listen 127.0.0.1:7070 --stages 4 [--layers 8]
//!     [--iterations 2] [--micro-batches 2] [--activation-bytes 4096]
//!     [--seed 0x9e3779b9] [--fault-rate 0.0] [--worker-fault-rate 0.0]
//!     [--chaos-seed 0xC0A5]
//! ```
//!
//! Every run is supervised: workers stream heartbeats, a SIGKILLed
//! worker is detected by deadline, and an externally respawned
//! replacement (a `stage-worker` restarted with `--generation <n>`) is
//! readmitted, handed the latest sealed checkpoint, and every adjacent
//! edge is force-rekeyed — the run completes bit-identical to its
//! fault-free reference. Heartbeat and deadline tuning comes from `PIPELLM_*`
//! environment variables ([`pipellm_net::NetTuning::from_env`]).

use pipellm_net::cli::Args;
use pipellm_net::{serve_supervised_tcp, NetPipelineSpec, NetTuning, SupervisedOptions};
use std::net::TcpListener;
use std::process::ExitCode;

const USAGE: &str = "pipellm-orchestrator --listen 127.0.0.1:7070 --stages 4 [--layers 8] \
     [--iterations 2] [--micro-batches 2] [--activation-bytes 4096] [--seed 0x9e3779b9] \
     [--fault-rate 0.0] [--worker-fault-rate 0.0] [--chaos-seed 0xC0A5]";

const FLAGS: &[&str] = &[
    "--listen",
    "--stages",
    "--layers",
    "--iterations",
    "--micro-batches",
    "--activation-bytes",
    "--seed",
    "--fault-rate",
    "--worker-fault-rate",
    "--chaos-seed",
];

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&args, FLAGS, USAGE)?;
    let listen = args.str("--listen").unwrap_or("127.0.0.1:7070").to_string();
    let mut spec = NetPipelineSpec::default();
    if let Some(v) = args.u32("--stages")? {
        spec.stages = v;
    }
    if let Some(v) = args.u32("--layers")? {
        spec.layers = v;
    }
    if let Some(v) = args.u32("--iterations")? {
        spec.iterations = v;
    }
    if let Some(v) = args.u32("--micro-batches")? {
        spec.micro_batches = v;
    }
    if let Some(v) = args.usize("--activation-bytes")? {
        spec.activation_bytes = v;
    }
    if let Some(v) = args.u64("--seed")? {
        spec.seed = v;
    }
    if let Some(v) = args.u64("--chaos-seed")? {
        spec.chaos_seed = v;
    }
    if let Some(v) = args.f64("--fault-rate")? {
        spec.net_fault_rate = v;
    }
    if let Some(v) = args.f64("--worker-fault-rate")? {
        spec.worker_fault_rate = v;
    }
    spec.validate().map_err(|e| e.to_string())?;

    let listener = TcpListener::bind(&listen).map_err(|e| format!("bind {listen}: {e}"))?;
    eprintln!(
        "orchestrator: listening on {listen}, {} stages x {} layers, {} iterations x {} micro-batches",
        spec.stages, spec.layers, spec.iterations, spec.micro_batches,
    );
    let expected = spec.expected_outputs();
    let options = SupervisedOptions {
        tuning: NetTuning::from_env(),
        ..SupervisedOptions::default()
    };
    let sup = serve_supervised_tcp(&spec, &options, listener).map_err(|e| e.to_string())?;
    println!(
        "orchestrator: supervision heartbeats {}, detections {}, failovers {}, barriers {}, checkpoints {}, restores {}, stale-rejects {}, shed {}",
        sup.stats.heartbeats,
        sup.stats.detections,
        sup.stats.failovers,
        sup.stats.barriers,
        sup.stats.checkpoints_stored,
        sup.stats.restores_sent,
        sup.stats.stale_rejects,
        sup.stats.shed_sessions,
    );
    let report = sup.net;
    let bit_identical = report.outputs == expected;
    println!(
        "orchestrator: done. digest {:#018x}, relayed {}, retransmits {}, sentinels {}, reconnects {}, rekeys {}, lockstep {}, bit-identical {}",
        report.output_digest,
        report.relayed_frames,
        report.retransmits,
        report.sentinels,
        report.reconnects,
        report.rekeys,
        report.lockstep_ok,
        bit_identical,
    );
    if !bit_identical {
        return Err("outputs diverged from the in-process reference".to_string());
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("orchestrator: {e}");
            ExitCode::FAILURE
        }
    }
}
