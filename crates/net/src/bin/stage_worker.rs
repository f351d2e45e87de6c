//! `stage-worker`: serve one pipeline stage against a remote orchestrator.
//!
//! Dials the orchestrator twice (control + data), runs the handshake
//! (hello, shard manifest verification, start), serves sealed activation
//! frames for its layer range, and reports its edge counters at the end.
//! Exits non-zero on any handshake, crypto, or link failure.
//!
//! ```text
//! stage-worker --connect 127.0.0.1:7070 --stage 1 [--generation 0]
//!     [--fault-rate 0.0] [--worker-fault-rate 0.0] [--chaos-seed 0xC0A5]
//!     [--timeout-secs 30]
//! ```
//!
//! `--generation` identifies this incarnation to a supervised
//! orchestrator: an external respawn loop restarts a SIGKILLed worker
//! with the next generation, and the acceptor rejects any connection
//! still presenting a superseded one.

use pipellm_chaos::{ChaosInjector, FaultPlan};
use pipellm_crypto::session::derive_subseed;
use pipellm_net::cli::Args;
use pipellm_net::orchestrator::dial_worker_links;
use pipellm_net::{run_worker, NetTuning, WorkerConfig};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "stage-worker --connect 127.0.0.1:7070 --stage 1 [--generation 0] \
     [--fault-rate 0.0] [--worker-fault-rate 0.0] [--chaos-seed 0xC0A5] [--timeout-secs 30]";

const FLAGS: &[&str] = &[
    "--connect",
    "--stage",
    "--generation",
    "--fault-rate",
    "--worker-fault-rate",
    "--chaos-seed",
    "--timeout-secs",
];

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&args, FLAGS, USAGE)?;
    let connect = args
        .str("--connect")
        .unwrap_or("127.0.0.1:7070")
        .to_string();
    let stage = args
        .u32("--stage")?
        .ok_or_else(|| args.error("--stage is required"))?;
    let timeout = Duration::from_secs(args.u64("--timeout-secs")?.unwrap_or(30));
    let generation = args.u32("--generation")?.unwrap_or(0);
    let fault_rate = args.f64("--fault-rate")?.unwrap_or(0.0);
    let worker_fault_rate = args.f64("--worker-fault-rate")?.unwrap_or(0.0);
    let chaos_seed = args.u64("--chaos-seed")?.unwrap_or(0xC0A5);

    let addr = connect
        .parse()
        .map_err(|e| format!("bad address {connect}: {e}"))?;
    let mut config = WorkerConfig::with_tuning(stage, &NetTuning::from_env());
    config.generation = generation;
    config.op_timeout = timeout;
    if generation == 0 && (fault_rate > 0.0 || worker_fault_rate > 0.0) {
        // The same per-node plan NetPipelineSpec::injector_for derives, so
        // a multi-process run replays the in-process chaos schedule. A
        // respawned incarnation (generation > 0) is the recovery path and
        // always runs fault-free.
        let seed = derive_subseed(chaos_seed, u64::from(stage));
        config.chaos = Some(Arc::new(ChaosInjector::new(
            FaultPlan::new(seed)
                .with_net_rate(fault_rate)
                .with_stage_rate(worker_fault_rate),
        )));
    }

    eprintln!("stage-worker {stage} gen {generation}: dialing {connect}");
    let links = dial_worker_links(addr, stage, generation, timeout).map_err(|e| e.to_string())?;
    let report = run_worker(links, config).map_err(|e| e.to_string())?;
    println!(
        "stage-worker {stage}: done. retransmits {}, sentinels {}, reconnects {}, edges {}",
        report.retransmits,
        report.sentinels,
        report.reconnects,
        report.edges.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("stage-worker: {e}");
            ExitCode::FAILURE
        }
    }
}
