//! Networked-deployment sweep: stage counts over real TCP versus the
//! in-process duplex transport.
//!
//! Each sweep point stands up a full deployment — orchestrator plus one
//! worker per stage — on both transports and serves the same sealed
//! workload. Claims under test:
//!
//! - both transports **complete** at every stage count;
//! - outputs are **bit-exact** with the no-network reference computation,
//!   and the two transports produce the **same digest** — the wire is
//!   invisible to the math;
//! - every edge ends in IV **lockstep** (audited inside the run);
//! - the duplex transport bounds the TCP overhead: the artifact records
//!   the wall-clock ratio so the socket tax is tracked over time.

use crate::artifact::{fixed, num, text, Artifact, Clock};
use pipellm_net::{
    run_supervised_duplex, run_supervised_tcp_threads, NetPipelineSpec, NetReport,
    SupervisedOptions, SupervisedReport,
};
use std::time::{Duration, Instant};

/// Cluster seed: fixed so runs replay bit-identically.
pub const SEED: u64 = 0x9e37_79b9;

/// One (stage count, transport) measurement.
#[derive(Debug, Clone)]
pub struct NetRow {
    /// Pipeline stages (worker count).
    pub stages: u32,
    /// `"duplex"` or `"tcp"`.
    pub transport: String,
    /// End-to-end wall time of the deployment run, milliseconds.
    pub wall_ms: f64,
    /// Served micro-batches per second of wall time.
    pub mb_per_sec: f64,
    /// Worker↔worker frames relayed as opaque ciphertext.
    pub relayed_frames: u64,
    /// Frames retransmitted (NACK, rekey, or sweep).
    pub retransmits: u64,
    /// Outputs equal the no-network reference byte for byte.
    pub bit_exact: bool,
    /// End-of-run lockstep audit passed.
    pub lockstep: bool,
    /// Order-sensitive digest of the outputs.
    pub output_digest: u64,
}

/// The spec used at one sweep point.
pub fn spec_for(stages: u32, smoke: bool) -> NetPipelineSpec {
    NetPipelineSpec {
        stages,
        layers: stages.max(4) * 2,
        iterations: if smoke { 2 } else { 4 },
        micro_batches: if smoke { 2 } else { 4 },
        activation_bytes: if smoke { 1024 } else { 8192 },
        seed: SEED,
        // Generous: only fires on a true wedge; CI cores are starved.
        op_timeout: Duration::from_secs(120),
        ..NetPipelineSpec::default()
    }
}

fn measure<F>(run: F, spec: &NetPipelineSpec) -> (NetReport, NetRow)
where
    F: FnOnce(&NetPipelineSpec, &SupervisedOptions) -> pipellm_net::NetResult<SupervisedReport>,
{
    let start = Instant::now();
    let report = run(spec, &SupervisedOptions::default())
        .expect("deployment run must complete")
        .net;
    let wall = start.elapsed();
    let served = u64::from(spec.iterations) * u64::from(spec.micro_batches);
    let row = NetRow {
        stages: spec.stages,
        transport: report.transport.clone(),
        wall_ms: wall.as_secs_f64() * 1e3,
        mb_per_sec: served as f64 / wall.as_secs_f64().max(1e-9),
        relayed_frames: report.relayed_frames,
        retransmits: report.retransmits,
        bit_exact: report.outputs == spec.expected_outputs(),
        lockstep: report.lockstep_ok,
        output_digest: report.output_digest,
    };
    (report, row)
}

/// Runs the sweep: every stage count on both transports, in pairs so the
/// digests can be compared point by point.
pub fn run(stage_counts: &[u32], smoke: bool) -> Vec<NetRow> {
    let mut rows = Vec::new();
    for &stages in stage_counts {
        let spec = spec_for(stages, smoke);
        let (_, duplex) = measure(run_supervised_duplex, &spec);
        let (_, tcp) = measure(run_supervised_tcp_threads, &spec);
        assert_eq!(
            duplex.output_digest, tcp.output_digest,
            "transports disagree at {stages} stages"
        );
        rows.push(duplex);
        rows.push(tcp);
    }
    rows
}

/// The `BENCH_net.json` artifact: one wall-clock row section.
pub fn artifact(rows: &[NetRow]) -> Artifact {
    Artifact::new("experiment", "net_stage_sweep")
        .header("seed", num(SEED))
        .section("rows", Clock::Wall, rows, |r| {
            vec![
                ("stages", num(r.stages)),
                ("transport", text(&r.transport)),
                ("wall_ms", fixed(r.wall_ms, 3)),
                ("mb_per_sec", fixed(r.mb_per_sec, 3)),
                ("relayed_frames", num(r.relayed_frames)),
                ("retransmits", num(r.retransmits)),
                ("bit_exact", num(r.bit_exact)),
                ("lockstep", num(r.lockstep)),
                ("output_digest", num(r.output_digest)),
            ]
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_is_bit_exact_on_both_transports() {
        let rows = run(&[1, 2], true);
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.bit_exact && r.lockstep));
        assert!(rows.iter().any(|r| r.transport == "tcp"));
        assert!(rows.iter().any(|r| r.transport == "duplex"));
    }

    #[test]
    fn json_has_one_line_per_row() {
        let rows = run(&[1], true);
        let json = artifact(&rows).json();
        assert_eq!(json.matches("\"transport\"").count(), rows.len());
    }
}
