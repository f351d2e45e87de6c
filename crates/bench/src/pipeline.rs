//! Stage-scaling experiment: pipeline-parallel throughput and per-link
//! crypto serialization versus stage count.
//!
//! The model is sharded over 1/2/4/8 stages and micro-batches stream
//! through the encrypted inter-stage links. Claims under test:
//!
//! - CC-off is fastest at every stage count (no crypto anywhere);
//! - PipeLLM throughput ≥ native CC at every stage count — at one stage
//!   the two coincide (no inter-stage links to pipeline), and from two
//!   stages up the speculative edge pipelines hide the per-hop seals that
//!   native CC serializes onto the stage threads;
//! - per-link crypto serialization *grows* with stage count (more hops
//!   per micro-batch), which is exactly why it must be measured per edge
//!   rather than assumed constant;
//! - every edge's channel counters end in lockstep for every session.

use crate::artifact::{fixed, num, text, Artifact, Clock};
use pipellm_serving::engine::ServingEngine;
use pipellm_serving::pipeline::{PipelineConfig, PipelineEngine, PipelineSystem};

/// One (stage count, system) measurement.
#[derive(Debug, Clone)]
pub struct PipelineRow {
    /// Pipeline stages.
    pub stages: usize,
    /// System label ("w/o CC", "CC", "PipeLLM").
    pub system: String,
    /// Micro-batches retired per second.
    pub mb_per_sec: f64,
    /// Throughput relative to "w/o CC" at the same stage count.
    pub vs_cc_off: f64,
    /// Speculation success rate over all edge directions (PipeLLM only).
    pub spec_hit_rate: Option<f64>,
    /// Total seal/open time serialized onto the inter-stage links, in
    /// seconds.
    pub edge_serialization_s: f64,
    /// Whether every edge's counters ended in lockstep for every session.
    pub lockstep: bool,
}

/// Crypto worker threads per device at every scale point: the paper's
/// multi-threaded engine (§7.2), the same k for all three systems — native
/// CC gang-shards its blocking seals across the pool exactly like
/// PipeLLM's speculative seals, so the comparison isolates *pipelining*,
/// not thread count.
pub const CRYPTO_THREADS: usize = 4;

/// The engine configuration used at every scale point.
fn config(stages: usize, micro_batches: usize, iterations: usize) -> PipelineConfig {
    PipelineConfig {
        stages,
        micro_batches,
        iterations,
        crypto_threads: CRYPTO_THREADS,
        ..PipelineConfig::default()
    }
}

/// Runs one system at one stage count.
fn run_system(
    system: PipelineSystem,
    stages: usize,
    micro_batches: usize,
    iterations: usize,
) -> PipelineRow {
    let mut engine = PipelineEngine::new(PipelineConfig {
        system,
        ..config(stages, micro_batches, iterations)
    });
    let report = engine.run_to_completion().expect("pipeline run");
    let summary = engine.cluster().timeline_summary(report.finished_at);
    let stats = engine.spec_stats();
    PipelineRow {
        stages,
        system: system.label().to_string(),
        mb_per_sec: report.tokens_per_sec,
        vs_cc_off: 0.0,
        spec_hit_rate: (system == PipelineSystem::PipeLlm && stats.speculated > 0)
            .then(|| stats.success_rate()),
        edge_serialization_s: summary.total_edge_serialization().as_secs_f64(),
        lockstep: engine.verify_edges().is_ok(),
    }
}

/// Runs the stage-scaling sweep: for each stage count, all three systems,
/// with `vs_cc_off` normalized against the CC-off row.
pub fn run(stage_counts: &[usize], micro_batches: usize, iterations: usize) -> Vec<PipelineRow> {
    let systems = [
        PipelineSystem::CcOff,
        PipelineSystem::CcNative,
        PipelineSystem::PipeLlm,
    ];
    let mut rows = Vec::new();
    for &stages in stage_counts {
        let mut batch: Vec<PipelineRow> = systems
            .iter()
            .map(|&s| run_system(s, stages, micro_batches, iterations))
            .collect();
        let baseline = batch[0].mb_per_sec.max(f64::MIN_POSITIVE);
        for row in &mut batch {
            row.vs_cc_off = row.mb_per_sec / baseline;
        }
        rows.extend(batch);
    }
    rows
}

/// The `BENCH_pipeline.json` artifact: one simulated-clock row section.
pub fn artifact(rows: &[PipelineRow]) -> Artifact {
    Artifact::new("experiment", "pipeline_stage_scaling")
        .header("crypto_threads", num(CRYPTO_THREADS))
        .section("rows", Clock::Sim, rows, |r| {
            vec![
                ("stages", num(r.stages)),
                ("system", text(&r.system)),
                ("mb_per_sec", fixed(r.mb_per_sec, 3)),
                ("vs_cc_off", fixed(r.vs_cc_off, 3)),
                ("spec_hit_rate", fixed(r.spec_hit_rate, 4)),
                ("edge_serialization_s", fixed(r.edge_serialization_s, 6)),
                ("lockstep", num(r.lockstep)),
            ]
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipellm_at_least_matches_cc_and_serialization_scales() {
        let rows = run(&[1, 2], 2, 2);
        assert_eq!(rows.len(), 6);
        let get = |stages: usize, label: &str| {
            rows.iter()
                .find(|r| r.stages == stages && r.system == label)
                .unwrap_or_else(|| panic!("row {label}@{stages}"))
                .clone()
        };
        for stages in [1usize, 2] {
            let off = get(stages, "w/o CC");
            let cc = get(stages, "CC");
            let pipellm = get(stages, "PipeLLM");
            assert!(pipellm.mb_per_sec + 1e-9 >= cc.mb_per_sec);
            assert!(off.mb_per_sec + 1e-9 >= pipellm.mb_per_sec);
            assert!(off.lockstep && cc.lockstep && pipellm.lockstep);
        }
        // Links appear at 2 stages; their serialization is strictly
        // positive there and zero in the single-GPU run.
        assert_eq!(get(1, "CC").edge_serialization_s, 0.0);
        assert!(get(2, "CC").edge_serialization_s > 0.0);
        assert!(get(2, "PipeLLM").spec_hit_rate.unwrap() > 0.5);
    }

    #[test]
    fn json_artifact_is_well_formed() {
        let rows = run(&[1], 2, 1);
        let json = artifact(&rows).json();
        assert!(json.contains("\"experiment\": \"pipeline_stage_scaling\""));
        assert_eq!(json.matches("\"stages\":").count(), rows.len());
        assert!(!artifact(&rows).tables().is_empty());
    }
}
