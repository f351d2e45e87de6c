//! Encrypted paged KV-cache experiment: vLLM normalized latency versus
//! request rate over the sealed swap pipeline.
//!
//! The workload is the paper's hardest vLLM panel (OPT-30B, ShareGPT,
//! parallel size 6): KV pressure forces request-wise LIFO swapping, and
//! every eviction now moves as a paged group of sealed transfers —
//! genuine AES-GCM under the engine's session keys, one IV per page.
//! Claims under test:
//!
//! - PipeLLM matches or beats native CC at *every* arrival rate: sealed
//!   swap-outs return before decryption (deferred opens behind revoked
//!   pages) and reloads commit pre-encrypted ciphertext;
//! - the pre-decryption half of the pipeline shows a measurable hit rate
//!   wherever swapping occurs;
//! - the PipeLLM engine runs sessioned: its swap crypto lives in a
//!   dedicated tenant session whose counters end in lockstep.

use crate::artifact::{fixed, num, opt, text, Artifact, Clock};
use crate::systems::System;
use pipellm_gpu::runtime::SessionedRuntime;
use pipellm_llm::ModelSpec;
use pipellm_serving::{VllmConfig, VllmEngine};
use pipellm_workloads::{Dataset, Request, TraceConfig};

/// Parallel sampling width of the panel (the paper's hardest setting).
const PARALLEL: u32 = 6;

/// One (arrival rate, system) measurement.
#[derive(Debug, Clone)]
pub struct KvCacheRow {
    /// Poisson arrival rate in requests/second.
    pub rate_rps: f64,
    /// System label ("w/o CC", "CC", "PipeLLM").
    pub system: String,
    /// vLLM's metric: mean end-to-end latency / output length.
    pub norm_latency_s_per_token: f64,
    /// Normalized latency relative to "w/o CC" at the same rate.
    pub vs_cc_off: f64,
    /// Preemptions (each one a sealed paged swap-out).
    pub preemptions: u64,
    /// KV pages sealed on eviction (PipeLLM rows only).
    pub sealed_pages: Option<u64>,
    /// H2D speculation success rate over pipelined reloads (PipeLLM).
    pub spec_hit_rate: Option<f64>,
    /// Fraction of background opens finalized ahead of use (PipeLLM).
    pub pre_decrypt_rate: Option<f64>,
    /// Whether the engine's tenant-session counters ended in lockstep
    /// (PipeLLM rows only).
    pub lockstep: Option<bool>,
}

fn trace(rate_rps: f64, duration_secs: f64) -> Vec<Request> {
    // Same seed per rate so all systems serve the identical trace.
    TraceConfig::new(Dataset::ShareGpt, rate_rps)
        .duration_secs(duration_secs)
        .parallel(PARALLEL)
        .seed(seed_for(rate_rps))
        .generate()
}

fn seed_for(rate_rps: f64) -> u64 {
    0xcafe + (rate_rps * 1000.0) as u64
}

/// Runs one system at one arrival rate.
fn run_system(system: &System, rate_rps: f64, duration_secs: f64) -> KvCacheRow {
    let model = ModelSpec::opt_30b();
    let label = format!("vLLM kvcache {rate_rps}r/s");
    match system {
        System::PipeLlm { .. } => {
            let rt = system.build_pipellm(crate::systems::H100_BYTES);
            let mut engine =
                VllmEngine::load(rt, VllmConfig::new(model), label).expect("model fits");
            // Sessioned: the engine's swap crypto runs under its own
            // tenant session, as a multi-tenant deployment would have it.
            let session = engine.bind_session().expect("fresh session binds");
            let report = engine
                .serve(&trace(rate_rps, duration_secs))
                .expect("serve");
            let stats = engine.runtime().spec_stats();
            let counters = engine
                .runtime()
                .session_counters(session)
                .expect("tenant session is live");
            KvCacheRow {
                rate_rps,
                system: system.label(),
                norm_latency_s_per_token: report.norm_latency_s_per_token,
                vs_cc_off: 0.0,
                preemptions: report.preemptions,
                sealed_pages: Some(stats.async_decrypts),
                spec_hit_rate: Some(stats.success_rate()),
                pre_decrypt_rate: Some(stats.pre_decrypt_rate()),
                lockstep: Some(counters.in_lockstep()),
            }
        }
        _ => {
            let rt = system.build(crate::systems::H100_BYTES);
            let mut engine =
                VllmEngine::load(rt, VllmConfig::new(model), label).expect("model fits");
            let report = engine
                .serve(&trace(rate_rps, duration_secs))
                .expect("serve");
            KvCacheRow {
                rate_rps,
                system: system.label(),
                norm_latency_s_per_token: report.norm_latency_s_per_token,
                vs_cc_off: 0.0,
                preemptions: report.preemptions,
                sealed_pages: None,
                spec_hit_rate: None,
                pre_decrypt_rate: None,
                lockstep: None,
            }
        }
    }
}

/// Runs the rate sweep: for each rate, CC-off / native CC / PipeLLM, with
/// `vs_cc_off` normalized against the CC-off row.
pub fn run(rates: &[f64], duration_secs: f64) -> Vec<KvCacheRow> {
    let systems = [System::cc_off(), System::cc(), System::pipellm(2)];
    let mut rows = Vec::new();
    for &rate in rates {
        let mut batch: Vec<KvCacheRow> = systems
            .iter()
            .map(|s| run_system(s, rate, duration_secs))
            .collect();
        let baseline = batch[0].norm_latency_s_per_token.max(f64::MIN_POSITIVE);
        for row in &mut batch {
            row.vs_cc_off = row.norm_latency_s_per_token / baseline;
        }
        rows.extend(batch);
    }
    rows
}

/// The `BENCH_kvcache.json` artifact: one simulated-clock row section.
pub fn artifact(rows: &[KvCacheRow]) -> Artifact {
    Artifact::new("experiment", "kvcache_swapping").section("rows", Clock::Sim, rows, |r| {
        vec![
            ("rate_rps", num(r.rate_rps)),
            ("system", text(&r.system)),
            (
                "norm_latency_s_per_token",
                fixed(r.norm_latency_s_per_token, 6),
            ),
            ("vs_cc_off", fixed(r.vs_cc_off, 3)),
            ("preemptions", num(r.preemptions)),
            ("sealed_pages", opt(r.sealed_pages)),
            ("spec_hit_rate", fixed(r.spec_hit_rate, 4)),
            ("pre_decrypt_rate", fixed(r.pre_decrypt_rate, 4)),
            ("lockstep", opt(r.lockstep)),
        ]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipellm_matches_or_beats_cc_at_every_rate() {
        let rates = [0.4, 0.8];
        let rows = run(&rates, 90.0);
        assert_eq!(rows.len(), 6);
        for &rate in &rates {
            let get = |label: &str| {
                rows.iter()
                    .find(|r| r.rate_rps == rate && r.system == label)
                    .unwrap_or_else(|| panic!("row {label}@{rate}"))
                    .clone()
            };
            let off = get("w/o CC");
            let cc = get("CC");
            let pipellm = get("PipeLLM");
            assert!(
                pipellm.norm_latency_s_per_token <= cc.norm_latency_s_per_token,
                "PipeLLM must not lose to CC at {rate} req/s: {} vs {}",
                pipellm.norm_latency_s_per_token,
                cc.norm_latency_s_per_token
            );
            assert!(off.norm_latency_s_per_token <= pipellm.norm_latency_s_per_token * 1.001);
            assert_eq!(pipellm.lockstep, Some(true));
            if pipellm.preemptions > 0 {
                assert!(pipellm.pre_decrypt_rate.unwrap() > 0.0, "{pipellm:?}");
                assert!(pipellm.sealed_pages.unwrap() > 0);
            }
        }
        // The sweep's high rate must actually exercise swapping.
        assert!(
            rows.iter().any(|r| r.preemptions > 0),
            "no swapping anywhere — the experiment measured nothing"
        );
    }

    #[test]
    fn json_artifact_is_well_formed() {
        let rows = run(&[0.8], 60.0);
        let json = artifact(&rows).json();
        assert!(json.contains("\"experiment\": \"kvcache_swapping\""));
        assert!(json.contains("\"system\": \"PipeLLM\""));
        assert_eq!(json.matches("\"rate_rps\":").count(), rows.len());
        assert!(!artifact(&rows).tables().is_empty());
    }
}
