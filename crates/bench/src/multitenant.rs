//! Tenant-scaling experiment: normalized latency and speculation hit rate
//! versus tenant count, over one shared runtime.
//!
//! The paper's evaluation serves a single confidential channel; this
//! experiment asks what happens when N independent tenants multiplex over
//! the same GPU, link, and crypto workers. Each tenant runs the
//! KV-swapping request loop of
//! [`pipellm_serving::multitenant::MultiTenantDriver`]; the systems under
//! test are the usual three. Claims under test:
//!
//! - normalized latency rises with tenant count on every system (shared-
//!   resource contention);
//! - PipeLLM stays below native CC at *every* tenant count — per-session
//!   speculation keeps encryption off the critical path even while the
//!   sessions contend for the crypto pool;
//! - every session ends with its channel counters in lockstep, and under
//!   PipeLLM every session reports its own speculation hits.

use crate::artifact::{fixed, num, opt, text, Artifact, Clock};
use crate::systems::System;
use pipellm_serving::multitenant::{MultiTenantDriver, MultiTenantReport, TenantSpec};

/// Device capacity for the experiment: small enough that the working sets
/// matter, large enough that nothing thrashes.
const CAPACITY: u64 = 8_000_000_000;

/// One (tenant count, system) measurement.
#[derive(Debug, Clone)]
pub struct MultiTenantRow {
    /// Number of concurrent tenants.
    pub tenants: usize,
    /// System label ("w/o CC", "CC", "PipeLLM").
    pub system: String,
    /// Mean normalized latency (s per working-set chunk) across tenants.
    pub norm_latency_s_per_chunk: f64,
    /// Normalized latency relative to "w/o CC" at the same tenant count.
    pub vs_cc_off: f64,
    /// Aggregate speculation success rate over all sessions (PipeLLM
    /// rows only).
    pub spec_hit_rate: Option<f64>,
    /// Minimum per-session speculation hits (PipeLLM rows only) — the
    /// per-session accounting the acceptance criteria pin down.
    pub min_session_spec_hits: Option<u64>,
    /// Whether every session's channel counters ended in lockstep.
    pub lockstep: bool,
}

/// The tenant workload used at every scale point.
fn specs(tenants: usize, requests: usize) -> Vec<TenantSpec> {
    (0..tenants)
        .map(|i| {
            TenantSpec::new(4.0)
                .requests(requests)
                .seed(0xbeef + i as u64)
        })
        .collect()
}

fn drive<R: pipellm_gpu::SessionedRuntime>(
    rt: R,
    tenants: usize,
    requests: usize,
) -> (MultiTenantReport, R) {
    let mut driver = MultiTenantDriver::new(rt);
    for spec in specs(tenants, requests) {
        driver.add_tenant(spec);
    }
    let report = driver.run().expect("multi-tenant run cannot fail");
    (report, driver.into_runtime())
}

/// Runs one system at one tenant count.
fn run_system(system: &System, tenants: usize, requests: usize) -> MultiTenantRow {
    match system {
        System::PipeLlm { .. } => {
            // Concrete runtime so per-session speculation stats stay
            // readable after the run.
            let (report, rt) = drive(*system.build_pipellm(CAPACITY), tenants, requests);
            let mut aggregate = pipellm::PipeLlmStats::default();
            let mut min_hits = u64::MAX;
            for tenant in &report.tenants {
                let stats = rt
                    .session_spec_stats(tenant.session)
                    .expect("tenant session has state");
                min_hits = min_hits.min(stats.spec_hits);
                aggregate += stats;
            }
            MultiTenantRow {
                tenants,
                system: system.label(),
                norm_latency_s_per_chunk: report.mean_norm_latency(),
                vs_cc_off: 0.0,
                spec_hit_rate: Some(aggregate.success_rate()),
                min_session_spec_hits: Some(min_hits),
                lockstep: report.verify_lockstep().is_ok(),
            }
        }
        _ => {
            let (report, _rt) = drive(system.build_sessioned(CAPACITY), tenants, requests);
            MultiTenantRow {
                tenants,
                system: system.label(),
                norm_latency_s_per_chunk: report.mean_norm_latency(),
                vs_cc_off: 0.0,
                spec_hit_rate: None,
                min_session_spec_hits: None,
                lockstep: report.verify_lockstep().is_ok(),
            }
        }
    }
}

/// Runs the tenant-scaling sweep: for each tenant count, all three
/// systems, with `vs_cc_off` normalized against the CC-off row.
pub fn run(counts: &[usize], requests: usize) -> Vec<MultiTenantRow> {
    let systems = [System::cc_off(), System::cc_threads(2), System::pipellm(2)];
    let mut rows = Vec::new();
    for &tenants in counts {
        let mut batch: Vec<MultiTenantRow> = systems
            .iter()
            .map(|s| run_system(s, tenants, requests))
            .collect();
        let baseline = batch[0].norm_latency_s_per_chunk.max(f64::MIN_POSITIVE);
        for row in &mut batch {
            row.vs_cc_off = row.norm_latency_s_per_chunk / baseline;
        }
        rows.extend(batch);
    }
    rows
}

/// The `BENCH_multitenant.json` artifact: one simulated-clock row section.
pub fn artifact(rows: &[MultiTenantRow]) -> Artifact {
    Artifact::new("experiment", "multitenant_scaling").section("rows", Clock::Sim, rows, |r| {
        vec![
            ("tenants", num(r.tenants)),
            ("system", text(&r.system)),
            (
                "norm_latency_s_per_chunk",
                fixed(r.norm_latency_s_per_chunk, 6),
            ),
            ("vs_cc_off", fixed(r.vs_cc_off, 3)),
            ("spec_hit_rate", fixed(r.spec_hit_rate, 4)),
            ("min_session_spec_hits", opt(r.min_session_spec_hits)),
            ("lockstep", num(r.lockstep)),
        ]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipellm_beats_cc_at_every_tenant_count() {
        let rows = run(&[1, 2, 4], 10);
        assert_eq!(rows.len(), 9);
        for tenants in [1usize, 2, 4] {
            let get = |label: &str| {
                rows.iter()
                    .find(|r| r.tenants == tenants && r.system == label)
                    .unwrap_or_else(|| panic!("row {label}@{tenants}"))
                    .clone()
            };
            let off = get("w/o CC");
            let cc = get("CC-2t");
            let pipellm = get("PipeLLM");
            assert!(
                pipellm.norm_latency_s_per_chunk < cc.norm_latency_s_per_chunk,
                "PipeLLM must beat CC at {tenants} tenants: {} vs {}",
                pipellm.norm_latency_s_per_chunk,
                cc.norm_latency_s_per_chunk
            );
            assert!(off.norm_latency_s_per_chunk <= pipellm.norm_latency_s_per_chunk);
            assert!(pipellm.lockstep && cc.lockstep && off.lockstep);
            assert!(pipellm.spec_hit_rate.unwrap() > 0.5);
            assert!(
                pipellm.min_session_spec_hits.unwrap() > 0,
                "every session must report its own hits"
            );
        }
    }

    #[test]
    fn json_artifact_is_well_formed() {
        let rows = run(&[1], 6);
        let json = artifact(&rows).json();
        assert!(json.contains("\"experiment\": \"multitenant_scaling\""));
        assert!(json.contains("\"system\": \"PipeLLM\""));
        assert_eq!(json.matches("\"tenants\":").count(), rows.len());
        assert!(!artifact(&rows).tables().is_empty());
    }
}
