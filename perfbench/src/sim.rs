//! The paper's KV-swap panel on the simulated stack: OPT-30B under vLLM,
//! ShareGPT arrivals at 0.8 req/s with parallel sampling 6, served by the
//! w/o-CC, native-CC and PipeLLM runtimes. Every number here is cost-model
//! output on the simulated clock, never a wall-clock measurement.

use crate::stats::median;
use pipellm::PipeLlmStats;
use pipellm_bench::systems::{System, H100_BYTES};
use pipellm_gpu::runtime::SessionedRuntime;
use pipellm_llm::ModelSpec;
use pipellm_serving::{VllmConfig, VllmEngine};
use pipellm_workloads::{Dataset, Request, TraceConfig};

/// Arrival rate of the panel (req/s).
const RATE_RPS: f64 = 0.8;
/// Parallel sampling width.
const PARALLEL: u32 = 6;
/// Simulated seconds of arrivals per trace.
const TRACE_SECS: f64 = 300.0;
/// Traces replayed per run. Near saturation one trace's normalized
/// latency varies threefold with its arrival pattern, so the panel reports
/// medians over many traces, which keeps the seed-to-seed spread small.
const TRACES: u64 = 256;

/// The panel's outcome over its traces.
#[derive(Debug, Clone, Default)]
pub struct Panel {
    /// Median over traces of PipeLLM's normalized latency (s/token).
    pub pipellm: f64,
    /// Median over traces of PipeLLM's normalized latency divided by that
    /// of w/o CC on the same trace.
    pub vs_cc_off: f64,
    /// PipeLLM's speculation counters, summed over traces.
    pub stats: PipeLlmStats,
    /// PipeLLM's KV swap-outs, summed over traces.
    pub preemptions: u64,
    /// Median over traces of native CC's normalized latency (s/token).
    pub cc: f64,
    /// Traces replayed.
    pub traces: u64,
    /// Traces whose PipeLLM tenant-session counters ended out of lockstep.
    pub out_of_lockstep: u64,
    /// Traces where PipeLLM was slower than native CC. Near saturation a
    /// single trace can even have CC beat w/o CC, so the claim is checked
    /// on the medians and this count is only reported.
    pub over_cc: u64,
}

fn trace(seed: u64) -> Vec<Request> {
    TraceConfig::new(Dataset::ShareGpt, RATE_RPS)
        .duration_secs(TRACE_SECS)
        .parallel(PARALLEL)
        .seed(seed)
        .generate()
}

fn baseline(system: &System, requests: &[Request]) -> Result<f64, String> {
    let rt = system.build(H100_BYTES);
    let mut engine = VllmEngine::load(rt, VllmConfig::new(ModelSpec::opt_30b()), "kvswap")
        .map_err(|e| format!("{} load: {e}", system.label()))?;
    let report = engine
        .serve(requests)
        .map_err(|e| format!("{} serve: {e}", system.label()))?;
    Ok(report.norm_latency_s_per_token)
}

/// Replays the panel on traces derived from `seed`.
pub fn run(seed: u64) -> Result<Panel, String> {
    let mut panel = Panel::default();
    let mut latencies = Vec::new();
    let mut ratios = Vec::new();
    let mut ccs = Vec::new();
    for i in 0..TRACES {
        let requests = trace(seed.wrapping_mul(TRACES).wrapping_add(i));
        let cc_off = baseline(&System::cc_off(), &requests)?;
        let cc = baseline(&System::cc(), &requests)?;

        let rt = System::pipellm(2).build_pipellm(H100_BYTES);
        let mut engine = VllmEngine::load(rt, VllmConfig::new(ModelSpec::opt_30b()), "kvswap")
            .map_err(|e| format!("PipeLLM load: {e}"))?;
        let session = engine
            .bind_session()
            .map_err(|e| format!("PipeLLM session: {e}"))?;
        let report = engine
            .serve(&requests)
            .map_err(|e| format!("PipeLLM serve: {e}"))?;
        let pipellm = report.norm_latency_s_per_token;
        panel.stats += engine.runtime().spec_stats();
        panel.preemptions += report.preemptions;
        let lockstep = engine
            .runtime()
            .session_counters(session)
            .is_some_and(|c| c.in_lockstep());
        panel.traces += 1;
        panel.out_of_lockstep += u64::from(!lockstep);
        panel.over_cc += u64::from(pipellm > cc);
        latencies.push(pipellm);
        ratios.push(pipellm / cc_off);
        ccs.push(cc);
    }
    panel.pipellm = median(&latencies);
    panel.vs_cc_off = median(&ratios);
    panel.cc = median(&ccs);
    Ok(panel)
}
