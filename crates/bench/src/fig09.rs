//! Figure 9: pipelining vs trivial multi-threading — vLLM OPT-30B, Alpaca,
//! parallel size 6.
//!
//! Paper claim: "PipeLLM only uses two threads and yet outperforms 'CC'
//! with four threads but in the absence of pipelining." Hiding encryption
//! behind the pipeline beats merely making encryption faster, because with
//! native CC the GPU still idles for the (shorter) encryption on every
//! swap-in.

use crate::fig08::{run_panel, Panel, SERVING_THREADS};
use crate::runners::Scale;
use crate::systems::System;
use crate::table::Table;
use pipellm_llm::ModelSpec;
use pipellm_workloads::Dataset;

/// The systems of Figure 9: the two baselines, brute-force CC-4t, and
/// PipeLLM with half the threads.
pub fn default_systems() -> Vec<System> {
    vec![
        System::cc_off(),
        System::cc(),
        System::cc_threads(4),
        System::pipellm(SERVING_THREADS),
    ]
}

/// The Figure 9 panel (Alpaca, parallel 6).
pub fn panel() -> Panel {
    Panel {
        dataset: Dataset::Alpaca,
        parallel: 6,
        rates: vec![0.5, 2.0, 4.0, 6.0, 8.0],
    }
}

/// Runs the thread-count comparison.
pub fn run(scale: Scale) -> Table {
    let mut table = run_panel(&ModelSpec::opt_30b(), &panel(), &default_systems(), scale);
    table.set_title("Figure 9: vLLM OPT-30B Alpaca p=6 — CC-4t vs PipeLLM (2 threads)");
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig08::run_one;

    #[test]
    fn pipelining_beats_brute_force_threads() {
        // At a saturated operating point (past the paper's Figure 9 knee)
        // PipeLLM with 2 threads must still beat CC with 4.
        let model = ModelSpec::opt_30b();
        let p = Panel {
            dataset: Dataset::Alpaca,
            parallel: 2,
            rates: vec![],
        };
        let rate = 25.0;
        let cc4 = run_one(&System::cc_threads(4), &model, &p, rate, Scale::Quick);
        let pipe = run_one(
            &System::pipellm(SERVING_THREADS),
            &model,
            &p,
            rate,
            Scale::Quick,
        );
        assert!(
            pipe.norm_latency_s_per_token < cc4.norm_latency_s_per_token,
            "PipeLLM(2t) {:.4} must beat CC-4t {:.4}",
            pipe.norm_latency_s_per_token,
            cc4.norm_latency_s_per_token
        );
    }

    #[test]
    fn more_threads_do_help_native_cc() {
        // CC-4t is a real improvement over CC-1t — the point is that
        // pipelining helps *more*, not that threads are useless.
        let model = ModelSpec::opt_30b();
        let p = panel();
        let rate = 8.0;
        let cc1 = run_one(&System::cc(), &model, &p, rate, Scale::Quick);
        let cc4 = run_one(&System::cc_threads(4), &model, &p, rate, Scale::Quick);
        assert!(
            cc4.norm_latency_s_per_token <= cc1.norm_latency_s_per_token,
            "CC-4t {:.4} vs CC {:.4}",
            cc4.norm_latency_s_per_token,
            cc1.norm_latency_s_per_token
        );
    }
}
