//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the real encrypted deployment over localhost TCP from one
//! process: `serve_supervised_tcp` orchestrates, and two stage workers run
//! on benchmark threads behind link wrappers that timestamp every frame.
//! Each run serves the workload's deployment back to back for `--seconds`
//! (after one warm-up rep), checks every rep's outputs against the
//! reference, replays the simulated KV-swap panel, and prints one JSON
//! object as its last line. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` alternates untraced and traced reps and reports the
//! per-layer metrics, writing the last traced rep's spans to
//! `perfbench/out/`. See `perfbench/README.md` for every metric.
//!
//! Exit status: 0 when every output was correct, 1 when any check failed
//! (the result line still prints), 2 on bad arguments or when a
//! `PIPELLM_*` override is set.

mod deploy;
mod probes;
mod sim;
mod stats;
mod trace;
mod wire;

use deploy::{KillPlan, Rep, Setup};
use pipellm_crypto::session::derive_subseed;
use pipellm_net::orchestrator::digest_outputs;
use pipellm_net::NetTuning;
use stats::{median, peak_rss_mib, quantile, ratio};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One benchmark workload.
struct Workload {
    name: &'static str,
    /// Activation bytes per micro-batch.
    activation_bytes: usize,
    /// Micro-batches one rep serves.
    micro_batches: u32,
    /// Whether one stage worker dies mid-rep.
    kill: bool,
    /// Whether the run is confined to one CPU. The 8 KiB workloads are
    /// latency-bound and keep about one core busy; on two cores of a
    /// virtual machine every hand-off between threads that crosses to the
    /// other core wakes it through the hypervisor, whose delay drifts with
    /// the host's load and swamps the program's own per-message cost.
    one_cpu: bool,
}

const WORKLOADS: [Workload; 3] = [
    // A decode-step hidden state: per-message fixed costs dominate.
    Workload {
        name: "decode-stream",
        activation_bytes: 8 << 10,
        micro_batches: 512,
        kill: false,
        one_cpu: true,
    },
    // A prefill chunk: bytes dominate.
    Workload {
        name: "prefill-bulk",
        activation_bytes: 1 << 20,
        micro_batches: 128,
        kill: false,
        one_cpu: false,
    },
    // The decode-stream shape plus one worker death and its recovery.
    Workload {
        name: "failover",
        activation_bytes: 8 << 10,
        micro_batches: 512,
        kill: true,
        one_cpu: true,
    },
];

/// Stage whose worker dies on `failover`.
const KILL_STAGE: u32 = 1;
/// Measured reps per kind (untraced / traced) at least.
const MIN_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric: name, value, unit, clock.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    clock: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str, clock: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        clock,
    }
}

/// Everything one run produced.
struct Outcome {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    metrics: Vec<Metric>,
    detail: String,
}

fn crypto_path() -> &'static str {
    use pipellm_crypto::hw;
    match (
        hw::vaes_available(),
        hw::aes_available(),
        hw::clmul_available(),
    ) {
        (true, _, true) => "vaes+pclmulqdq",
        (true, _, false) => "vaes",
        (false, true, true) => "aesni+pclmulqdq",
        (false, true, false) => "aesni",
        (false, false, true) => "soft-aes+pclmulqdq",
        (false, false, false) => "soft",
    }
}

fn provenance(args: &Args, tuning: &NetTuning, cores: usize, pinned: Option<usize>) -> String {
    let features: Vec<String> = pipellm_crypto::hw::cpu_features()
        .iter()
        .map(|(name, on)| format!("\"{name}\":{on}"))
        .collect();
    let ms = |d: Duration| d.as_millis();
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host_cores\":{cores},\
         \"pinned_cpu\":{},\
         \"cpu_features\":{{{}}},\"crypto_path\":\"{}\",\"transport\":\"tcp-loopback\",\
         \"net_tuning\":{{\"resend_after_ms\":{},\"heartbeat_interval_ms\":{},\
         \"suspect_after_ms\":{},\"dead_after_ms\":{},\"poll_interval_ms\":{},\
         \"op_timeout_ms\":{},\"quiet_window_ms\":{},\"checkpoint_every\":{},\
         \"max_retries\":{},\"backoff_base_ms\":{},\"backoff_cap_ms\":{},\
         \"wire_op_timeout_ms\":{}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        pinned.map_or("null".to_string(), |cpu| cpu.to_string()),
        features.join(","),
        crypto_path(),
        ms(tuning.resend_after),
        ms(tuning.heartbeat_interval),
        ms(tuning.suspect_after),
        ms(tuning.dead_after),
        ms(tuning.poll_interval),
        ms(tuning.op_timeout),
        ms(tuning.quiet_window),
        tuning.checkpoint_every,
        tuning.max_retries,
        ms(tuning.backoff_base),
        ms(tuning.backoff_cap),
        ms(tuning.wire_op_timeout),
    )
}

fn run(args: &Args, workload: &Workload) -> Result<Outcome, String> {
    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Before any thread exists, so that every thread of the run inherits it.
    let pinned = if workload.one_cpu {
        Some(stats::pin_to_one_cpu()?)
    } else {
        None
    };
    let kinds = Arc::new(wire::Kinds::learn()?);
    let mut setup = Setup::new(
        workload.activation_bytes,
        workload.micro_batches,
        derive_subseed(args.seed, 1),
        kinds,
    );
    if workload.kill {
        // One death at a seed-chosen micro-batch in the middle third.
        let third = setup.attempted() as u64 / 3;
        let global = third + derive_subseed(args.seed, 2) % third;
        let per = u64::from(setup.spec.micro_batches);
        setup.kill = Some(KillPlan {
            stage: KILL_STAGE,
            key: ((global / per) as u32, (global % per) as u32),
        });
    }

    let warmup = deploy::run(&setup, false);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let traced = args.trace && reps.len() % 2 == 1;
        let rep = deploy::run(&setup, traced);
        if traced {
            // Only the last traced rep's spans are written out.
            for old in reps.iter_mut() {
                if let Some(detail) = old.traced_detail.as_mut() {
                    detail.events = Vec::new();
                }
            }
        }
        reps.push(rep);
        let count = |t: bool| reps.iter().filter(|r| r.traced == t).count();
        let enough = count(false) >= MIN_REPS && (!args.trace || count(true) >= MIN_REPS);
        if enough && start.elapsed() >= budget {
            break;
        }
    }
    // Peak memory is read before the reference check allocates.
    let peak_rss_mib = peak_rss_mib();
    let reference = digest_outputs(&setup.spec.expected_outputs());
    let mut attempted = 0;
    let mut failed = 0;
    let mut errors = Vec::new();
    for rep in std::iter::once(&warmup).chain(&reps) {
        attempted += rep.attempted;
        let error = rep.error.clone().or_else(|| {
            (rep.digest != reference)
                .then(|| "served outputs differ from the reference digest".to_string())
        });
        if let Some(e) = error {
            errors.push(e);
            failed += rep.attempted;
        }
    }
    let ok = |r: &&Rep| r.error.is_none() && r.digest == reference;
    let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced).filter(ok).collect();
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).filter(ok).collect();

    let panel = sim::run(derive_subseed(args.seed, 3))?;
    attempted += panel.traces as usize;
    if panel.pipellm > panel.cc {
        errors.push(format!(
            "sim: PipeLLM's median normalized latency {} exceeds native CC's {}",
            panel.pipellm, panel.cc
        ));
        failed += panel.traces as usize;
    } else if panel.out_of_lockstep > 0 {
        errors.push(format!(
            "sim: {} of {} traces ended out of lockstep",
            panel.out_of_lockstep, panel.traces
        ));
        failed += panel.out_of_lockstep as usize;
    }

    let (tail_pct, tail_beyond) = untraced.first().map_or((0, 0), |r| (r.tail.1, r.tail.2));
    let mut detail = format!(
        "{{\"provenance\":{},\"reps\":{{\"warmup\":1,\"untraced\":{},\"traced\":{}}},\
         \"latency_tail\":{{\"percentile\":{tail_pct},\"samples_per_rep\":{},\
         \"beyond_per_rep\":{tail_beyond}}}",
        provenance(args, &setup.options.tuning, host_cores, pinned),
        untraced.len(),
        traced.len(),
        setup.attempted(),
    );

    let metrics = if args.trace {
        let probes = probes::run(
            workload.activation_bytes,
            setup.spec.layers,
            setup.spec.stages,
            setup.spec.seed,
        )?;
        let trace_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.jsonl", workload.name, args.seed));
        if let Some(last) = traced.iter().rev().find(|r| r.traced_detail.is_some()) {
            let lines = trace::write(last, &trace_path)
                .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
            let _ = write!(
                detail,
                ",\"trace_file\":\"{}\",\"trace_spans\":{lines}",
                trace_path.display()
            );
        }
        per_layer(
            &untraced,
            &traced,
            &probes,
            &panel,
            ratio(failed as f64, attempted as f64),
        )
    } else {
        end_to_end(&untraced, &panel, peak_rss_mib)
    };
    let clocks: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\":\"{}\"", m.name, m.clock))
        .collect();
    let _ = write!(detail, ",\"clock\":{{{}}}}}", clocks.join(","));
    Ok(Outcome {
        attempted,
        failed,
        errors,
        metrics,
        detail,
    })
}

/// Median of `f` over `reps`.
fn median_of(reps: &[&Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(|r| f(r)).collect::<Vec<_>>())
}

/// The rates are run totals, not medians over reps: the host's speed
/// drifts over seconds, so per-rep rates cluster around a fast and a slow
/// level, and a median jumps between the two where a total moves in
/// proportion to the time spent in each.
fn end_to_end(reps: &[&Rep], panel: &sim::Panel, peak_rss_mib: f64) -> Vec<Metric> {
    let latencies: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.latency_ms.iter().copied())
        .collect();
    let total = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(|r| f(r)).sum::<f64>();
    let completed = total(&|r| r.completed as f64);
    vec![
        metric("setup_s", median_of(reps, |r| r.setup_s), "s", "wall"),
        metric("wall_s", median_of(reps, |r| r.wall_s), "s", "wall"),
        metric(
            "throughput_mb_s",
            ratio(completed, total(&|r| r.serve_s)),
            "mb/s",
            "wall",
        ),
        metric("latency_p50_ms", median(&latencies), "ms", "wall"),
        metric("drain_s", median_of(reps, |r| r.drain_s), "s", "wall"),
        metric(
            "cpu_ms_per_mb",
            ratio(total(&|r| r.cpu_s) * 1e3, completed),
            "ms",
            "cpu",
        ),
        metric("peak_rss_mib", peak_rss_mib, "MiB", "none"),
        metric("sim_s_per_token", panel.pipellm, "s/token", "sim"),
        metric("sim_vs_cc_off", panel.vs_cc_off, "ratio", "sim"),
    ]
}

fn per_layer(
    untraced: &[&Rep],
    traced: &[&Rep],
    probes: &probes::Probes,
    panel: &sim::Panel,
    failed_frac: f64,
) -> Vec<Metric> {
    let sum = |f: &dyn Fn(&Rep) -> f64| traced.iter().map(|r| f(r)).sum::<f64>();
    let detail_sum = |f: &dyn Fn(&deploy::Traced) -> f64| {
        traced
            .iter()
            .filter_map(|r| r.traced_detail.as_ref())
            .map(f)
            .sum::<f64>()
    };
    let mbs = sum(&|r| r.completed as f64);
    let per_mb = |total: f64| ratio(total, mbs);
    let per_rep = |total: f64| ratio(total, traced.len() as f64);
    let pooled = |f: &dyn Fn(&Rep) -> &Vec<f64>| -> Vec<f64> {
        traced.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let stage_p50 = |stage: usize| {
        median(
            &traced
                .iter()
                .filter_map(|r| r.stage_ms.get(stage))
                .flat_map(|v| v.iter().copied())
                .collect::<Vec<_>>(),
        )
    };
    let send_us: Vec<f64> = traced
        .iter()
        .filter_map(|r| r.traced_detail.as_ref())
        .flat_map(|d| d.send_us.iter().copied())
        .collect();
    let frames = |slot: usize| per_mb(detail_sum(&|d| d.frames[slot] as f64));
    let data_frames = detail_sum(&|d| d.frames[0] as f64);
    let other_frames = detail_sum(&|d| d.frames[1..].iter().sum::<u64>() as f64);
    let recovery = |f: &dyn Fn(&deploy::Traced) -> Option<f64>| {
        median(
            &traced
                .iter()
                .filter_map(|r| r.traced_detail.as_ref().and_then(f))
                .collect::<Vec<_>>(),
        )
    };

    let cpu_ms_per_mb = per_mb(sum(&|r| r.cpu_s) * 1e3);
    let crypto_est = per_mb(
        detail_sum(&|d| d.seals as f64) * probes.seal_us
            + detail_sum(&|d| d.opens as f64) * probes.open_us,
    ) / 1e3;
    let partition_est = per_mb(detail_sum(&|d| d.applies as f64) * probes.apply_stage_us) / 1e3;
    let proto_est = per_mb(
        data_frames * (probes.encode_us + probes.decode_us)
            + other_frames * probes.control_codec_us,
    ) / 1e3;
    let wall = |reps: &[&Rep]| median_of(reps, |r| r.wall_s);
    let stats = &panel.stats;
    vec![
        metric(
            "latency_tail_ms",
            median_of(untraced, |r| r.tail.0),
            "ms",
            "wall",
        ),
        metric(
            "stall_ms",
            median_of(untraced, |r| r.stall_ms),
            "ms",
            "wall",
        ),
        metric("net.worker.stage_ms_p50.s0", stage_p50(0), "ms", "wall"),
        metric("net.worker.stage_ms_p50.s1", stage_p50(1), "ms", "wall"),
        metric(
            "net.worker.teardown_errors",
            ratio(
                untraced
                    .iter()
                    .chain(traced)
                    .map(|r| r.teardown_errors as f64)
                    .sum(),
                (untraced.len() + traced.len()) as f64,
            ),
            "count",
            "none",
        ),
        metric(
            "net.relay.hop_ms_p50",
            median(&pooled(&|r| &r.hop_ms)),
            "ms",
            "wall",
        ),
        metric(
            "net.relay.frames_per_mb",
            per_mb(sum(&|r| r.relayed as f64)),
            "count",
            "none",
        ),
        metric(
            "net.transport.send_us_p50",
            quantile(&send_us, 0.5),
            "us",
            "wall",
        ),
        metric(
            "net.transport.recv_idle_frac",
            ratio(
                detail_sum(&|d| d.recv_idle_s),
                detail_sum(&|d| d.recv_wait_s),
            ),
            "ratio",
            "wall",
        ),
        metric(
            "net.transport.bytes_per_mb",
            per_mb(detail_sum(&|d| d.bytes as f64)),
            "bytes",
            "none",
        ),
        metric(
            "net.transport.frames_per_mb.data",
            frames(0),
            "count",
            "none",
        ),
        metric(
            "net.transport.frames_per_mb.ack",
            frames(1),
            "count",
            "none",
        ),
        metric(
            "net.transport.frames_per_mb.heartbeat",
            frames(2),
            "count",
            "none",
        ),
        metric(
            "net.transport.frames_per_mb.checkpoint",
            frames(3),
            "count",
            "none",
        ),
        metric(
            "net.transport.frames_per_mb.other",
            frames(4),
            "count",
            "none",
        ),
        metric(
            "net.link.retransmits_per_mb",
            per_mb(sum(&|r| r.retransmits as f64)),
            "count",
            "none",
        ),
        metric(
            "net.link.useful_frame_ratio",
            ratio(sum(&|r| r.data_first as f64), sum(&|r| r.data_sent as f64)),
            "ratio",
            "none",
        ),
        metric(
            "net.link.sentinels",
            per_rep(sum(&|r| r.sentinels as f64)),
            "count",
            "none",
        ),
        metric(
            "net.link.reconnects",
            per_rep(sum(&|r| r.reconnects as f64)),
            "count",
            "none",
        ),
        metric(
            "net.checkpoint.bytes_per_mb",
            per_mb(detail_sum(&|d| d.checkpoint_bytes as f64)),
            "bytes",
            "none",
        ),
        metric(
            "net.checkpoint.frames_per_mb",
            per_mb(detail_sum(&|d| d.checkpoint_frames as f64)),
            "count",
            "none",
        ),
        metric(
            "net.supervisor.readmit_ms",
            recovery(&|d| d.readmit_ms),
            "ms",
            "wall",
        ),
        metric(
            "net.supervisor.resume_ms",
            recovery(&|d| d.resume_ms),
            "ms",
            "wall",
        ),
        metric(
            "net.supervisor.stale_rejects",
            per_rep(sum(&|r| r.stats.stale_rejects as f64)),
            "count",
            "none",
        ),
        metric(
            "net.supervisor.heartbeats_per_s",
            ratio(sum(&|r| r.stats.heartbeats as f64), sum(&|r| r.wall_s)),
            "1/s",
            "wall",
        ),
        metric(
            "net.supervisor.backpressure_per_mb",
            per_mb(sum(&|r| r.stats.backpressure_events as f64)),
            "count",
            "none",
        ),
        metric(
            "net.supervisor.detections",
            per_rep(sum(&|r| r.stats.detections as f64)),
            "count",
            "none",
        ),
        metric(
            "net.supervisor.failovers",
            per_rep(sum(&|r| r.stats.failovers as f64)),
            "count",
            "none",
        ),
        metric("crypto.seal_us", probes.seal_us, "us", "wall"),
        metric("crypto.open_us", probes.open_us, "us", "wall"),
        metric("crypto.est_ms_per_mb", crypto_est, "ms", "estimate"),
        metric(
            "core.partition.apply_stage_us",
            probes.apply_stage_us,
            "us",
            "wall",
        ),
        metric(
            "core.partition.est_ms_per_mb",
            partition_est,
            "ms",
            "estimate",
        ),
        metric("net.proto.encode_us", probes.encode_us, "us", "wall"),
        metric("net.proto.decode_us", probes.decode_us, "us", "wall"),
        metric(
            "net.proto.control_codec_us",
            probes.control_codec_us,
            "us",
            "wall",
        ),
        metric("net.proto.est_ms_per_mb", proto_est, "ms", "estimate"),
        metric("traced.cpu_ms_per_mb", cpu_ms_per_mb, "ms", "cpu"),
        metric(
            "unattributed_ms_per_mb",
            cpu_ms_per_mb - crypto_est - partition_est - proto_est,
            "ms",
            "estimate",
        ),
        metric(
            "trace.overhead_wall_s",
            wall(traced) - wall(untraced),
            "s",
            "wall",
        ),
        metric("failed_frac", failed_frac, "ratio", "none"),
        metric(
            "core.predictor.spec_hit_rate",
            ratio(stats.spec_hits as f64, stats.speculated as f64),
            "ratio",
            "sim",
        ),
        metric(
            "core.runtime.relinquishes",
            stats.relinquishes as f64,
            "count",
            "sim",
        ),
        metric(
            "core.runtime.wasted_entries",
            stats.wasted_entries as f64,
            "count",
            "sim",
        ),
        metric(
            "core.kvswap.pre_decrypt_rate",
            stats.pre_decrypt_rate(),
            "ratio",
            "sim",
        ),
        metric(
            "serving.vllm.preemptions",
            panel.preemptions as f64,
            "count",
            "sim",
        ),
        metric(
            "gpu.sealed_pages",
            stats.async_decrypts as f64,
            "count",
            "sim",
        ),
        metric("sim.traces_over_cc", panel.over_cc as f64, "count", "sim"),
    ]
}

fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0 && outcome.errors.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    )
}

fn main() {
    let overrides: Vec<String> = std::env::vars()
        .map(|(key, _)| key)
        .filter(|key| key.starts_with("PIPELLM_"))
        .collect();
    if !overrides.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: PIPELLM_* overrides change the program under test",
            overrides.join(", ")
        );
        std::process::exit(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?}; one of {}",
            args.workload,
            names.join(", ")
        );
        std::process::exit(2);
    };
    let outcome = match run(&args, workload) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for error in &outcome.errors {
        eprintln!("perfbench: check failed: {error}");
    }
    for m in &outcome.metrics {
        eprintln!(
            "  {:<42} {:>16.6} {:<8} [{}]",
            m.name, m.value, m.unit, m.clock
        );
    }
    println!("{}", outcome.detail);
    println!("{}", result_line(&outcome));
    let correct = outcome.failed == 0 && outcome.errors.is_empty();
    std::process::exit(if correct { 0 } else { 1 });
}
