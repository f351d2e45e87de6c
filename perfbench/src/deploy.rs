//! One rep: a complete supervised deployment over localhost TCP, served by
//! `serve_supervised_tcp`, with every stage worker hosted on a benchmark
//! thread behind the recording wrappers of [`crate::wire`].

use crate::stats::{cpu_seconds, tail};
use crate::wire::{wrap_links, Class, Event, Incarnation, Kinds, Link, Op, Recorder};
use pipellm_net::orchestrator::dial_worker_links;
use pipellm_net::proto::{CounterReport, HOST_NODE};
use pipellm_net::worker::wire_policy;
use pipellm_net::{
    run_worker, serve_supervised_tcp, NetError, NetPipelineSpec, NetResult, NetTuning,
    SupervisedOptions, SupervisionStats, WorkerConfig,
};
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where the one injected worker death of a rep happens.
#[derive(Debug, Clone, Copy)]
pub struct KillPlan {
    /// The stage whose first incarnation dies.
    pub stage: u32,
    /// The micro-batch whose arriving data frame kills it.
    pub key: (u32, u32),
}

/// Everything that defines the deployment one rep serves.
pub struct Setup {
    /// The pipeline.
    pub spec: NetPipelineSpec,
    /// Supervision knobs.
    pub options: SupervisedOptions,
    /// The injected death, if the workload has one.
    pub kill: Option<KillPlan>,
    /// Frame kind table.
    pub kinds: Arc<Kinds>,
}

impl Setup {
    /// A two-stage closed-loop deployment under the default tuning.
    pub fn new(activation_bytes: usize, micro_batches: u32, seed: u64, kinds: Arc<Kinds>) -> Self {
        let tuning = NetTuning::default();
        let per_iteration = 4;
        let spec = NetPipelineSpec {
            stages: 2,
            layers: 8,
            iterations: micro_batches.div_ceil(per_iteration),
            micro_batches: per_iteration,
            activation_bytes,
            seed,
            net_fault_rate: 0.0,
            worker_fault_rate: 0.0,
            policy: wire_policy(&tuning),
            poll: tuning.poll_interval,
            op_timeout: tuning.op_timeout,
            quiet: tuning.quiet_window,
            resend_after: tuning.resend_after,
            ..NetPipelineSpec::default()
        };
        let options = SupervisedOptions {
            tuning,
            admission_window: Some(2),
            admission_deadline: None,
            drain_after: None,
        };
        Setup {
            spec,
            options,
            kill: None,
            kinds,
        }
    }

    /// Micro-batches one rep offers.
    pub fn attempted(&self) -> usize {
        (self.spec.iterations * self.spec.micro_batches) as usize
    }
}

/// Counts that only a traced rep records.
#[derive(Debug, Default, Clone)]
pub struct Traced {
    /// Frames on worker links (both directions) by class: data, ack,
    /// heartbeat, checkpoint, other.
    pub frames: [u64; 5],
    /// Bytes on worker links, both directions.
    pub bytes: u64,
    /// Durations of worker `send_frame` calls, microseconds.
    pub send_us: Vec<f64>,
    /// Receiver time blocked, and the part that delivered nothing (s).
    pub recv_wait_s: f64,
    /// See `recv_wait_s`.
    pub recv_idle_s: f64,
    /// Checkpoint save/restore frames and their bytes.
    pub checkpoint_frames: u64,
    /// See `checkpoint_frames`.
    pub checkpoint_bytes: u64,
    /// AES-GCM seals of data frames (workers' sends plus host ingress).
    pub seals: u64,
    /// AES-GCM opens of data frames (workers' receives plus host egress).
    pub opens: u64,
    /// `apply_stage` calls: distinct outputs each incarnation produced.
    pub applies: u64,
    /// Kill → replacement receives `Welcome`, ms.
    pub readmit_ms: Option<f64>,
    /// Kill → replacement receives its first data frame, ms.
    pub resume_ms: Option<f64>,
    /// The spans, kept for the trace file.
    pub events: Vec<Event>,
}

/// What one rep measured.
#[derive(Debug, Default, Clone)]
pub struct Rep {
    /// Whether every frame was recorded.
    pub traced: bool,
    /// Micro-batches offered, and completed.
    pub attempted: usize,
    /// See `attempted`.
    pub completed: usize,
    /// Why the rep failed, if it did (the whole rep then counts failed).
    pub error: Option<String>,
    /// Order-sensitive digest of the served outputs.
    pub digest: u64,
    /// Run start → `serve_supervised_tcp` returns, s.
    pub wall_s: f64,
    /// Run start → first ingress frame at stage 0, s.
    pub setup_s: f64,
    /// First ingress → last egress, s.
    pub serve_s: f64,
    /// Last egress → run returns, s.
    pub drain_s: f64,
    /// Process CPU over the rep, s.
    pub cpu_s: f64,
    /// Per micro-batch `(key, ingress ns, egress ns)` since the rep began.
    pub mb_spans: Vec<((u32, u32), u64, u64)>,
    /// Per micro-batch ingress → egress, ms.
    pub latency_ms: Vec<f64>,
    /// This rep's latency tail: `(ms, percentile, samples beyond it)`.
    pub tail: (f64, u32, usize),
    /// Longest gap between consecutive egress frames, ms.
    pub stall_ms: f64,
    /// Per-stage data in → data out, ms.
    pub stage_ms: Vec<Vec<f64>>,
    /// Stage 0 send → stage 1 receive, ms.
    pub hop_ms: Vec<f64>,
    /// Data frames workers sent, and how many were first tries.
    pub data_sent: u64,
    /// See `data_sent`.
    pub data_first: u64,
    /// Program counters from the `SupervisedReport`.
    pub relayed: u64,
    /// See `relayed`.
    pub retransmits: u64,
    /// See `relayed`.
    pub sentinels: u64,
    /// See `relayed`.
    pub reconnects: u64,
    /// See `relayed`.
    pub stats: SupervisionStats,
    /// Final worker incarnations that lost a link while tearing down
    /// after the orchestrator had finished the run.
    pub teardown_errors: u64,
    /// Traced-only detail.
    pub traced_detail: Option<Traced>,
}

/// How long a killed worker takes to come back: the external respawn loop
/// restarts the process once the old one has exited, and exec-ing a new
/// process takes milliseconds. A replacement that redials sooner than the
/// orchestrator handles the death has its fresh control link torn down by
/// the failover (see the README's defect list), so the restart is not
/// modelled as instant.
const RESTART_DELAY: Duration = Duration::from_millis(10);

/// Hosts `stage` the way an external respawn loop hosts a worker process:
/// run an incarnation; if it died, start the next generation once it has
/// exited and the restart delay has passed. Returns the last
/// incarnation's generation and outcome.
fn host_stage(
    setup: &Setup,
    rec: &Arc<Recorder>,
    addr: SocketAddr,
    stage: u32,
) -> (u32, NetResult<CounterReport>) {
    let spec = &setup.spec;
    let mut generation = 0;
    loop {
        let kill_at = setup
            .kill
            .filter(|k| k.stage == stage && generation == 0)
            .map(|k| k.key);
        let inc = Incarnation::new(stage, generation, kill_at, Arc::clone(rec));
        let mut config = WorkerConfig::with_tuning(stage, &setup.options.tuning);
        config.generation = generation;
        config.policy = spec.policy;
        config.poll = spec.poll;
        config.op_timeout = spec.op_timeout;
        config.quiet = spec.quiet;
        config.resend_after = spec.resend_after;
        let outcome = dial_worker_links(addr, stage, generation, config.op_timeout)
            .and_then(|links| run_worker(wrap_links(links, &inc), config));
        if !inc.is_dead() {
            return (generation, outcome);
        }
        std::thread::sleep(RESTART_DELAY);
        generation += 1;
        let now = Instant::now();
        rec.mark(Op::Respawn, stage, generation, now, now);
    }
}

/// Serves one rep and measures it.
pub fn run(setup: &Setup, traced: bool) -> Rep {
    let rec = Arc::new(Recorder::new(traced, Arc::clone(&setup.kinds)));
    let cpu0 = cpu_seconds();
    let attempted = setup.attempted();
    let mut rep = Rep {
        traced,
        attempted,
        ..Rep::default()
    };
    let listener = match std::net::TcpListener::bind(("127.0.0.1", 0)) {
        Ok(l) => l,
        Err(e) => {
            rep.error = Some(format!("bind: {e}"));
            return rep;
        }
    };
    let addr = match listener.local_addr() {
        Ok(a) => a,
        Err(e) => {
            rep.error = Some(format!("local_addr: {e}"));
            return rep;
        }
    };
    let shared = &rec;
    let (result, returned, finals) = std::thread::scope(|scope| {
        let stages: Vec<_> = (0..setup.spec.stages)
            .map(|stage| scope.spawn(move || host_stage(setup, shared, addr, stage)))
            .collect();
        let result = serve_supervised_tcp(&setup.spec, &setup.options, listener);
        let returned = Instant::now();
        // Only each stage's last incarnation must end cleanly (on Shutdown).
        let finals: Vec<(u32, NetResult<CounterReport>)> = stages
            .into_iter()
            .map(|handle| {
                handle.join().unwrap_or_else(|_| {
                    let panicked = NetError::Protocol {
                        detail: "worker thread panicked".to_string(),
                    };
                    (0, Err(panicked))
                })
            })
            .collect();
        (result, returned, finals)
    });
    rep.cpu_s = cpu_seconds() - cpu0;
    rep.wall_s = returned.saturating_duration_since(rec.t0()).as_secs_f64();

    let report = match result {
        Ok(report) => report,
        Err(e) => {
            rep.error = Some(format!("serve_supervised_tcp: {e}"));
            return rep;
        }
    };
    for (stage, (generation, outcome)) in finals.iter().enumerate() {
        match outcome {
            Ok(_) => {}
            // The orchestrator already finished a clean, audited run; a
            // worker losing its link while it tears down is counted, not
            // failed (see the README's defect list).
            Err(NetError::ConnectionLost { .. }) => rep.teardown_errors += 1,
            Err(e) => rep.error = Some(format!("stage {stage} generation {generation}: {e}")),
        }
    }
    let all: Vec<(u32, u32)> = (0..setup.spec.iterations)
        .flat_map(|i| (0..setup.spec.micro_batches).map(move |m| (i, m)))
        .collect();
    rep.completed = report.completed.len();
    rep.digest = report.net.output_digest;
    if !report.net.lockstep_ok {
        rep.error = Some("lockstep audit failed".to_string());
    } else if report.completed != all {
        rep.error = Some(format!(
            "{} of {attempted} micro-batches completed in order, {} shed",
            rep.completed,
            report.shed.len()
        ));
    }
    let stats = &report.stats;
    let want = u64::from(setup.kill.is_some());
    if stats.detections != want || stats.failovers != want {
        rep.error = Some(format!(
            "expected {want} detection(s) and failover(s), saw {} and {}",
            stats.detections, stats.failovers
        ));
    }
    rep.relayed = report.net.relayed_frames;
    rep.retransmits = report.net.retransmits;
    rep.sentinels = report.net.sentinels;
    rep.reconnects = report.net.reconnects;
    rep.stats = report.stats.clone();
    drop(report);

    let events = rec.take_events();
    analyse(&mut rep, setup, &events, rec.ns(returned));
    if traced {
        let (wait, idle) = rec.recv_wait();
        let mut detail = traced_detail(&events);
        detail.recv_wait_s = wait.as_secs_f64();
        detail.recv_idle_s = idle.as_secs_f64();
        detail.events = events;
        rep.traced_detail = Some(detail);
    }
    rep
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// For each key, the earliest instant a matching frame crossed its
/// boundary: when `send_frame` returned, or when `recv_frame` delivered it.
fn first_by_key(events: &[Event], pick: impl Fn(&Event) -> bool) -> BTreeMap<(u32, u32), u64> {
    let mut out = BTreeMap::new();
    for e in events.iter().filter(|e| pick(e)) {
        if let Some(env) = e.env {
            out.entry((env.iteration, env.micro_batch))
                .and_modify(|t: &mut u64| *t = (*t).min(e.end))
                .or_insert(e.end);
        }
    }
    out
}

fn is_data(e: &Event, op: Op) -> bool {
    e.op == op && e.class == Class::Data && e.link == Link::Data
}

/// The end-to-end timings and data-frame counts every rep reports.
fn analyse(rep: &mut Rep, setup: &Setup, events: &[Event], returned_ns: u64) {
    let last = setup.spec.stages - 1;
    let ingress = first_by_key(events, |e| {
        is_data(e, Op::Recv) && e.stage == 0 && e.env.is_some_and(|v| v.src == HOST_NODE)
    });
    let egress = first_by_key(events, |e| {
        is_data(e, Op::Send) && e.stage == last && e.env.is_some_and(|v| v.dst == HOST_NODE)
    });
    let (Some(&first_in), Some(&last_out)) = (ingress.values().min(), egress.values().max()) else {
        rep.error
            .get_or_insert_with(|| "no ingress or egress frame seen".to_string());
        return;
    };
    rep.setup_s = first_in as f64 / 1e9;
    rep.serve_s = last_out.saturating_sub(first_in) as f64 / 1e9;
    rep.drain_s = returned_ns.saturating_sub(last_out) as f64 / 1e9;
    rep.mb_spans = ingress
        .iter()
        .filter_map(|(key, t_in)| egress.get(key).map(|t_out| (*key, *t_in, *t_out)))
        .collect();
    rep.latency_ms = rep
        .mb_spans
        .iter()
        .map(|(_, t_in, t_out)| ms(t_out.saturating_sub(*t_in)))
        .collect();
    rep.tail = tail(&rep.latency_ms);
    let mut outs: Vec<u64> = egress.values().copied().collect();
    outs.sort_unstable();
    rep.stall_ms = outs.windows(2).map(|w| ms(w[1] - w[0])).fold(0.0, f64::max);
    rep.stage_ms = (0..setup.spec.stages)
        .map(|stage| {
            let ins = first_by_key(events, |e| is_data(e, Op::Recv) && e.stage == stage);
            let outs = first_by_key(events, |e| is_data(e, Op::Send) && e.stage == stage);
            ins.iter()
                .filter_map(|(key, t_in)| outs.get(key).map(|t| ms(t.saturating_sub(*t_in))))
                .collect()
        })
        .collect();
    if setup.spec.stages > 1 {
        let sent = first_by_key(events, |e| {
            is_data(e, Op::Send) && e.stage == 0 && e.env.is_some_and(|v| v.dst == 1)
        });
        let got = first_by_key(events, |e| is_data(e, Op::Recv) && e.stage == 1);
        rep.hop_ms = sent
            .iter()
            .filter_map(|(key, t)| got.get(key).map(|g| ms(g.saturating_sub(*t))))
            .collect();
    }
    let mut first_tries = BTreeSet::new();
    for e in events.iter().filter(|e| is_data(e, Op::Send)) {
        rep.data_sent += 1;
        if let Some(env) = e.env {
            if first_tries.insert((e.generation, env.src, env.dst, env.seq)) {
                rep.data_first += 1;
            }
        }
    }
}

/// Per-layer counts of a traced rep.
fn traced_detail(events: &[Event]) -> Traced {
    let mut t = Traced::default();
    let mut outputs = BTreeSet::new();
    for e in events {
        match e.op {
            Op::Send | Op::Recv => {}
            _ => continue,
        }
        t.bytes += u64::from(e.bytes);
        let slot = match e.class {
            Class::Data => 0,
            Class::Ack => 1,
            Class::Heartbeat => 2,
            Class::CheckpointReq | Class::CheckpointBlob => 3,
            Class::Welcome | Class::Other => 4,
        };
        t.frames[slot] += 1;
        if e.op == Op::Send {
            t.send_us.push((e.end - e.start) as f64 / 1e3);
        }
        if e.class == Class::CheckpointBlob {
            t.checkpoint_frames += 1;
            t.checkpoint_bytes += u64::from(e.bytes);
        }
        if e.class != Class::Data {
            continue;
        }
        let Some(env) = e.env else { continue };
        match e.op {
            Op::Send => {
                t.seals += 1;
                if env.dst == HOST_NODE {
                    t.opens += 1;
                }
                if outputs.insert((e.stage, e.generation, env.iteration, env.micro_batch)) {
                    t.applies += 1;
                }
            }
            _ => {
                t.opens += 1;
                if env.src == HOST_NODE {
                    t.seals += 1;
                }
            }
        }
    }
    if let Some(kill) = events.iter().find(|e| e.op == Op::Kill) {
        let replacement = |e: &&Event| e.stage == kill.stage && e.generation > kill.generation;
        t.readmit_ms = events
            .iter()
            .filter(replacement)
            .find(|e| e.op == Op::Recv && e.class == Class::Welcome)
            .map(|e| ms(e.end.saturating_sub(kill.start)));
        t.resume_ms = events
            .iter()
            .filter(replacement)
            .find(|e| e.op == Op::Recv && e.class == Class::Data)
            .map(|e| ms(e.end.saturating_sub(kill.start)));
    }
    t
}
