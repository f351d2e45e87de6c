//! Machine-readable crypto benchmark: measures AES-GCM seal/open
//! throughput at the transfer sizes the serving engines move and writes
//! `BENCH_crypto.json`, so successive PRs can track the hot path's
//! trajectory without parsing criterion output.
//!
//! Two sections:
//!
//! **`results`** — the single-thread path, three variants per size:
//!
//! - `seal_hw` / `open_hw` — the dispatched hot path (AES-NI + PCLMULQDQ
//!   where available, otherwise identical to `seal_soft`);
//! - `seal_soft` — the portable four-T-table AES + 8-bit-table GHASH path;
//! - `seal_baseline` — the retained single-block reference the fast paths
//!   are measured against (the seed's per-block CTR walk).
//!
//! **`thread_sweep`** — the chunked multi-threaded engine at 1/2/4/8
//! workers per size. Two numbers per point:
//!
//! - `wall_seal_mib_s`: raw wall clock of the engine-attached seal on
//!   *this* host;
//! - `seal_mib_s` / `open_mib_s`: the pool throughput. When the host has
//!   at least as many cores as workers this **is** the measured wall
//!   clock — real scaling, sublinear and all. Only when the host cannot
//!   run the workers in parallel (cores < workers, where the chunked run
//!   serializes) does the bench report the critical-path estimate
//!   instead: each worker crunches `1/k` of the bytes, plus the serial
//!   chunking overhead (gang dispatch, partial-GHASH combine, extended
//!   H-powers) measured as the wall-clock excess of the serialized
//!   chunked run over the sequential run on the same buffer.
//!   `host_cores` records which regime each row was produced in.
//!
//! **`batch`** — the fused small-message path: `count` × `msg_bytes`
//! messages sealed as one [`AesGcm::seal_batch`] submission versus one
//! engine round trip (`submit` + `wait`) per message — the per-message
//! gang-dispatch pattern the batch API replaces on the KV-swap and
//! edge-NOP paths.
//!
//! The run **asserts**:
//!
//! - multi-thread *pool* seal throughput is at least the single-thread
//!   number for every ≥ 1 MiB size — the engine must never lose
//!   throughput to its own chunking overhead;
//! - multi-worker *wall clock* stays within 5% of the single-worker wall
//!   clock at every size — the adaptive gang sizing must keep extra
//!   (possibly unrunnable) workers from ever slowing the submitting
//!   thread down;
//! - the fused batch seal is at least 3x the per-message dispatch
//!   pattern for 4 KiB messages on hosts with ≥ 2 cores (where the fused
//!   submission also gangs), and at least 1.5x on a single-core host —
//!   there the win is purely the eliminated round trips, and the AES-GCM
//!   work itself (~2 µs per 4 KiB message) bounds the achievable ratio.
//!
//! Usage: `cargo run --release -p pipellm-bench --bin bench_crypto
//! [--smoke] [out.json]`

use pipellm_bench::artifact::{fixed, num, text, Artifact, Clock, Column};
use pipellm_crypto::engine::CryptoEngine;
use pipellm_crypto::gcm::{AesGcm, BatchSealMsg, PAR_MIN_BYTES};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const SIZES: [usize; 4] = [4 << 10, 64 << 10, 1 << 20, 16 << 20];
const SWEEP_SIZES: [usize; 3] = [64 << 10, 1 << 20, 16 << 20];
const SWEEP_WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Best-of-three seconds per iteration over enough iterations to fill
/// `window` seconds of wall clock per trial. The minimum is the right
/// estimator here: scheduler interference and frequency dips only ever
/// add time, and the sweep's wall-clock regression guard compares two
/// measurements of (often) the same code path, so a noisy single trial
/// would trip it spuriously on shared hosts.
fn secs_per_iter(window: f64, mut f: impl FnMut()) -> f64 {
    for _ in 0..2 {
        f();
    }
    let mut iters = 1u32;
    let first = loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed > window {
            break elapsed;
        }
        iters = iters.saturating_mul(4);
    };
    let mut best = first;
    for _ in 0..2 {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best / f64::from(iters)
}

/// Paired best-of-N seconds per iteration: interleaves short trials of
/// `a` and `b` (a, b, a, b, …) and returns each side's minimum. The
/// run's regression guards divide one side by the other, and on shared
/// hosts the noise regime (frequency dips, stolen quanta) shifts on the
/// scale of a whole measurement window — two minima sampled from
/// *interleaved* trials land in the same quiet regime, so the ratio
/// stays honest even when absolute throughput swings by 30% between
/// back-to-back measurements.
fn paired_secs_per_iter(window: f64, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    const ROUNDS: usize = 8;
    let trial = window / ROUNDS as f64;
    let calibrate = |f: &mut dyn FnMut()| -> u32 {
        f();
        f();
        let mut iters = 1u32;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            if start.elapsed().as_secs_f64() > trial {
                break iters;
            }
            iters = iters.saturating_mul(4);
        }
    };
    let ia = calibrate(&mut a);
    let ib = calibrate(&mut b);
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        let start = Instant::now();
        for _ in 0..ia {
            a();
        }
        best_a = best_a.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        for _ in 0..ib {
            b();
        }
        best_b = best_b.min(start.elapsed().as_secs_f64());
    }
    (best_a / f64::from(ia), best_b / f64::from(ib))
}

fn mib_s(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / secs / (1 << 20) as f64
}

/// One thread-sweep measurement point.
struct SweepRow {
    workers: usize,
    size: usize,
    seal_mib_s: f64,
    open_mib_s: f64,
    wall_seal_mib_s: f64,
    seal_speedup: f64,
    /// Measured wall clock relative to a 1-worker wall clock measured
    /// adjacent in time (pairing cancels the host's time-correlated
    /// noise) — the adaptive-gang regression guard: ≥ 0.95 required at
    /// every point.
    wall_speedup: f64,
}

/// Critical-path seconds of a k-worker chunked run on a host with fewer
/// than k cores: the chunked run serializes there, so its wall-clock
/// excess over the sequential run *is* the serial chunking overhead, and
/// a k-core deployment's critical path is the per-worker share plus that
/// measured overhead. Hosts with enough cores report the measured wall
/// clock directly instead (see `run_sweep`).
fn critical_path(seq: f64, wall_chunked: f64, workers: usize) -> f64 {
    let overhead = (wall_chunked - seq).max(0.0);
    seq / workers as f64 + overhead
}

fn run_sweep(window: f64, cores: usize) -> Vec<SweepRow> {
    let plain = AesGcm::new(&[7u8; 32]).expect("32-byte key");
    let nonce = [9u8; 12];
    let mut rows = Vec::new();
    for &size in &SWEEP_SIZES {
        let pt = vec![0xabu8; size];
        let mut buf = pt.clone();
        let seq_seal = secs_per_iter(window, || {
            black_box(plain.seal_in_place(&nonce, b"", &mut buf));
        });
        let sealed = plain.seal(&nonce, b"", &pt);
        let mut out = Vec::with_capacity(sealed.len());
        let seq_open = secs_per_iter(window, || {
            plain
                .open_into(&nonce, b"", &sealed, &mut out)
                .expect("authentic");
            black_box(&out);
        });
        let mut baseline_seal = 0.0;
        for &workers in &SWEEP_WORKERS {
            // The adaptive engine: gang width clamps to the host's cores
            // and the calibrated crossover decides whether the pool
            // engages at all, exactly as deployed. The wall clocks below
            // are what a submitting thread really sees.
            let engine = Arc::new(CryptoEngine::new(workers));
            let gcm = AesGcm::new(&[7u8; 32])
                .expect("32-byte key")
                .with_engine(engine);
            // The multi-worker wall clock is measured *interleaved* with
            // a fresh 1-worker wall (`paired_secs_per_iter`): the guard
            // below compares the two, and on a shared host a baseline
            // measured even seconds earlier mostly captures the host's
            // noise regime, not the engine.
            let (wall_seal, paired_base_seal) = if workers == 1 {
                let w = secs_per_iter(window, || {
                    black_box(gcm.seal_in_place(&nonce, b"", &mut buf));
                });
                (w, w)
            } else {
                let base = AesGcm::new(&[7u8; 32])
                    .expect("32-byte key")
                    .with_engine(Arc::new(CryptoEngine::new(1)));
                let mut base_buf = pt.clone();
                paired_secs_per_iter(
                    window,
                    || {
                        black_box(gcm.seal_in_place(&nonce, b"", &mut buf));
                    },
                    || {
                        black_box(base.seal_in_place(&nonce, b"", &mut base_buf));
                    },
                )
            };
            let wall_open = secs_per_iter(window, || {
                gcm.open_into(&nonce, b"", &sealed, &mut out)
                    .expect("authentic");
                black_box(&out);
            });
            // The chunked path only engages with ≥2 workers; the 1-worker
            // row is the sequential path and anchors the speedups. With
            // enough cores the measured wall clock IS the pool throughput
            // (real scaling, sublinear and all). When this host cannot
            // run the workers in parallel the adaptive engine skips the
            // gang entirely, so the k-core projection forces the chunked
            // path (full gang width, threshold floored) to measure the
            // real serial chunking overhead, then decomposes.
            let (cp_seal, cp_open) = if workers == 1 {
                (seq_seal, seq_open)
            } else if cores >= workers {
                (wall_seal, wall_open)
            } else {
                let forced = Arc::new(CryptoEngine::with_gang_width(workers, workers));
                let mut fgcm = AesGcm::new(&[7u8; 32])
                    .expect("32-byte key")
                    .with_engine(forced);
                fgcm.set_par_threshold(PAR_MIN_BYTES);
                // The decomposition subtracts the sequential time from
                // the serialized chunked time; measure the two
                // interleaved so the difference is the chunking
                // overhead, not the host's drift between regimes.
                let mut fbuf = pt.clone();
                let mut fout = Vec::with_capacity(sealed.len());
                let (forced_seal, seq_seal_p) = paired_secs_per_iter(
                    window,
                    || {
                        black_box(fgcm.seal_in_place(&nonce, b"", &mut fbuf));
                    },
                    || {
                        black_box(plain.seal_in_place(&nonce, b"", &mut buf));
                    },
                );
                let (forced_open, seq_open_p) = paired_secs_per_iter(
                    window,
                    || {
                        fgcm.open_into(&nonce, b"", &sealed, &mut fout)
                            .expect("authentic");
                        black_box(&fout);
                    },
                    || {
                        plain
                            .open_into(&nonce, b"", &sealed, &mut out)
                            .expect("authentic");
                        black_box(&out);
                    },
                );
                (
                    critical_path(seq_seal_p, forced_seal, workers),
                    critical_path(seq_open_p, forced_open, workers),
                )
            };
            let seal = mib_s(size, cp_seal);
            if workers == 1 {
                baseline_seal = seal;
            }
            rows.push(SweepRow {
                workers,
                size,
                seal_mib_s: seal,
                open_mib_s: mib_s(size, cp_open),
                wall_seal_mib_s: mib_s(size, wall_seal),
                seal_speedup: seal / baseline_seal,
                wall_speedup: paired_base_seal / wall_seal,
            });
        }
    }
    rows
}

/// The fused-batch measurement: `BATCH_COUNT` messages of
/// `BATCH_MSG_BYTES` each, fused seal versus per-message engine dispatch.
struct BatchResult {
    per_msg_mib_s: f64,
    fused_mib_s: f64,
    fused_speedup: f64,
}

const BATCH_COUNT: usize = 64;
const BATCH_MSG_BYTES: usize = 4 << 10;

fn run_batch(window: f64) -> BatchResult {
    let engine = Arc::new(CryptoEngine::new(4));
    let gcm = Arc::new(
        AesGcm::new(&[7u8; 32])
            .expect("32-byte key")
            .with_engine(Arc::clone(&engine)),
    );
    let nonces: Vec<[u8; 12]> = (0..BATCH_COUNT)
        .map(|i| {
            let mut n = [0u8; 12];
            n[..4].copy_from_slice(b"btch");
            n[4..].copy_from_slice(&(i as u64).to_be_bytes());
            n
        })
        .collect();
    let total = BATCH_COUNT * BATCH_MSG_BYTES;
    let mut bufs: Vec<Vec<u8>> = (0..BATCH_COUNT)
        .map(|_| vec![0xcdu8; BATCH_MSG_BYTES])
        .collect();
    let mut fused_bufs: Vec<Vec<u8>> = (0..BATCH_COUNT)
        .map(|_| vec![0xcdu8; BATCH_MSG_BYTES])
        .collect();
    // Baseline: the pre-batch pattern — one engine submission and join
    // per message, the dispatch overhead the KV-swap and NOP paths paid
    // per page before fusing. Fused: the whole run as ONE seal_batch
    // submission. The two are measured interleaved so the speedup ratio
    // survives shared-host noise (see `paired_secs_per_iter`).
    let (per_msg, fused) = paired_secs_per_iter(
        window,
        || {
            for (i, slot) in bufs.iter_mut().enumerate() {
                let mut buf = std::mem::take(slot);
                buf.truncate(BATCH_MSG_BYTES);
                let gcm = Arc::clone(&gcm);
                let nonce = nonces[i];
                *slot = engine
                    .submit(move || {
                        gcm.seal_vec(&nonce, b"kv", &mut buf);
                        buf
                    })
                    .wait();
            }
        },
        || {
            let mut batch: Vec<BatchSealMsg> = fused_bufs
                .iter_mut()
                .zip(&nonces)
                .map(|(buf, &nonce)| {
                    buf.truncate(BATCH_MSG_BYTES);
                    BatchSealMsg {
                        nonce,
                        aad: b"kv",
                        buf,
                    }
                })
                .collect();
            gcm.seal_batch(&mut batch);
            black_box(&fused_bufs);
        },
    );
    let per_msg_mib_s = mib_s(total, per_msg);
    let fused_mib_s = mib_s(total, fused);
    BatchResult {
        per_msg_mib_s,
        fused_mib_s,
        fused_speedup: fused_mib_s / per_msg_mib_s,
    }
}

fn main() {
    let pipellm_bench::BenchArgs { smoke, out_path } =
        pipellm_bench::bench_args("BENCH_crypto.json");
    let window = if smoke { 0.05 } else { 0.3 };
    let gcm = AesGcm::new(&[7u8; 32]).expect("32-byte key");
    let soft = AesGcm::new(&[7u8; 32])
        .expect("32-byte key")
        .software_only();
    let nonce = [9u8; 12];

    let mut results: Vec<Vec<Column>> = Vec::new();
    for &size in &SIZES {
        let pt = vec![0xabu8; size];
        let mut buf = pt.clone();
        let seal_hw = mib_s(
            size,
            secs_per_iter(window, || {
                black_box(gcm.seal_in_place(&nonce, b"", &mut buf));
            }),
        );
        let sealed = gcm.seal(&nonce, b"", &pt);
        let open_hw = mib_s(
            size,
            secs_per_iter(window, || {
                black_box(gcm.open(&nonce, b"", &sealed).expect("authentic"));
            }),
        );
        let seal_soft = mib_s(
            size,
            secs_per_iter(window, || {
                black_box(soft.seal(&nonce, b"", &pt));
            }),
        );
        let seal_baseline = mib_s(
            size,
            secs_per_iter(window, || {
                black_box(soft.seal_reference(&nonce, b"", &pt));
            }),
        );
        let speedup_hw = seal_hw / seal_baseline;
        results.push(vec![
            ("size_bytes", num(size)),
            ("seal_hw_mib_s", fixed(seal_hw, 1)),
            ("open_hw_mib_s", fixed(open_hw, 1)),
            ("seal_soft_mib_s", fixed(seal_soft, 1)),
            ("seal_baseline_mib_s", fixed(seal_baseline, 1)),
            ("seal_speedup_vs_baseline", fixed(speedup_hw, 2)),
        ]);
    }

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let sweep = run_sweep(window, cores);
    let batch = run_batch(window);

    let hw = pipellm_crypto::hw::aes_available() && pipellm_crypto::hw::clmul_available();
    let artifact = Artifact::new("bench", "crypto")
        .header("unit", text("MiB/s"))
        .header("hardware_accelerated", num(hw))
        .section("results", Clock::Wall, &results, Vec::clone)
        .section("thread_sweep", Clock::Wall, &sweep, |r| {
            vec![
                ("workers", num(r.workers)),
                ("size_bytes", num(r.size)),
                ("seal_mib_s", fixed(r.seal_mib_s, 1)),
                ("open_mib_s", fixed(r.open_mib_s, 1)),
                ("wall_seal_mib_s", fixed(r.wall_seal_mib_s, 1)),
                ("seal_speedup_vs_1t", fixed(r.seal_speedup, 2)),
                ("wall_speedup_vs_1t", fixed(r.wall_speedup, 2)),
            ]
        })
        .section("batch", Clock::Wall, std::slice::from_ref(&batch), |b| {
            vec![
                ("count", num(BATCH_COUNT)),
                ("msg_bytes", num(BATCH_MSG_BYTES)),
                ("fused_seal_mib_s", fixed(b.fused_mib_s, 1)),
                ("per_message_seal_mib_s", fixed(b.per_msg_mib_s, 1)),
                ("fused_speedup", fixed(b.fused_speedup, 2)),
            ]
        });
    print!("{}", artifact.tables());

    for row in &sweep {
        // The engine must never lose seal throughput to its own chunking
        // overhead at the sizes the serving engines actually move.
        if row.size >= (1 << 20) && row.workers > 1 {
            assert!(
                row.seal_speedup >= 0.98,
                "multi-thread seal must not fall below single-thread: \
                 {} workers at {} B gave {:.2}x",
                row.workers,
                row.size,
                row.seal_speedup,
            );
        }
        // Adaptive-gang regression guard: adding workers — including
        // workers this host cannot run in parallel — must never slow the
        // submitting thread's measured wall clock down materially. The
        // adaptive threshold and host-clamped gang width exist exactly to
        // make this hold on every host.
        if row.workers > 1 {
            assert!(
                row.wall_speedup >= 0.95,
                "multi-worker wall clock fell below 0.95x single-worker: \
                 {} workers at {} B gave {:.2}x",
                row.workers,
                row.size,
                row.wall_speedup,
            );
        }
    }

    // On a host that can gang, the fused batch both eliminates the
    // per-message pool round trip AND shards the fused total across the
    // gang — ≥ 3x required. A single-core host only gets the dispatch
    // elimination (the crypto itself bounds the win: ~2 µs of AES-GCM
    // per 4 KiB message against ~3 µs of round-trip overhead), so the
    // floor there is 1.5x.
    let batch_floor = if cores >= 2 { 3.0 } else { 1.5 };
    assert!(
        batch.fused_speedup >= batch_floor,
        "fused batch seal must be at least {batch_floor}x per-message dispatch \
         on a {cores}-core host: got {:.2}x",
        batch.fused_speedup,
    );

    artifact.write(&out_path);
    println!("wrote {out_path}");
}
