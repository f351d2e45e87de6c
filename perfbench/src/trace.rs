//! Writes one traced rep's spans as JSON lines.
//!
//! Every line is one span: `id`, `parent`, `name`, `start_us`, `end_us`,
//! plus the stage, generation, link and frame size where they apply, and
//! `iteration`/`micro_batch` where the span belongs to one micro-batch.
//! The root `run` span has the phases `setup`, `serve` and `drain` as
//! children; each micro-batch has an `mb` span under `serve`, parent of
//! every data-frame span carrying its key; every other span hangs off the
//! phase it ended in.

use crate::deploy::Rep;
use crate::wire::{Class, Link, Op};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

const RUN: usize = 0;
const SETUP: usize = 1;
const SERVE: usize = 2;
const DRAIN: usize = 3;

fn span(out: &mut String, id: usize, parent: Option<usize>, name: &str, start: u64, end: u64) {
    let parent = parent.map_or("null".to_string(), |p| p.to_string());
    let _ = write!(
        out,
        "{{\"id\":{id},\"parent\":{parent},\"name\":\"{name}\",\"start_us\":{:.3},\"end_us\":{:.3}",
        start as f64 / 1e3,
        end as f64 / 1e3
    );
}

fn name(op: Op, class: Class) -> String {
    let op = match op {
        Op::Send => "send",
        Op::Recv => "recv",
        Op::Reattach => return "reattach".to_string(),
        Op::Kill => return "kill".to_string(),
        Op::Respawn => return "respawn".to_string(),
    };
    let class = match class {
        Class::Data => "data",
        Class::Ack => "ack",
        Class::Heartbeat => "heartbeat",
        Class::CheckpointReq => "checkpoint_req",
        Class::CheckpointBlob => "checkpoint",
        Class::Welcome => "welcome",
        Class::Other => "other",
    };
    format!("{op}.{class}")
}

/// Writes `rep`'s spans to `path`; returns the number of lines written.
pub fn write(rep: &Rep, path: &Path) -> std::io::Result<usize> {
    let Some(detail) = &rep.traced_detail else {
        return Ok(0);
    };
    let ns = |s: f64| (s * 1e9) as u64;
    let first_in = ns(rep.setup_s);
    let last_out = first_in + ns(rep.serve_s);
    let returned = ns(rep.wall_s);
    let mut out = String::new();
    let phases = [
        (RUN, None, "run", 0, returned),
        (SETUP, Some(RUN), "setup", 0, first_in),
        (SERVE, Some(RUN), "serve", first_in, last_out),
        (DRAIN, Some(RUN), "drain", last_out, returned),
    ];
    for (id, parent, label, start, end) in phases {
        span(&mut out, id, parent, label, start, end);
        out.push_str("}\n");
    }
    let mut mb_ids = BTreeMap::new();
    let mut next = DRAIN + 1;
    for &((iteration, micro_batch), start, end) in &rep.mb_spans {
        mb_ids.insert((iteration, micro_batch), next);
        span(&mut out, next, Some(SERVE), "mb", start, end);
        let _ = writeln!(
            out,
            ",\"iteration\":{iteration},\"micro_batch\":{micro_batch}}}"
        );
        next += 1;
    }
    for e in &detail.events {
        let key = e.env.map(|v| (v.iteration, v.micro_batch));
        let phase = if e.end < first_in {
            SETUP
        } else if e.end <= last_out {
            SERVE
        } else {
            DRAIN
        };
        let parent = key.and_then(|k| mb_ids.get(&k).copied()).unwrap_or(phase);
        span(
            &mut out,
            next,
            Some(parent),
            &name(e.op, e.class),
            e.start,
            e.end,
        );
        let link = match e.link {
            Link::Control => "control",
            Link::Data => "data",
        };
        let _ = write!(
            out,
            ",\"stage\":{},\"generation\":{},\"link\":\"{link}\",\"bytes\":{}",
            e.stage, e.generation, e.bytes
        );
        if let Some((iteration, micro_batch)) = key {
            let _ = write!(
                out,
                ",\"iteration\":{iteration},\"micro_batch\":{micro_batch}"
            );
        }
        out.push_str("}\n");
        next += 1;
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)?;
    Ok(next)
}
