//! Benchmark of full federated search rounds through
//! `FederatedModelSearch::step_round`, end to end and layer by layer.
//!
//! ```text
//! perfbench --workload <search_small|cohort_wire|shaped_links> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process sets a workload up from its seed, then runs a closed loop:
//! one search commits rounds back to back for `--seconds` (and at least
//! [`MIN_ROUNDS`] rounds). `--trace 0` prints the end-to-end metrics;
//! `--trace 1` traces every round of a half-length loop at the program's
//! public seams, replays the same rounds untraced to price the tracing,
//! and prints the per-layer metrics. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is
//! non-zero when the correctness gate fails. See `README.md`.

mod probes;
mod procfs;
mod stats;
mod trace;
mod workload;

use fedrlnas_core::{Checkpoint, FederatedModelSearch, StdVfs, StepMetric};
use fedrlnas_darts::Genotype;
use fedrlnas_fed::CommStats;
use stats::{FailTally, Fnv, Interval, RoundCheck};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use trace::{BackendSample, Spans, TimingVfs};
use workload::{Instance, Workload};

const USAGE: &str = "usage: perfbench --workload <search_small|cohort_wire|shaped_links> \
                     --seed <n> --seconds <1-60> --trace <0|1>";

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Fewest measured rounds: the loop runs past `--seconds` until the tail
/// rule has its samples. The digest is taken after this many rounds, so
/// repeats of a seed digest the same prefix however fast the machine is.
const MIN_ROUNDS: usize = stats::TAIL_MIN_SAMPLES;

/// Hard stop for one measuring loop: a traced run's two loops together
/// stay well inside the 180 s a run may take. A run that has not reached
/// [`MIN_ROUNDS`] by then fails the gate.
const MAX_MEASURE: Duration = Duration::from_secs(75);

/// Checkpoints and span files, relative to the checkout root.
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(1.0..=60.0).contains(&seconds) {
                    return Err(format!("--seconds must be in 1..=60, got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One committed round as the loop saw it.
struct Round {
    /// Wall time of `step_round` plus its checkpoint.
    wall_ns: u64,
    /// The `round` span, when this round was traced.
    root: Option<usize>,
    panicked: bool,
    checkpoint_error: Option<String>,
    /// Bytes the traced checkpoint wrote.
    checkpoint_bytes: u64,
    sample: Option<BackendSample>,
    before: CommStats,
    after: CommStats,
}

/// Runs one committed round: `step_round`, plus the checkpoint that makes
/// it durable where the workload checkpoints. `trace` is the round index
/// to record spans under, `None` for an untraced round.
fn commit_round(
    inst: &mut Instance,
    checkpoint: Option<&Path>,
    spans: &mut Spans,
    trace: Option<u32>,
) -> Round {
    inst.traced.store(trace.is_some(), Ordering::Relaxed);
    let before = *inst.search.server().comm();
    let start = spans.now();
    let panicked = catch_unwind(AssertUnwindSafe(|| {
        inst.search.step_round(&mut inst.rng);
    }))
    .is_err();
    let mut checkpoint_error = None;
    let mut checkpoint_ops = None;
    let mut checkpoint_bytes = 0;
    if let (Some(path), false) = (checkpoint, panicked) {
        let c_start = spans.now();
        let cp = Checkpoint::capture(inst.search.server_mut(), &inst.rng);
        let saved = if trace.is_some() {
            let mut vfs = TimingVfs::new(spans.epoch());
            let saved = cp.save_path_vfs(&mut vfs, path);
            checkpoint_ops = Some((
                Interval {
                    start: c_start,
                    end: spans.now(),
                },
                vfs,
            ));
            saved
        } else {
            cp.save_path_vfs(&mut StdVfs, path)
        };
        checkpoint_error = saved.err().map(|e| e.to_string());
    }
    let end = spans.now();
    let sample = inst.samples.as_ref().and_then(|rx| rx.try_iter().last());
    let root = trace.map(|t| {
        let root = spans.push(t, None, "round", Interval { start, end });
        if let Some(at) = sample.as_ref().and_then(|s| s.span) {
            spans.push(t, Some(root), "backend", at);
        }
        if let Some((at, vfs)) = checkpoint_ops {
            let cp = spans.push(t, Some(root), "checkpoint", at);
            for (name, at) in vfs.ops {
                spans.push(t, Some(cp), name, at);
            }
            checkpoint_bytes = vfs.bytes_written;
        }
        root
    });
    Round {
        wall_ns: end - start,
        root,
        panicked,
        checkpoint_error,
        checkpoint_bytes,
        sample,
        before,
        after: *inst.search.server().comm(),
    }
}

/// The correctness gate for one round: full strength and fault-free.
fn check_round(workload: Workload, search: &FederatedModelSearch, round: &Round) -> RoundCheck {
    let server = search.server();
    let step = if round.panicked {
        None
    } else {
        server
            .search_curve()
            .steps()
            .last()
            .or(server.warmup_curve().steps().last())
            .filter(|s| s.step + 1 == server.rounds_completed())
    };
    let late = round.sample.as_ref().map_or(0, |s| s.late) as u64;
    let (b, a) = (&round.before, &round.after);
    let finite =
        step.is_some_and(|s| s.mean_loss.is_finite() && (0.0..=1.0).contains(&s.mean_accuracy));
    RoundCheck {
        expected: workload.cohort() as u64,
        committed_on_time: step
            .map_or(0, |s| s.contributors as u64)
            .saturating_sub(late),
        panicked: round.panicked,
        clean: finite
            && late == 0
            && round.checkpoint_error.is_none()
            && a.faults == b.faults
            && a.rejects == b.rejects
            && a.churn == b.churn
            && a.io == b.io,
    }
}

/// Every recorded curve step, warm-up then search.
fn curve(search: &FederatedModelSearch) -> impl Iterator<Item = &StepMetric> {
    let server = search.server();
    server
        .warmup_curve()
        .steps()
        .iter()
        .chain(server.search_curve().steps())
}

/// Digest of the genotype, the curve bits and the `CommStats` byte counts.
fn digest(search: &FederatedModelSearch) -> u64 {
    let server = search.server();
    let mut h = Fnv::default();
    h.bytes(server.derive_genotype().to_compact_string().as_bytes());
    for s in curve(search) {
        h.word(s.step as u64);
        h.word(u64::from(s.mean_accuracy.to_bits()));
        h.word(u64::from(s.mean_loss.to_bits()));
        h.word(s.contributors as u64);
    }
    h.word(server.comm().bytes_down);
    h.word(server.comm().bytes_up);
    h.0
}

/// End-of-run gate: a finite curve and a genotype that is well formed.
fn check_outcome(search: &FederatedModelSearch) -> Result<(), String> {
    for s in curve(search) {
        if !s.mean_loss.is_finite() || !(0.0..=1.0).contains(&s.mean_accuracy) {
            return Err(format!("curve step {} is not finite: {s:?}", s.step));
        }
    }
    let server = search.server();
    let genotype = server.derive_genotype();
    let text = genotype.to_compact_string();
    let reparsed = Genotype::parse_compact(&text)
        .map_err(|e| format!("genotype {text:?} does not parse back: {e}"))?;
    if reparsed != genotype || genotype.nodes() != server.config().net.nodes {
        return Err(format!("genotype {text:?} does not fit the supernet"));
    }
    Ok(())
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    stats::median(&values.collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Per-layer metrics from the traced rounds, the run's counters and the
/// probes. Also runs the span-coverage check on the wire workloads.
fn layer_metrics(
    workload: Workload,
    run: &Measured,
    spans: &Spans,
    probes: &probes::ProbeMetrics,
    gate: &mut Vec<String>,
) -> Vec<Metric> {
    let cohort = workload.cohort() as f64;
    let traced: Vec<(&Round, usize)> = run
        .rounds
        .iter()
        .filter_map(|r| r.root.map(|id| (r, id)))
        .collect();
    let child = |id: usize, name: &str| spans.children(id).find(|s| s.name == name).copied();
    let self_ns: Vec<f64> = traced
        .iter()
        .map(|&(_, id)| spans.self_time(id) as f64)
        .collect();
    let backend_ns: Vec<f64> = traced
        .iter()
        .map(|&(_, id)| child(id, "backend").map_or(0.0, |s| s.at.len() as f64))
        .collect();
    // span coverage: on the wire workloads a round's self time plus its
    // backend span must be exactly its wall time
    if workload.wire() {
        for (i, &(r, _)) in traced.iter().enumerate() {
            if backend_ns[i] == 0.0 || self_ns[i] + backend_ns[i] != r.wall_ns as f64 {
                gate.push(format!(
                    "span coverage: round self {} ns + backend {} ns != wall {} ns",
                    self_ns[i], backend_ns[i], r.wall_ns
                ));
            }
        }
    }
    let checkpoints: Vec<(trace::Span, u64)> = traced
        .iter()
        .filter_map(|&(r, id)| Some((child(id, "checkpoint")?, r.checkpoint_bytes)))
        .collect();
    let vfs_sum = |names: &[&str]| {
        median_of(checkpoints.iter().map(|(c, _)| {
            spans
                .children(c.id)
                .filter(|s| names.contains(&s.name))
                .map(|s| ms(s.at.len()))
                .sum::<f64>()
        }))
    };
    let phase = |f: fn(&CommStats) -> u64| {
        median_of(
            traced
                .iter()
                .map(|&(r, _)| ms(f(&r.after).saturating_sub(f(&r.before)))),
        )
    };
    let links: Vec<(f64, f64)> = traced
        .iter()
        .zip(&backend_ns)
        .filter_map(|(&(r, _), &b)| {
            let s = r.sample.as_ref()?;
            let delays =
                stats::link_delays(&s.frame_bytes, &s.bandwidths_mbps, workload.time_scale());
            let secs = b / 1e9;
            Some((
                stats::overlap_x(&delays, secs),
                stats::link_floor_share(&delays, secs),
            ))
        })
        .collect();
    let (c0, c1) = (&run.comm_start, &run.comm_end);
    let raw = c1.compression.raw_bytes - c0.compression.raw_bytes;
    let encoded = c1.compression.encoded_bytes - c0.compression.encoded_bytes;
    let frames = |i: usize| (c1.compression.frames[i] - c0.compression.frames[i]) as f64;
    let rejects = (c1.rejects.total_rejected() + c1.rejects.suspected_byzantine)
        - (c0.rejects.total_rejected() + c0.rejects.suspected_byzantine);
    let late: usize = run
        .rounds
        .iter()
        .filter_map(|r| r.sample.as_ref())
        .map(|s| s.late)
        .sum();
    vec![
        metric(
            "core.round_self_ms",
            "ms",
            median_of(self_ns.iter().map(|&n| n / 1e6)),
        ),
        metric(
            "core.coord_us_per_participant",
            "us",
            median_of(self_ns.iter().map(|&n| n / 1e3 / cohort)),
        ),
        metric(
            "core.checkpoint_ms",
            "ms",
            median_of(checkpoints.iter().map(|(c, _)| ms(c.at.len()))),
        ),
        metric(
            "core.checkpoint_mb",
            "MB",
            median_of(checkpoints.iter().map(|&(_, bytes)| bytes as f64 / 1e6)),
        ),
        metric("core.vfs_write_ms", "ms", vfs_sum(&["vfs.write"])),
        metric(
            "core.vfs_fsync_ms",
            "ms",
            vfs_sum(&["vfs.fsync", "vfs.fsync_dir"]),
        ),
        metric(
            "core.vfs_ops",
            "count",
            median_of(
                checkpoints
                    .iter()
                    .map(|(c, _)| spans.children(c.id).count() as f64),
            ),
        ),
        metric(
            "rpc.backend_ms",
            "ms",
            median_of(backend_ns.iter().map(|&n| n / 1e6)),
        ),
        metric("rpc.ship_ms", "ms", phase(|c| c.timing.ship_ns)),
        metric("rpc.collect_ms", "ms", phase(|c| c.timing.collect_ns)),
        metric(
            "rpc.mb_down_per_round",
            "MB",
            run.per_round((c1.bytes_down - c0.bytes_down) as f64) / 1e6,
        ),
        metric(
            "rpc.mb_up_per_round",
            "MB",
            run.per_round((c1.bytes_up - c0.bytes_up) as f64) / 1e6,
        ),
        metric(
            "rpc.retransmits",
            "count",
            (c1.faults.retransmits - c0.faults.retransmits) as f64,
        ),
        metric("rpc.late_reports", "count", late as f64),
        metric("rpc.overlap_x", "x", median_of(links.iter().map(|l| l.0))),
        metric(
            "rpc.link_floor_share",
            "ratio",
            median_of(links.iter().map(|l| l.1)),
        ),
        metric("codec.decode_ms", "ms", phase(|c| c.timing.decode_ns)),
        metric(
            "codec.ratio",
            "x",
            if encoded > 0 {
                raw as f64 / encoded as f64
            } else {
                1.0
            },
        ),
        metric("codec.frames_fp16", "count", frames(1)),
        metric("codec.frames_int8", "count", frames(2)),
        metric("codec.frames_topk", "count", frames(3)),
        metric("codec.encode_mb_s", "MB/s", probes.encode_mb_s),
        metric("codec.decode_mb_s", "MB/s", probes.decode_mb_s),
        metric("fed.validate_ms", "ms", phase(|c| c.timing.validate_ns)),
        metric("fed.aggregate_ms", "ms", phase(|c| c.timing.aggregate_ns)),
        metric("fed.rejects", "count", rejects as f64),
        metric("fed.local_update_ms", "ms", probes.local_update_ms),
        metric(
            "fed.local_update_gflops",
            "GFLOP/s",
            probes.local_update_gflops,
        ),
        metric(
            "fed.aggregate_us_per_update",
            "us",
            probes.aggregate_us_per_update,
        ),
        metric(
            "fed.kernel_efficiency",
            "ratio",
            if probes.gemm_gflops > 0.0 {
                probes.local_update_gflops / probes.gemm_gflops
            } else {
                0.0
            },
        ),
        metric("tensor.gemm_gflops", "GFLOP/s", probes.gemm_gflops),
        metric("darts.extract_us", "us", probes.extract_us),
        metric("controller.sample_us", "us", probes.controller_sample_us),
        metric("controller.update_us", "us", probes.controller_update_us),
        metric("proc.cpu_util", "cores", run.cpu_secs / run.secs),
        metric(
            "proc.rss_growth_mib_per_round",
            "MiB",
            run.per_round(run.rss_growth_mib),
        ),
    ]
}

/// One measured closed loop.
struct Measured {
    rounds: Vec<Round>,
    tally: FailTally,
    /// Digest after [`MIN_ROUNDS`] rounds, if the loop got that far.
    digest: Option<u64>,
    secs: f64,
    cpu_secs: f64,
    rss_growth_mib: f64,
    peak_rss_mib: f64,
    comm_start: CommStats,
    comm_end: CommStats,
}

impl Measured {
    /// Divides a run total by the committed rounds.
    fn per_round(&self, total: f64) -> f64 {
        total / self.rounds.len().max(1) as f64
    }

    fn wall_ms(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| ms(r.wall_ns)).collect()
    }
}

/// How long a measured loop runs.
#[derive(Clone, Copy)]
enum Until {
    /// At least this many seconds and at least [`MIN_ROUNDS`] rounds.
    Seconds(f64),
    /// Exactly this many rounds.
    Rounds(usize),
}

/// Runs the workload's untimed warm-up rounds, then the measured loop.
/// Failed rounds are counted and noted in `notes`; a panicked round ends
/// the loop.
fn measure(
    workload: Workload,
    inst: &mut Instance,
    checkpoint: Option<&Path>,
    spans: &mut Spans,
    traced: bool,
    until: Until,
    notes: &mut Vec<String>,
) -> Result<Measured, String> {
    for _ in 0..workload.warmup_rounds() {
        let r = commit_round(inst, checkpoint, spans, None);
        let check = check_round(workload, &inst.search, &r);
        if stats::round_failures(&check) > 0 {
            notes.push(format!("warm-up round failed the gate: {check:?}"));
        }
    }
    let mut tally = FailTally::default();
    let mut rounds: Vec<Round> = Vec::new();
    let mut digest_at = None;
    let comm_start = *inst.search.server().comm();
    let rss_start = procfs::status_mib("VmRSS")?;
    let cpu_start = procfs::cpu_secs()?;
    let start = Instant::now();
    loop {
        let more = match until {
            Until::Seconds(secs) => {
                start.elapsed().as_secs_f64() < secs || rounds.len() < MIN_ROUNDS
            }
            Until::Rounds(n) => rounds.len() < n,
        };
        if !more || start.elapsed() >= MAX_MEASURE {
            break;
        }
        let index = rounds.len();
        let r = commit_round(inst, checkpoint, spans, traced.then_some(index as u32));
        let check = check_round(workload, &inst.search, &r);
        tally.add_round(&check);
        if stats::round_failures(&check) > 0 {
            notes.push(format!(
                "round {index} failed the gate: {check:?}{}",
                r.checkpoint_error
                    .as_ref()
                    .map_or(String::new(), |e| format!(", checkpoint: {e}"))
            ));
        }
        let panicked = r.panicked;
        rounds.push(r);
        if rounds.len() == MIN_ROUNDS {
            digest_at = Some(digest(&inst.search));
        }
        if panicked {
            break;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    Ok(Measured {
        rounds,
        tally,
        digest: digest_at,
        secs,
        cpu_secs: procfs::cpu_secs()? - cpu_start,
        rss_growth_mib: procfs::status_mib("VmRSS")? - rss_start,
        peak_rss_mib: procfs::status_mib("VmHWM")?,
        comm_start,
        comm_end: *inst.search.server().comm(),
    })
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let workload = args.workload;
    let epoch = Instant::now();
    let mut spans = Spans::new(epoch);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let run_id = format!("{}-s{}-p{}", workload.name(), args.seed, std::process::id());
    let checkpoint: Option<PathBuf> = workload
        .checkpoints()
        .then(|| Path::new(OUT_DIR).join(format!("{run_id}.ckpt")));
    let checkpoint = checkpoint.as_deref();

    // --- set-up, several times; the last instance runs ---
    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    let mut inst = None;
    for _ in 0..SETUP_REPS {
        drop(inst.take()); // joins the previous fleet outside the timer
        let t = Instant::now();
        inst = Some(workload::set_up(workload, args.seed, epoch));
        setup_secs.push(t.elapsed().as_secs_f64());
    }
    let mut inst = inst.expect("SETUP_REPS > 0");

    // failures that void the whole run, and notes on failed rounds
    let mut gate: Vec<String> = Vec::new();
    let mut notes: Vec<String> = Vec::new();
    let mut lines: Vec<String> = Vec::new();
    let until = Until::Seconds(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let run = measure(
        workload, &mut inst, checkpoint, &mut spans, args.trace, until, &mut notes,
    )?;
    if run.rounds.len() < MIN_ROUNDS {
        gate.push(format!(
            "only {} rounds measured, {MIN_ROUNDS} needed",
            run.rounds.len()
        ));
    }
    if let Err(e) = check_outcome(&inst.search) {
        gate.push(e);
    }
    let backend = inst.search.server().backend_description();
    lines.push(format!(
        "perfbench {} seed={} trace={}: {} rounds measured in {:.2} s \
         after {} warm-up, cohort {}, backend {}",
        workload.name(),
        args.seed,
        u8::from(args.trace),
        run.rounds.len(),
        run.secs,
        workload.warmup_rounds(),
        workload.cohort(),
        backend.as_deref().unwrap_or("in-process"),
    ));
    lines.push(match run.digest {
        Some(d) => format!("digest after {MIN_ROUNDS} measured rounds: {d:016x}"),
        None => "digest: not reached".to_string(),
    });

    let metrics = if args.trace {
        let frames = inst.search.server().comm().compression.frames;
        let probe = probes::run(&mut inst.search, &frames, args.seed, &mut spans);
        drop(inst); // joins the traced fleet before the replay
                    // the same seed again, untraced, for exactly as many rounds: same
                    // inputs, same work, so the medians differ only by tracing
        let mut replay = workload::set_up(workload, args.seed, epoch);
        let plain = measure(
            workload,
            &mut replay,
            checkpoint,
            &mut spans,
            false,
            Until::Rounds(run.rounds.len()),
            &mut notes,
        )?;
        drop(replay);
        if plain.digest != run.digest {
            gate.push(format!(
                "tracing changed the run: untraced replay digest {:016x?}",
                plain.digest
            ));
        }
        let (t, u) = (
            stats::median(&run.wall_ms()).unwrap_or(0.0),
            stats::median(&plain.wall_ms()).unwrap_or(0.0),
        );
        lines.push(format!(
            "tracing overhead: {:+.3} ms per round (traced median {t:.3} ms, \
             untraced replay of the same {} rounds {u:.3} ms)",
            t - u,
            plain.rounds.len()
        ));
        let gate_before = gate.len();
        let m = layer_metrics(workload, &run, &spans, &probe, &mut gate);
        if workload.wire() && gate.len() == gate_before {
            lines.push(format!(
                "span coverage ok: core.round_self_ms + rpc.backend_ms = \
                 round wall on all {} traced rounds",
                run.rounds.len()
            ));
        }
        lines.push(
            "note: rpc.ship_ms and rpc.collect_ms come from RoundTimings, \
             whose meaning differs per engine"
                .to_string(),
        );
        let path = Path::new(OUT_DIR).join(format!("{run_id}.spans.jsonl"));
        spans
            .write_jsonl(&path, &run_id)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        lines.push(format!("spans: {}", path.display()));
        m
    } else {
        drop(inst); // joins the worker fleet
        let wall_ms = run.wall_ms();
        let mut m = vec![
            metric(
                "setup_s",
                "s",
                stats::median(&setup_secs).expect("SETUP_REPS > 0"),
            ),
            metric("rounds_per_s", "1/s", run.rounds.len() as f64 / run.secs),
            metric("round_ms_p50", "ms", stats::median(&wall_ms).unwrap_or(0.0)),
        ];
        if let Some(tail) = stats::tail(&wall_ms) {
            lines.push(format!(
                "round_ms_tail is p{:.1} of {} rounds",
                tail.percentile, tail.samples
            ));
            m.push(metric("round_ms_tail", "ms", tail.value));
        }
        let (c0, c1) = (&run.comm_start, &run.comm_end);
        let wire_bytes = (c1.bytes_down - c0.bytes_down) + (c1.bytes_up - c0.bytes_up);
        m.extend([
            metric("cpu_ms_per_round", "ms", run.per_round(run.cpu_secs * 1e3)),
            metric("peak_rss_mib", "MiB", run.peak_rss_mib),
            metric(
                "wire_mb_per_round",
                "MB",
                run.per_round(wire_bytes as f64) / 1e6,
            ),
        ]);
        m
    };
    if let Some(path) = checkpoint {
        let _ = std::fs::remove_file(path);
    }

    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        gate.push(format!("{} is not finite", m.name));
    }
    let mut tally = run.tally;
    if !gate.is_empty() {
        tally.fail_run();
    }
    let correct = gate.is_empty() && notes.is_empty();
    lines.push(format!(
        "fail_frac {} ({} of {} participant updates)",
        tally.frac(),
        tally.failed,
        tally.attempted
    ));
    for g in notes.iter().take(5).chain(&gate) {
        lines.push(format!("GATE FAILED: {g}"));
    }
    if notes.len() > 5 {
        lines.push(format!("GATE FAILED: {} more rounds", notes.len() - 5));
    }
    let mut all = metrics;
    if !args.trace {
        // fail_frac as its complement, so the metric is never zero
        all.push(metric("commit_frac", "ratio", 1.0 - tally.frac()));
    }
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted.max(1),
        if correct { 0 } else { tally.failed.max(1) }
    );
    for (i, m) in all.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        write!(
            json,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        )
        .expect("writing to a String cannot fail");
    }
    json.push_str("}}");
    for line in &lines {
        println!("{line}");
    }
    println!("{json}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
