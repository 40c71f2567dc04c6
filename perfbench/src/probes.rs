//! Layer probes for the layers that have no seam in a round: direct timed
//! calls to each crate's public functions, run once after the timed rounds
//! on the workload's final state. Every call is a `probe.*` span.

use crate::trace::{Spans, PROBE_TRACE};
use fedrlnas_codec::{CodecConfig, CodecSpec, EncodeScratch, DEFAULT_TOPK_FRAC};
use fedrlnas_core::FederatedModelSearch;
use fedrlnas_darts::ArchMask;
use fedrlnas_fed::{ShardedAccumulator, SparseUpdate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Masks drawn from the final policy for the per-mask probes.
const MASKS: usize = 6;

/// Repetitions of each probe (medians are taken over them).
const REPS: usize = 3;

/// Calls per `probe.controller_sample` span (one sample is sub-µs).
const SAMPLES_PER_SPAN: usize = 200;

/// GEMM reference shape `(m, n, k)`: a 32-channel 3x3 convolution on a
/// 16x16 map as the conv lowering produces it, one of `BENCH_kernels`'
/// rows.
const GEMM_SHAPE: (usize, usize, usize) = (32, 256, 288);

/// Salt separating the probe RNG stream from the workload's.
const PROBE_SALT: u64 = 0x5052_4f42_4553_0001;

/// The probe metrics. Throughputs count one multiply–accumulate as one
/// FLOP, the unit `Supernet::flops_masked` and the device model use.
#[derive(Debug, Clone, Default)]
pub struct ProbeMetrics {
    /// Median wall time of one `Participant::local_update`, ms.
    pub local_update_ms: f64,
    /// `flops_masked × batch × 3` over the time the calls took, GFLOP/s.
    pub local_update_gflops: f64,
    /// GEMM throughput at [`GEMM_SHAPE`], GFLOP/s.
    pub gemm_gflops: f64,
    /// Median `Supernet::extract_submodel`, µs.
    pub extract_us: f64,
    /// Codec encode throughput over the run's codec mix, raw MB/s.
    pub encode_mb_s: f64,
    /// Codec decode throughput over the run's codec mix, raw MB/s.
    pub decode_mb_s: f64,
    /// `ShardedAccumulator` push + finish per update, µs.
    pub aggregate_us_per_update: f64,
    /// One controller sample, µs.
    pub controller_sample_us: f64,
    /// One controller update over a cohort of observations, µs.
    pub controller_update_us: f64,
}

/// Durations of every probe span called `name`, in ns.
fn durations(spans: &Spans, name: &str) -> Vec<f64> {
    spans
        .all()
        .iter()
        .filter(|s| s.trace == PROBE_TRACE && s.name == name)
        .map(|s| s.at.len() as f64)
        .collect()
}

fn median_ns(spans: &Spans, name: &str) -> f64 {
    crate::stats::median(&durations(spans, name)).unwrap_or(0.0)
}

/// The spec a codec frame index stands for under `config`.
fn spec_of(config: CodecConfig, index: usize) -> CodecSpec {
    match (config, index) {
        (CodecConfig::Fixed(spec), _) => spec,
        (CodecConfig::Auto, 1) => CodecSpec::Fp16,
        (CodecConfig::Auto, 2) => CodecSpec::Int8,
        (CodecConfig::Auto, 3) => CodecSpec::TopK {
            k_frac: DEFAULT_TOPK_FRAC,
        },
        (CodecConfig::Auto, _) => CodecSpec::Fp32,
    }
}

fn random_values(len: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// Runs every probe on `search`'s current state. `codec_frames[i]` is how
/// many uploads used codec index `i` during the run (all zero for fp32
/// runs, which record no compression).
pub fn run(
    search: &mut FederatedModelSearch,
    codec_frames: &[u64],
    seed: u64,
    spans: &mut Spans,
) -> ProbeMetrics {
    let mut rng = StdRng::seed_from_u64(seed ^ PROBE_SALT);
    let config = search.server().config().clone();
    let cohort = config.num_participants;
    let masks: Vec<ArchMask> = (0..MASKS)
        .map(|_| search.server().controller().sample(&mut rng))
        .collect();
    let mut out = ProbeMetrics::default();

    // --- darts: sub-model extraction ---
    let supernet = search.server_mut().supernet_mut();
    let mut subs = Vec::with_capacity(MASKS);
    for _ in 0..REPS {
        subs.clear();
        for mask in &masks {
            let sub = spans.time(PROBE_TRACE, None, "probe.extract", || {
                supernet.extract_submodel(mask)
            });
            subs.push(sub);
        }
    }
    out.extract_us = median_ns(spans, "probe.extract") / 1e3;
    let flops: Vec<u64> = masks.iter().map(|m| supernet.flops_masked(m)).collect();
    let ranges: Vec<Vec<(usize, usize)>> = masks
        .iter()
        .map(|m| supernet.submodel_param_ranges(m))
        .collect();
    let theta_len = supernet.param_count();

    // --- fed: one local update per mask at the workload's batch ---
    let mut participant = search.server().participants()[0].clone();
    let dataset = search.dataset();
    let mut work = 0.0f64;
    for _ in 0..REPS {
        for (sub, &f) in subs.iter_mut().zip(&flops) {
            spans.time(PROBE_TRACE, None, "probe.local_update", || {
                black_box(participant.local_update(sub, dataset, &mut rng))
            });
            work += f as f64 * config.batch_size as f64 * 3.0;
        }
    }
    let busy_ns: f64 = durations(spans, "probe.local_update").iter().sum();
    out.local_update_ms = median_ns(spans, "probe.local_update") / 1e6;
    out.local_update_gflops = if busy_ns > 0.0 { work / busy_ns } else { 0.0 };

    // --- tensor: the GEMM reference ---
    let (m, n, k) = GEMM_SHAPE;
    let a = random_values(m * k, &mut rng);
    let b = random_values(k * n, &mut rng);
    let mut c = vec![0.0f32; m * n];
    fedrlnas_tensor::gemm(m, n, k, &a, &b, &mut c); // resolve dispatch, page in
    for _ in 0..REPS * 10 {
        spans.time(PROBE_TRACE, None, "probe.gemm", || {
            fedrlnas_tensor::gemm(m, n, k, black_box(&a), black_box(&b), &mut c);
        });
    }
    black_box(&c);
    let gemm_ns = median_ns(spans, "probe.gemm");
    out.gemm_gflops = if gemm_ns > 0.0 {
        (m * n * k) as f64 / gemm_ns
    } else {
        0.0
    };

    // --- codec: encode and decode at the workload's gradient length,
    // weighted by the run's codec mix ---
    let lens: Vec<f64> = ranges
        .iter()
        .map(|r| r.iter().map(|&(_, l)| l).sum::<usize>() as f64)
        .collect();
    let grad_len = crate::stats::median(&lens).unwrap_or(0.0) as usize;
    let values = random_values(grad_len, &mut rng);
    let raw_bytes = (grad_len * 4) as f64;
    let fp32_only = [1];
    let mix = if codec_frames.iter().all(|&f| f == 0) {
        &fp32_only[..]
    } else {
        codec_frames
    };
    let (mut bytes, mut enc_ns, mut dec_ns) = (0.0, 0.0, 0.0);
    let mut scratch = EncodeScratch::default();
    let mut encoded = Vec::new();
    let mut decoded = Vec::new();
    for (index, &frames) in mix.iter().enumerate() {
        if frames == 0 {
            continue;
        }
        let spec = spec_of(config.codec, index);
        let mut e = Vec::with_capacity(REPS * 10);
        let mut d = Vec::with_capacity(REPS * 10);
        for _ in 0..REPS * 10 {
            let start = spans.now();
            spec.encode_into(black_box(&values), &mut scratch, &mut encoded);
            let mid = spans.now();
            spec.decode_into(black_box(&encoded), grad_len, &mut decoded)
                .expect("a codec decodes its own encoding");
            let end = spans.now();
            spans.push(
                PROBE_TRACE,
                None,
                "probe.codec_encode",
                crate::stats::Interval { start, end: mid },
            );
            spans.push(
                PROBE_TRACE,
                None,
                "probe.codec_decode",
                crate::stats::Interval { start: mid, end },
            );
            e.push(mid.saturating_sub(start) as f64);
            d.push(end.saturating_sub(mid) as f64);
        }
        let w = frames as f64;
        bytes += w * raw_bytes;
        enc_ns += w * crate::stats::median(&e).unwrap_or(0.0);
        dec_ns += w * crate::stats::median(&d).unwrap_or(0.0);
    }
    // bytes per ns is GB/s; ×1e3 gives MB/s
    out.encode_mb_s = if enc_ns > 0.0 {
        bytes / enc_ns * 1e3
    } else {
        0.0
    };
    out.decode_mb_s = if dec_ns > 0.0 {
        bytes / dec_ns * 1e3
    } else {
        0.0
    };

    // --- fed: streaming aggregation of a full cohort ---
    for _ in 0..REPS {
        let updates: Vec<SparseUpdate> = (0..cohort)
            .map(|i| {
                let r = ranges[i % ranges.len()].clone();
                let len = r.iter().map(|&(_, l)| l).sum();
                SparseUpdate {
                    ranges: r,
                    values: random_values(len, &mut rng),
                }
            })
            .collect();
        let sum = spans.time(PROBE_TRACE, None, "probe.aggregate", || {
            let mut acc = ShardedAccumulator::new(&config.aggregator, config.topology, theta_len);
            for u in updates {
                acc.push(u);
            }
            acc.finish()
        });
        black_box(sum);
    }
    out.aggregate_us_per_update = median_ns(spans, "probe.aggregate") / 1e3 / cohort as f64;

    // --- controller: sampling and one REINFORCE update over a cohort ---
    let mut controller = search.server().controller().clone();
    for _ in 0..REPS {
        spans.time(PROBE_TRACE, None, "probe.controller_sample", || {
            for _ in 0..SAMPLES_PER_SPAN {
                black_box(controller.sample(&mut rng));
            }
        });
    }
    out.controller_sample_us =
        median_ns(spans, "probe.controller_sample") / 1e3 / SAMPLES_PER_SPAN as f64;
    let observations: Vec<(ArchMask, f32)> = (0..cohort)
        .map(|_| (controller.sample(&mut rng), rng.gen_range(0.0f32..1.0)))
        .collect();
    for _ in 0..REPS {
        spans.time(PROBE_TRACE, None, "probe.controller_update", || {
            controller.update(black_box(&observations));
        });
    }
    out.controller_update_us = median_ns(spans, "probe.controller_update") / 1e3;
    out
}
