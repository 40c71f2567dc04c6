//! The three workloads and their set-up: dataset, server, backend.

use crate::trace::{BackendSample, TimingBackend};
use fedrlnas_codec::CodecConfig;
use fedrlnas_core::{FederatedModelSearch, SearchConfig};
use fedrlnas_data::{DatasetSpec, SyntheticDataset};
use fedrlnas_rpc::{install, EngineMode, RpcConfig, TransportKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Search rounds configured per workload: far more than a run can commit,
/// so the closed loop never runs out of rounds. Only the run length reads
/// it; no schedule depends on it.
const SEARCH_ROUNDS: usize = 1_000_000;

/// Per-attempt reply deadline on the wire workloads. Generous so load from
/// other processes cannot trip the retransmit path, which would make the
/// correctness gate report the machine's load as a program fault.
const DEADLINE: Duration = Duration::from_secs(60);

/// Which end of the system a workload loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process `SearchConfig::small()` search, checkpoint every round:
    /// client training dominates (tensor, nn, darts, local update kernels).
    SearchSmall,
    /// 1000 participants of a tiny supernet over the reactor engine and
    /// the in-memory transport with `auto` codecs: per-participant
    /// coordinator work dominates.
    CohortWire,
    /// 64 participants over the default engine with link shaping at 4x
    /// real time, fp32: round time is set by how well link sleeps overlap.
    ShapedLinks,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::SearchSmall,
        Workload::CohortWire,
        Workload::ShapedLinks,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchSmall => "search_small",
            Workload::CohortWire => "cohort_wire",
            Workload::ShapedLinks => "shaped_links",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Participants per round.
    pub fn cohort(self) -> usize {
        match self {
            Workload::SearchSmall => SearchConfig::small().num_participants,
            Workload::CohortWire => 1000,
            Workload::ShapedLinks => 64,
        }
    }

    /// Whether rounds run over the rpc backend (and so have a `backend`
    /// span).
    pub fn wire(self) -> bool {
        self != Workload::SearchSmall
    }

    /// Whether a checkpoint commits every round.
    pub fn checkpoints(self) -> bool {
        self == Workload::SearchSmall
    }

    /// Real-time stretch of the shaped links (0 = no link sleeps). 4x, not
    /// `bench_transport`'s 10x, so a 30 s run commits enough rounds for a
    /// steady median and a tail (see README.md).
    pub fn time_scale(self) -> f64 {
        match self {
            Workload::ShapedLinks => 4.0,
            _ => 0.0,
        }
    }

    /// Untimed rounds before measuring, so lazy set-up and buffer growth
    /// finish first.
    pub fn warmup_rounds(self) -> usize {
        match self {
            Workload::SearchSmall => 2,
            Workload::CohortWire => 2,
            Workload::ShapedLinks => 1,
        }
    }

    fn config(self) -> SearchConfig {
        let mut config = match self {
            Workload::SearchSmall => SearchConfig::small(),
            Workload::CohortWire => SearchConfig::tiny()
                .with_participants(self.cohort())
                .with_codec(CodecConfig::Auto),
            Workload::ShapedLinks => SearchConfig::tiny().with_participants(self.cohort()),
        };
        config.search_steps = SEARCH_ROUNDS;
        config
    }

    fn rpc(self) -> Option<RpcConfig> {
        let base = RpcConfig {
            transport: TransportKind::InMemory,
            deadline: DEADLINE,
            real_time_scale: self.time_scale(),
            ..RpcConfig::default()
        };
        match self {
            Workload::SearchSmall => None,
            Workload::CohortWire => Some(RpcConfig {
                engine: EngineMode::Reactor,
                ..base
            }),
            Workload::ShapedLinks => Some(base),
        }
    }
}

/// A set-up workload, ready for its first round.
pub struct Instance {
    /// The search under test.
    pub search: FederatedModelSearch,
    /// The search RNG (part of every checkpoint).
    pub rng: StdRng,
    /// Per-round samples from the timing backend (wire workloads).
    pub samples: Option<Receiver<BackendSample>>,
    /// Whether the timing backend records this round's span.
    pub traced: Arc<AtomicBool>,
}

/// Builds the dataset and the server and installs the backend, all from
/// `seed`. This is exactly what `setup_s` times.
pub fn set_up(workload: Workload, seed: u64, epoch: Instant) -> Instance {
    let config = workload.config();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut search = match workload {
        Workload::SearchSmall => FederatedModelSearch::new(config, &mut rng),
        Workload::CohortWire | Workload::ShapedLinks => {
            // at least one sample per participant, as in bench_scale
            let spec = DatasetSpec::cifar10_like()
                .with_image_hw(config.net.image_hw)
                .with_sizes(workload.cohort().div_ceil(10).max(100), 5);
            let dataset = SyntheticDataset::generate(&spec, &mut rng);
            FederatedModelSearch::with_dataset(config, dataset, &mut rng)
        }
    };
    let traced = Arc::new(AtomicBool::new(false));
    let samples = workload.rpc().map(|rpc| {
        let dataset = search.dataset().clone();
        install(search.server_mut(), &dataset, rpc);
        let inner = search
            .server_mut()
            .clear_backend()
            .expect("install sets a backend");
        let (tx, rx) = mpsc::channel();
        search.server_mut().set_backend(Box::new(TimingBackend::new(
            inner,
            epoch,
            Arc::clone(&traced),
            tx,
        )));
        rx
    });
    Instance {
        search,
        rng,
        samples,
        traced,
    }
}
