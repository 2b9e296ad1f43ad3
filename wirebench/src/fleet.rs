//! The workloads, the tenant fleet each one serves, and the
//! in-process server (a `ModelRegistry` behind an `HttpServer`).

use crate::trace::{TracedEncoder, Tracer};
use crate::Result;
use std::net::SocketAddr;
use std::sync::Arc;
use uhd_core::encoder::uhd::{UhdConfig, UhdEncoder};
use uhd_core::model::LabelledSamples;
use uhd_core::{Encoder, HdcModel, ItemMemory, TabularConfig, TabularEncoder};
use uhd_datasets::synth::{generate, SyntheticKind};
use uhd_datasets::{generate_sensor_rows, SensorSpec};
use uhd_serve::{HttpServer, HttpServerConfig, ModelRegistry, ServeConfig};

/// Worker shards and micro-batch cap of the registry (sized for a
/// 2-vCPU host).
pub const SHARDS: usize = 2;
/// Maximum requests one shard claims per queue pop.
pub const MAX_BATCH: usize = 16;
/// Applied learns per published model generation.
pub const SNAPSHOT_EVERY: usize = 64;

/// MNIST geometry: H = 784 pixels, ξ = 16 levels (the `UhdConfig`
/// default), D = 2048.
const MNIST_DIM: u32 = 2048;
const MNIST_PIXELS: usize = 28 * 28;
const MNIST_CLASSES: usize = 10;
const MNIST_TRAIN: usize = 2000;
const MNIST_LEARN: usize = 1000;
const MNIST_TEST: usize = 1000;

/// Tabular geometry: 16 columns, 6 classes, D = 1024.
const TABULAR_DIM: u32 = 1024;
const TABULAR_COLUMNS: usize = 16;
const TABULAR_CLASSES: usize = 6;
const TABULAR_TRAIN: usize = 600;
const TABULAR_LEARN: usize = 300;
const TABULAR_TEST: usize = 300;

/// Which tenants a workload registers.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// One synthetic-MNIST uHD tenant on a resident item memory.
    Mnist,
    /// `tenants` tabular tenants, requests round-robin across them.
    Tabular {
        /// Number of tenants.
        tenants: usize,
    },
}

/// One benchmark workload. The data seed is the `--seed` argument.
#[derive(Debug)]
pub struct Spec {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Tenants served.
    pub kind: Kind,
    /// Open-loop arrival rate over both connections, requests/s.
    pub rate_rps: f64,
    /// Open-loop latency limit counted by `slo_ratio`, microseconds.
    pub slo_us: u64,
}

/// Every workload, with its open-loop rate and latency limit. The rates
/// are about a quarter of the closed-loop throughput on a 2-vCPU host: at
/// half, the open-loop tail swung by more than 100 % between runs.
pub const WORKLOADS: [Spec; 2] = [
    Spec {
        name: "mnist-classify",
        kind: Kind::Mnist,
        rate_rps: 1600.0,
        slo_us: 2_000,
    },
    Spec {
        name: "tabular-tenants",
        kind: Kind::Tabular { tenants: 8 },
        rate_rps: 6_000.0,
        slo_us: 1_000,
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// The encoder a tenant is served through, kept concrete so the trace
/// can replay its item memories.
#[derive(Debug, Clone)]
pub enum Served {
    /// A uHD image encoder.
    Uhd(Arc<UhdEncoder>),
    /// A tabular record encoder.
    Tabular(Arc<TabularEncoder>),
}

impl Served {
    /// The encoder as the registry sees it.
    pub fn encoder(&self) -> Arc<dyn Encoder> {
        match self {
            Served::Uhd(e) => Arc::clone(e) as Arc<dyn Encoder>,
            Served::Tabular(e) => Arc::clone(e) as Arc<dyn Encoder>,
        }
    }

    /// The item memories the encoder fetches rows from.
    pub fn memories(&self) -> Vec<&ItemMemory> {
        match self {
            Served::Uhd(e) => vec![e.plane_memory()],
            Served::Tabular(e) => vec![e.key_memory(), e.level_memory()],
        }
    }

    /// The same encoder on a rematerialized item memory, whose rows are
    /// derived on demand instead of held resident.
    pub fn rematerialized(&self) -> Result<Served> {
        Ok(match self {
            Served::Uhd(e) => Served::Uhd(Arc::new(UhdEncoder::new(
                e.config().clone().rematerialized(),
            )?)),
            Served::Tabular(e) => Served::Tabular(Arc::new(TabularEncoder::new(
                e.config().clone().rematerialized(),
            )?)),
        })
    }
}

/// One registered model plus the data the benchmark drives it with.
pub struct Tenant {
    /// Tenant name on the wire (`/v1/{name}/…`).
    pub name: String,
    /// The encoder the registry serves through, also used for training
    /// and for the serial reference answers.
    pub served: Served,
    /// The registered (generation 0) model.
    pub model: HdcModel,
    /// Classify inputs and their labels.
    pub test: Vec<Vec<u8>>,
    /// Labels of `test`.
    pub test_labels: Vec<usize>,
    /// Learn inputs (disjoint from the training set) and their labels.
    pub learn: Vec<Vec<u8>>,
    /// Labels of `learn`.
    pub learn_labels: Vec<usize>,
}

/// Generate the workload's data from `seed`, build its encoders and
/// train one model per tenant.
pub fn build(spec: &Spec, seed: u64) -> Result<Vec<Tenant>> {
    match spec.kind {
        Kind::Mnist => Ok(vec![mnist_tenant(seed)?]),
        Kind::Tabular { tenants } => (0..tenants).map(|t| tabular_tenant(t, seed)).collect(),
    }
}

fn mnist_tenant(seed: u64) -> Result<Tenant> {
    let (train, test) = generate(uhd_datasets::SynthSpec::new(
        SyntheticKind::Mnist,
        MNIST_TRAIN + MNIST_LEARN,
        MNIST_TEST,
        seed,
    ))?;
    let encoder = UhdEncoder::new(UhdConfig::new(MNIST_DIM, MNIST_PIXELS))?;
    tenant(
        "mnist".to_string(),
        Served::Uhd(Arc::new(encoder)),
        MNIST_CLASSES,
        train.images(),
        train.labels(),
        MNIST_TRAIN,
        test.images(),
        test.labels(),
    )
}

fn tabular_tenant(index: usize, seed: u64) -> Result<Tenant> {
    let (train, test) = generate_sensor_rows(SensorSpec {
        classes: TABULAR_CLASSES,
        columns: TABULAR_COLUMNS,
        train: TABULAR_TRAIN + TABULAR_LEARN,
        test: TABULAR_TEST,
        seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index as u64,
    })?;
    let mut config = TabularConfig::new(TABULAR_DIM, TABULAR_COLUMNS);
    config.seed ^= index as u64;
    tenant(
        format!("sensor-{index}"),
        Served::Tabular(Arc::new(TabularEncoder::new(config)?)),
        TABULAR_CLASSES,
        train.samples(),
        train.labels(),
        TABULAR_TRAIN,
        test.samples(),
        test.labels(),
    )
}

/// Train on the first `trained` samples; the rest become the learn
/// stream.
#[allow(clippy::too_many_arguments)]
fn tenant(
    name: String,
    served: Served,
    classes: usize,
    samples: &[Vec<u8>],
    labels: &[usize],
    trained: usize,
    test: &[Vec<u8>],
    test_labels: &[usize],
) -> Result<Tenant> {
    let data = LabelledSamples::new(&samples[..trained], &labels[..trained])?;
    let model = HdcModel::train_parallel(served.encoder().as_ref(), data, classes, SHARDS)?;
    let (test, test_labels) = interleave(test, test_labels, classes);
    let (learn, learn_labels) = interleave(&samples[trained..], &labels[trained..], classes);
    Ok(Tenant {
        name,
        served,
        model,
        test,
        test_labels,
        learn,
        learn_labels,
    })
}

/// Reorder samples so labels cycle 0, 1, …, classes−1, 0, 1, …, skipping
/// classes that ran out, keeping each class's own order.
fn interleave(samples: &[Vec<u8>], labels: &[usize], classes: usize) -> (Vec<Vec<u8>>, Vec<usize>) {
    let mut by_class: Vec<std::collections::VecDeque<usize>> = vec![Default::default(); classes];
    for (i, &label) in labels.iter().enumerate() {
        by_class[label].push_back(i);
    }
    let mut order = Vec::with_capacity(labels.len());
    while order.len() < labels.len() {
        for queue in &mut by_class {
            order.extend(queue.pop_front());
        }
    }
    (
        order.iter().map(|&i| samples[i].clone()).collect(),
        order.iter().map(|&i| labels[i]).collect(),
    )
}

/// A registry and its HTTP front end on an ephemeral loopback port.
pub struct Server {
    /// The registry, shared with the HTTP handler threads.
    pub registry: Arc<ModelRegistry>,
    http: HttpServer,
}

impl Server {
    /// Start a registry, register every tenant at generation 0 (through
    /// a [`TracedEncoder`] when `tracer` is given) and start the HTTP
    /// server in front of it.
    pub fn start(fleet: &[Tenant], tracer: Option<&Arc<Tracer>>) -> Result<Server> {
        let config = ServeConfig::new(SHARDS, MAX_BATCH).with_snapshot_every(SNAPSHOT_EVERY);
        let registry = Arc::new(ModelRegistry::start(config)?);
        for (index, tenant) in fleet.iter().enumerate() {
            let encoder = match tracer {
                Some(tracer) => Arc::new(TracedEncoder::new(
                    index,
                    tenant.served.encoder(),
                    Arc::clone(tracer),
                )) as Arc<dyn Encoder>,
                None => tenant.served.encoder(),
            };
            registry.register(&tenant.name, encoder, tenant.model.clone())?;
        }
        let http = HttpServer::start(Arc::clone(&registry), HttpServerConfig::default())?;
        Ok(Server { registry, http })
    }

    /// The bound loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.http.local_addr()
    }

    /// Stop accepting connections, drain the registry and join its
    /// workers.
    pub fn stop(mut self) {
        self.http.shutdown();
        self.registry.shutdown();
    }
}
