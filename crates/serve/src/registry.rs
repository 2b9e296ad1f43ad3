//! The model registry: named models served through **one** shared
//! admission gate. It is the crate's only serving core; a single-model
//! server is a registry with one tenant.
//!
//! Requests are answered on the caller's thread. A caller takes one of
//! `shards` permits (each owning a bundling accumulator and distance
//! buffer that its requests reuse, so a request takes no second lock and
//! allocates only its encoded query, the bipolar sums in the integer
//! mode, and whatever staging its encoder needs), encodes and
//! searches, and hands the permit back. The permits are
//! shared by every tenant. Each tenant owns
//!
//! * a named, generation-tagged `Arc<HdcModel>` hot-swap slot
//!   ("dynamic HDC": [`ModelRegistry::update_model`] replaces it
//!   atomically while queries are in flight, and every
//!   [`Response::generation`] names the model that produced it),
//! * an [`OnlineLearner`] fed *synchronously* by
//!   [`ModelRegistry::learn`] and [`ModelRegistry::feedback`] (no
//!   background trainer: tenant counts are unbounded, threads are
//!   not) with each sample's bit-sliced counts, publishing a
//!   rebinarized snapshot every `snapshot_every` applied updates,
//! * per-tenant labelled series on the registry's [`Recorder`]
//!   (`uhd_tenant_*{tenant="…"}`), so one `/metrics` scrape
//!   attributes traffic per model,
//! * disk persistence: [`ModelRegistry::save_snapshot`] writes the
//!   model through [`uhd_core::snapshot::save_atomic`]
//!   (write-then-rename, crash-safe) and
//!   [`ModelRegistry::register_from_snapshot`] boots a tenant from
//!   such a file.
//!
//! Admission control is a single-lock depth check: a caller finding
//! every permit out waits in line, and past `shed_above` callers in
//! line a classify or learn returns [`ServeError::Overloaded`]
//! immediately — shedding at the door instead of timing out every
//! tenant once the line grows unbounded. [`ModelRegistry::shutdown`]
//! closes the gate and returns once the line has been served; the
//! registry stays scrapeable afterwards.

use crate::error::ServeError;
use crate::gate::{Gate, Permit, Rejected};
use crate::obs::{render_prometheus, ServeObs};
use crate::request::Response;
use crate::stats::StatsSnapshot;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Instant;
use uhd_core::{BitSliceAccumulator, Encoder, HdcModel, InferenceMode, OnlineLearner};
use uhd_obs::{Counter, Gauge, Recorder};

/// Longest accepted tenant name. Names are also restricted to
/// `[A-Za-z0-9_-]` so they embed verbatim in metric labels, URL paths
/// and snapshot file names without escaping.
pub const MAX_TENANT_NAME: usize = 64;

/// Sizing of the admission gate and of [`ModelRegistry::classify_many`]
/// micro-batches, the inference mode requests are answered in, and the
/// online-learning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Permits (shards): how many requests are encoded at once, on
    /// their callers' threads. Per-shard histograms are labelled by
    /// permit.
    pub shards: usize,
    /// Largest micro-batch [`ModelRegistry::classify_many`] answers
    /// under one permit and one model snapshot.
    pub max_batch: usize,
    /// Inference mode requests are answered in.
    /// [`InferenceMode::BinarizedQuery`] (the default) is the
    /// hardware-faithful fast path through the bit-sliced associative
    /// memory; [`InferenceMode::IntegerBoth`] trades throughput for the
    /// accuracy of non-quantized similarity (see the [`InferenceMode`]
    /// docs on why dark, sparse datasets need it).
    pub mode: InferenceMode,
    /// Publish a rebinarized model snapshot after this many applied
    /// learning updates per tenant. [`ModelRegistry::publish`] forces
    /// one in between.
    pub snapshot_every: usize,
    /// Cap on runtime class admission: labels at or beyond this index
    /// are rejected eagerly by [`ModelRegistry::learn`] /
    /// [`ModelRegistry::feedback`], bounding learner memory against a
    /// corrupt label stream.
    pub max_classes: usize,
    /// Load-shedding admission threshold: a classify or learn arriving
    /// while this many callers already wait in line for a permit is
    /// rejected with [`ServeError::Overloaded`] instead of queueing
    /// unboundedly. The default `usize::MAX` disables shedding (must
    /// be nonzero — a zero threshold would reject everything).
    pub shed_above: usize,
    /// Whether the registry renders its metrics and records latency
    /// histograms and queue gauges (on by default). With telemetry off
    /// the registry keeps its counters (they are plain relaxed atomics
    /// either way, so [`ModelRegistry::stats`] still counts) but
    /// renders no metrics and reports zero latency quantiles — the
    /// configuration the throughput bench measures instrumentation
    /// overhead against.
    pub telemetry: bool,
}

impl ServeConfig {
    /// A binarized-query (associative-memory) configuration with
    /// explicit shard and batch sizing. Online learning defaults:
    /// snapshot every 64 updates, class admission capped at 4096.
    #[must_use]
    pub fn new(shards: usize, max_batch: usize) -> Self {
        ServeConfig {
            shards,
            max_batch,
            mode: InferenceMode::BinarizedQuery,
            snapshot_every: 64,
            max_classes: uhd_core::online::DEFAULT_MAX_CLASSES,
            shed_above: usize::MAX,
            telemetry: true,
        }
    }

    /// The same sizing under an explicit [`InferenceMode`].
    #[must_use]
    pub fn with_mode(mut self, mode: InferenceMode) -> Self {
        self.mode = mode;
        self
    }

    /// Publish a learner snapshot after `snapshot_every` applied
    /// updates (must be nonzero).
    #[must_use]
    pub fn with_snapshot_every(mut self, snapshot_every: usize) -> Self {
        self.snapshot_every = snapshot_every;
        self
    }

    /// Cap runtime class admission at `max_classes` (must be nonzero
    /// and at least every registered model's class count).
    #[must_use]
    pub fn with_max_classes(mut self, max_classes: usize) -> Self {
        self.max_classes = max_classes;
        self
    }

    /// Shed classifies and learns once `shed_above` callers wait in
    /// line (must be nonzero; `usize::MAX` disables).
    #[must_use]
    pub fn with_shed_above(mut self, shed_above: usize) -> Self {
        self.shed_above = shed_above;
        self
    }

    /// Enable or disable the metric exposition, latency histograms and
    /// queue gauges (see [`ServeConfig::telemetry`]).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: bool) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// One permit per available hardware thread, batches of 32.
    #[must_use]
    pub fn auto() -> Self {
        let shards = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        ServeConfig::new(shards, 32)
    }

    pub(crate) fn validate(self) -> Result<(), ServeError> {
        if self.shards == 0 || self.max_batch == 0 {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "shards ({}) and max_batch ({}) must be nonzero",
                    self.shards, self.max_batch
                ),
            });
        }
        if self.snapshot_every == 0 || self.max_classes == 0 {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "snapshot_every ({}) and max_classes ({}) must be nonzero",
                    self.snapshot_every, self.max_classes
                ),
            });
        }
        if self.shed_above == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "shed_above must be nonzero (0 would shed every request)".to_string(),
            });
        }
        Ok(())
    }
}

/// One generation of a tenant's served model.
#[derive(Debug)]
struct TenantModel {
    generation: u64,
    model: Arc<HdcModel>,
}

/// A tenant's online-learning state: the accumulators plus the count
/// of applied updates not yet published as a model generation.
#[derive(Debug)]
struct TenantLearner {
    learner: OnlineLearner,
    unpublished: usize,
}

/// Everything the registry holds for one named model.
struct TenantState {
    name: String,
    encoder: Arc<dyn Encoder>,
    model: RwLock<TenantModel>,
    /// Lock order is always learner → model, never the reverse.
    learner: Mutex<TenantLearner>,
    /// `uhd_tenant_requests_total{tenant=…}` — admitted classifies.
    requests: Counter,
    /// `uhd_tenant_completed_total{tenant=…}` — answered classifies.
    completed: Counter,
    /// `uhd_tenant_shed_total{tenant=…}` — admission rejections.
    shed: Counter,
    /// `uhd_tenant_learn_updates_total{tenant=…}` — applied samples.
    learn_updates: Counter,
    /// `uhd_tenant_generation{tenant=…}` — current model generation.
    generation_gauge: Gauge,
}

impl std::fmt::Debug for TenantState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantState")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl TenantState {
    /// Snapshot the tenant's current generation-tagged model.
    ///
    /// Lock poisoning is *recovered*, here and at every other
    /// model/learner lock in the registry. The model slot is only ever
    /// replaced wholesale, so a writer that panicked between acquire
    /// and release left either the old value or the new one — both
    /// coherent. The learner is mutated in place, but every sample is
    /// validated before the first write, so only a broken internal
    /// invariant (an overflow assert in a counter merge or fold) can
    /// panic mid-update; that leaves at most one sample partly applied
    /// to one class, and the snapshots after it serve that state. The
    /// release profile aborts on panic, so a release build never
    /// serves a torn learner. Propagating the poison instead would
    /// brick every subsequent classify on an otherwise healthy pool.
    fn model(&self) -> (u64, Arc<HdcModel>) {
        let slot = self.model.read().unwrap_or_else(PoisonError::into_inner);
        (slot.generation, Arc::clone(&slot.model))
    }

    /// Swap in a new model generation and return its number. The
    /// superseded model is dropped after the write lock, so a classify
    /// never waits while its class sums are freed.
    fn publish(&self, model: HdcModel) -> u64 {
        let model = Arc::new(model);
        let mut slot = self.model.write().unwrap_or_else(PoisonError::into_inner);
        slot.generation += 1;
        let superseded = std::mem::replace(&mut slot.model, model);
        let generation = slot.generation;
        drop(slot);
        drop(superseded);
        self.generation_gauge.set(generation);
        generation
    }
}

/// One permit's scratch: the shard label its timings are recorded
/// under, the encode accumulators, and the distance buffer.
#[derive(Debug)]
struct Lane {
    shard: usize,
    scratch: ScratchPool,
    dists: Vec<u32>,
}

/// A serving pool: named, hot-swappable, disk-persistable models
/// behind one shared admission gate. See the [module docs](self).
///
/// All methods take `&self`; wrap the registry in an [`Arc`] to share
/// it across client threads (the HTTP front end does exactly that).
pub struct ModelRegistry {
    config: ServeConfig,
    gate: Gate<Lane>,
    /// Ordered so [`ModelRegistry::tenants`] and the exposition are
    /// deterministic.
    tenants: RwLock<BTreeMap<String, Arc<TenantState>>>,
    obs: ServeObs,
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl ModelRegistry {
    /// Start a registry: an open admission gate over `config.shards`
    /// permits. No thread is spawned; requests run on their callers'
    /// threads.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for a zero shard count, batch
    /// size, `snapshot_every`, `max_classes` or `shed_above`.
    pub fn start(config: ServeConfig) -> Result<Self, ServeError> {
        config.validate()?;
        let recorder = if config.telemetry {
            Recorder::new()
        } else {
            Recorder::noop()
        };
        let obs = ServeObs::new(recorder, config.shards);
        let lanes = (0..config.shards)
            .map(|shard| Lane {
                shard,
                scratch: ScratchPool::default(),
                dists: Vec::new(),
            })
            .collect();
        let gate = Gate::new(lanes, obs.queue_depth.clone(), obs.queue_depth_hw.clone());
        Ok(ModelRegistry {
            config,
            gate,
            tenants: RwLock::new(BTreeMap::new()),
            obs,
        })
    }

    /// Register a named tenant serving `model` through `encoder`.
    ///
    /// # Errors
    ///
    /// * [`ServeError::InvalidConfig`] for a name outside
    ///   `[A-Za-z0-9_-]{1,64}`, or a model with more classes than the
    ///   registry's `max_classes`.
    /// * [`ServeError::ModelShapeMismatch`] when `model.dim()` differs
    ///   from `encoder.dim()`.
    /// * [`ServeError::DuplicateTenant`] when the name is taken.
    pub fn register(
        &self,
        name: &str,
        encoder: Arc<dyn Encoder>,
        model: HdcModel,
    ) -> Result<(), ServeError> {
        validate_tenant_name(name)?;
        if model.dim() != encoder.dim() {
            return Err(ServeError::ModelShapeMismatch {
                expected_dim: encoder.dim(),
                got_dim: model.dim(),
            });
        }
        if model.classes() > self.config.max_classes {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "tenant {name:?} model has {} classes but max_classes is {}",
                    model.classes(),
                    self.config.max_classes
                ),
            });
        }
        let learner = OnlineLearner::from_model(&model).with_max_classes(self.config.max_classes);
        let labels: [(&str, &str); 1] = [("tenant", name)];
        let recorder = &self.obs.recorder;
        let state = Arc::new(TenantState {
            name: name.to_string(),
            encoder,
            model: RwLock::new(TenantModel {
                generation: 0,
                model: Arc::new(model),
            }),
            learner: Mutex::new(TenantLearner {
                learner,
                unpublished: 0,
            }),
            requests: recorder.counter_with("uhd_tenant_requests_total", &labels),
            completed: recorder.counter_with("uhd_tenant_completed_total", &labels),
            shed: recorder.counter_with("uhd_tenant_shed_total", &labels),
            learn_updates: recorder.counter_with("uhd_tenant_learn_updates_total", &labels),
            generation_gauge: recorder.gauge_with("uhd_tenant_generation", &labels),
        });
        let mut tenants = self.tenants.write().unwrap_or_else(PoisonError::into_inner);
        if tenants.contains_key(name) {
            return Err(ServeError::DuplicateTenant {
                name: name.to_string(),
            });
        }
        tenants.insert(name.to_string(), state);
        Ok(())
    }

    /// Register a tenant whose initial model is loaded from a disk
    /// snapshot previously written by [`ModelRegistry::save_snapshot`]
    /// (or [`uhd_core::snapshot::save_atomic`] directly).
    ///
    /// # Errors
    ///
    /// [`ServeError::Persist`] when the file is unreadable or does not
    /// decode as a model, plus every [`ModelRegistry::register`]
    /// condition.
    pub fn register_from_snapshot(
        &self,
        name: &str,
        encoder: Arc<dyn Encoder>,
        path: &Path,
    ) -> Result<(), ServeError> {
        let model = uhd_core::snapshot::load(path).map_err(|e| ServeError::Persist {
            reason: format!("loading {}: {e}", path.display()),
        })?;
        self.register(name, encoder, model)
    }

    /// Remove a tenant. In-flight requests still answer (they hold
    /// their own `Arc` to the tenant's state); new requests see
    /// [`ServeError::UnknownTenant`].
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] when no such tenant exists.
    pub fn deregister(&self, name: &str) -> Result<(), ServeError> {
        self.tenants
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(name)
            .map(drop)
            .ok_or_else(|| ServeError::UnknownTenant {
                name: name.to_string(),
            })
    }

    /// Registered tenant names, sorted.
    #[must_use]
    pub fn tenants(&self) -> Vec<String> {
        self.tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect()
    }

    fn tenant(&self, name: &str) -> Result<Arc<TenantState>, ServeError> {
        self.tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownTenant {
                name: name.to_string(),
            })
    }

    /// Take a permit for `requests` requests of `tenant`, waiting in
    /// line while every permit is out. `admitted` counts them once they
    /// are past the door; a shed is counted here.
    fn admit(
        &self,
        tenant: &TenantState,
        requests: usize,
        admitted: impl FnOnce(),
    ) -> Result<Permit<'_, Lane>, ServeError> {
        let shed_above = self.config.shed_above;
        self.gate
            .acquire(shed_above, admitted)
            .map_err(|rejected| match rejected {
                Rejected::Closed => ServeError::Closed,
                Rejected::Shed { depth } => {
                    self.obs.stats.record_shed(requests);
                    tenant.shed.add(requests as u64);
                    ServeError::Overloaded { depth, shed_above }
                }
            })
    }

    /// Classify one sample for `tenant` on the calling thread.
    ///
    /// # Errors
    ///
    /// * [`ServeError::UnknownTenant`] for an unregistered name.
    /// * [`ServeError::Core`] for a sample failing the tenant
    ///   encoder's [`Encoder::check_features`], or a classification
    ///   failure.
    /// * [`ServeError::Overloaded`] when every permit is out and
    ///   `shed_above` callers already wait in line (admission is one
    ///   lock acquisition: exact, not advisory).
    /// * [`ServeError::Closed`] after shutdown.
    /// * [`ServeError::WorkerPanicked`] when answering panicked.
    pub fn classify(&self, tenant: &str, input: &[u8]) -> Result<Response, ServeError> {
        let tenant = self.tenant(tenant)?;
        tenant
            .encoder
            .check_features(input)
            .map_err(ServeError::Core)?;
        let mut out = [Err(ServeError::Closed)];
        self.serve_batch(&tenant, &[input], &mut out);
        let [response] = out;
        response
    }

    /// Classify every sample for `tenant`: chunks of at most
    /// `max_batch` samples are answered as micro-batches, fanned out
    /// over at most `shards` threads (the caller's among them).
    /// Responses are returned in input order.
    ///
    /// # Errors
    ///
    /// The first error of [`ModelRegistry::classify`] in input order.
    /// Every sample is validated before any is admitted; a shed or
    /// failed chunk does not stop the others being answered.
    pub fn classify_many(
        &self,
        tenant: &str,
        inputs: &[Vec<u8>],
    ) -> Result<Vec<Response>, ServeError> {
        let tenant = self.tenant(tenant)?;
        for input in inputs {
            tenant
                .encoder
                .check_features(input)
                .map_err(ServeError::Core)?;
        }
        let max_batch = self.config.max_batch;
        let mut out = vec![Err(ServeError::Closed); inputs.len()];
        let chunks = Mutex::new(inputs.chunks(max_batch).zip(out.chunks_mut(max_batch)));
        let work = || loop {
            let Some((inputs, out)) = chunks.lock().unwrap_or_else(PoisonError::into_inner).next()
            else {
                break;
            };
            self.serve_batch(&tenant, inputs, out);
        };
        let threads = self.config.shards.min(inputs.len().div_ceil(max_batch));
        std::thread::scope(|scope| {
            for _ in 1..threads {
                scope.spawn(work);
            }
            work();
        });
        out.into_iter().collect()
    }

    /// Answer `inputs` (already validated) as one micro-batch under one
    /// permit and one model snapshot, writing each outcome to `out`.
    /// Each request's life is attributed to queue-wait / batch-compute
    /// / total. A panic inside one request (a buggy tenant encoder)
    /// errors that request with [`ServeError::WorkerPanicked`] and the
    /// registry keeps serving — one tenant's poison input must not take
    /// down the shared permits. (Only where panics unwind: the release
    /// profile aborts on panic.)
    fn serve_batch<I: AsRef<[u8]>>(
        &self,
        tenant: &TenantState,
        inputs: &[I],
        out: &mut [Result<Response, ServeError>],
    ) {
        let n = inputs.len();
        let arrived_at = Instant::now();
        let admitted = || {
            self.obs.stats.record_submit(n);
            tenant.requests.add(n as u64);
        };
        let mut lane = match self.admit(tenant, n, admitted) {
            Ok(lane) => lane,
            Err(e) => return out.fill(Err(e)),
        };
        let lane = &mut *lane;
        self.obs.stats.record_batch(n);
        let started_at = Instant::now();
        let waited = started_at.saturating_duration_since(arrived_at);
        // One model snapshot per micro-batch: a publish or hot swap is
        // visible to the very next batch.
        let (generation, model) = tenant.model();
        for (input, slot) in inputs.iter().zip(out) {
            self.obs.record_queue_wait(lane.shard, waited);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let (class, score) = model.classify_into(
                    tenant.encoder.as_ref(),
                    input.as_ref(),
                    self.config.mode,
                    lane.scratch.get(tenant.encoder.dim()),
                    &mut lane.dists,
                )?;
                Ok(Response {
                    class,
                    score,
                    generation,
                })
            }))
            .unwrap_or_else(|_| {
                // The panic may have left the scratch planes mid-write.
                lane.scratch = ScratchPool::default();
                self.obs.stats.record_worker_panic();
                Err(ServeError::WorkerPanicked)
            });
            // Record before returning: a caller must find its own
            // latency already in the histogram (count reconciles with
            // the completion counter).
            self.obs.record_total(arrived_at.elapsed());
            if outcome.is_ok() {
                tenant.completed.inc();
            }
            *slot = outcome;
        }
        self.obs.record_compute(lane.shard, started_at.elapsed());
    }

    /// Apply one labelled sample to `tenant`'s online learner
    /// **synchronously** (bundle into the class accumulator; a new
    /// label admits a new class) and return the tenant's current
    /// generation — bumped when this update crossed the
    /// `snapshot_every` publish threshold.
    ///
    /// # Errors
    ///
    /// * [`ServeError::UnknownTenant`] for an unregistered name.
    /// * [`ServeError::Core`] for a sample failing
    ///   [`Encoder::check_features`] (or an encode failure), or one the
    ///   learner rejects.
    /// * [`ServeError::InvalidLabel`] for a label at or beyond
    ///   `max_classes`.
    /// * [`ServeError::Overloaded`] / [`ServeError::Closed`] under the
    ///   same admission policy as [`ModelRegistry::classify`]: learn
    ///   encodes under a permit too.
    pub fn learn(&self, tenant: &str, input: &[u8], label: usize) -> Result<u64, ServeError> {
        self.apply_sample(tenant, input, label, None)
    }

    /// Apply served-prediction feedback to `tenant`'s online learner
    /// **synchronously**: the client observed the registry answer
    /// `predicted` for `input` whose true class is `label`. The learner
    /// applies the AdaptHD perceptron correction only when
    /// `predicted != label`, so correct feedback changes nothing and
    /// publishes nothing. Returns the tenant's current generation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ModelRegistry::learn`] (the `predicted`
    /// index is validated against the cap too). A prediction past the
    /// learner's admitted classes is a learner rejection: it counts
    /// `uhd_learn_rejected_total` and returns [`ServeError::Core`],
    /// whose message names the offending prediction.
    pub fn feedback(
        &self,
        tenant: &str,
        input: &[u8],
        predicted: usize,
        label: usize,
    ) -> Result<u64, ServeError> {
        self.apply_sample(tenant, input, label, Some(predicted))
    }

    /// The body of [`ModelRegistry::learn`] (`predicted: None`, a pure
    /// observation) and [`ModelRegistry::feedback`] (`Some(p)`).
    fn apply_sample(
        &self,
        tenant: &str,
        input: &[u8],
        label: usize,
        predicted: Option<usize>,
    ) -> Result<u64, ServeError> {
        let tenant = self.tenant(tenant)?;
        tenant
            .encoder
            .check_features(input)
            .map_err(ServeError::Core)?;
        let limit = self.config.max_classes;
        for index in std::iter::once(label).chain(predicted) {
            if index >= limit {
                return Err(ServeError::InvalidLabel {
                    label: index,
                    limit,
                });
            }
        }
        let stats = &self.obs.stats;
        // Encode under a permit (its scratch accumulator), copy the
        // request's count planes out of the lane and return the permit
        // before the learner lock is taken (lock order: permit →
        // learner → model), so a learner waiting behind a snapshot
        // holds no permit another tenant's classify needs. The learner
        // merges the counts into a pending class counter and folds it
        // into the integer sums once per snapshot. Bundling is linear
        // in the counts, so streaming observations reproduce
        // single-pass batch training exactly, where bundling binarized
        // ±1 encodings would collapse on the dark, sparse datasets of
        // DESIGN.md §4.
        let sample = {
            let mut lane = self.admit(&tenant, 1, || stats.record_learn_submit())?;
            let scratch = lane.scratch.get(tenant.encoder.dim());
            scratch.clear();
            tenant
                .encoder
                .accumulate(input, scratch)
                .map_err(ServeError::Core)?;
            scratch.clone()
        };
        let requested = Instant::now();
        let mut guard = tenant
            .learner
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let applied = self.apply_locked(&tenant, &mut guard, &sample, label, predicted);
        drop(guard);
        self.obs.record_learn_apply(requested.elapsed());
        match applied? {
            Some(generation) => Ok(generation),
            None => Ok(tenant.model().0),
        }
    }

    /// Apply `sample` to the locked learner, counting the outcome, and
    /// publish a snapshot when the update crosses `snapshot_every`.
    /// Returns the published generation, if any.
    fn apply_locked(
        &self,
        tenant: &TenantState,
        state: &mut TenantLearner,
        sample: &BitSliceAccumulator,
        label: usize,
        predicted: Option<usize>,
    ) -> Result<Option<u64>, ServeError> {
        let stats = &self.obs.stats;
        let changed = match predicted {
            None => state
                .learner
                .observe_accumulator(sample, label)
                .map(|()| true),
            Some(p) => state.learner.feedback_accumulator(sample, p, label),
        };
        match changed {
            Ok(true) => {
                stats.record_learn_update();
                tenant.learn_updates.inc();
                state.unpublished += 1;
                if state.unpublished >= self.config.snapshot_every {
                    let model = state.learner.snapshot().map_err(ServeError::Core)?;
                    return Ok(Some(self.publish_snapshot(tenant, state, model)));
                }
                Ok(None)
            }
            Ok(false) => Ok(None),
            Err(e) => {
                stats.record_learn_rejected();
                Err(ServeError::Core(e))
            }
        }
    }

    /// Publish a learner snapshot as `tenant`'s next generation. The
    /// caller holds the learner lock (`learner`), which serializes
    /// learns against [`ModelRegistry::update_model`] re-seeds (lock
    /// order: learner → model).
    fn publish_snapshot(
        &self,
        tenant: &TenantState,
        learner: &mut TenantLearner,
        model: HdcModel,
    ) -> u64 {
        let generation = tenant.publish(model);
        self.obs.stats.record_snapshot();
        learner.unpublished = 0;
        generation
    }

    /// Publish `tenant`'s current learner state as a new model
    /// generation regardless of the `snapshot_every` cadence.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`]; [`ServeError::Core`] if the
    /// learner holds no trained class yet.
    pub fn publish(&self, tenant: &str) -> Result<u64, ServeError> {
        let tenant = self.tenant(tenant)?;
        let mut guard = tenant
            .learner
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let model = guard.learner.snapshot().map_err(ServeError::Core)?;
        Ok(self.publish_snapshot(&tenant, &mut guard, model))
    }

    /// Hot-swap `tenant`'s served model while requests are in flight
    /// and return the new generation; in-flight micro-batches finish on
    /// the generation they snapshotted.
    ///
    /// The tenant's online learner is **re-seeded** from the new
    /// model's class accumulators: later [`ModelRegistry::learn`] /
    /// [`ModelRegistry::feedback`] samples continue from the swapped-in
    /// model, and learner state not yet published is superseded.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`],
    /// [`ServeError::ModelShapeMismatch`], or
    /// [`ServeError::InvalidConfig`] past the class cap.
    pub fn update_model(&self, tenant: &str, model: HdcModel) -> Result<u64, ServeError> {
        let tenant = self.tenant(tenant)?;
        if model.dim() != tenant.encoder.dim() {
            return Err(ServeError::ModelShapeMismatch {
                expected_dim: tenant.encoder.dim(),
                got_dim: model.dim(),
            });
        }
        if model.classes() > self.config.max_classes {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "swapped-in model has {} classes but max_classes is {}",
                    model.classes(),
                    self.config.max_classes
                ),
            });
        }
        // Holding the learner lock across the publish serializes the
        // swap against a concurrent learn's apply+publish (same lock
        // order: learner → model).
        let mut guard = tenant
            .learner
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        guard.learner = OnlineLearner::from_model(&model).with_max_classes(self.config.max_classes);
        guard.unpublished = 0;
        let generation = tenant.publish(model);
        drop(guard);
        self.obs.stats.record_swap();
        Ok(generation)
    }

    /// Current model generation of `tenant` (0 for the registered
    /// one).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`].
    pub fn generation(&self, tenant: &str) -> Result<u64, ServeError> {
        Ok(self.tenant(tenant)?.model().0)
    }

    /// Persist `tenant`'s currently served model to `path` via the
    /// crash-safe write-then-rename path
    /// ([`uhd_core::snapshot::save_atomic`]). The snapshot is
    /// bit-exact: [`ModelRegistry::register_from_snapshot`] (or
    /// [`uhd_core::snapshot::load`]) restores a model that classifies
    /// identically.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`]; [`ServeError::Persist`] on any
    /// filesystem failure.
    pub fn save_snapshot(&self, tenant: &str, path: &Path) -> Result<(), ServeError> {
        let (_, model) = self.tenant(tenant)?.model();
        uhd_core::snapshot::save_atomic(&model, path).map_err(|e| ServeError::Persist {
            reason: format!("saving {}: {e}", path.display()),
        })
    }

    /// Callers currently waiting in line for a permit.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.gate.depth()
    }

    /// Point-in-time registry counters (summed over all tenants) plus
    /// histogram-derived latency quantiles and the high-water mark of
    /// the line for permits.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.obs.snapshot()
    }

    /// Render the registry's full metric set in the Prometheus text
    /// exposition format: registry-wide counters and queue gauges,
    /// per-tenant labelled series (`uhd_tenant_*{tenant="…"}`), staged
    /// per-shard latency summaries (queue-wait, batch-compute) plus the
    /// registry-wide total, and the process-global kernel identity/op
    /// counters. Usable **after shutdown** too. Empty when telemetry is
    /// disabled.
    #[must_use]
    pub fn render_metrics(&self) -> String {
        render_prometheus(&self.obs.recorder)
    }

    /// Render the registry metrics as JSON (see
    /// [`uhd_obs::Recorder::render_json`] for the schema). `{}` when
    /// telemetry is disabled.
    #[must_use]
    pub fn metrics_json(&self) -> String {
        self.obs.recorder.render_json()
    }

    /// Stop accepting requests (later arrivals get
    /// [`ServeError::Closed`]) and return once every caller already in
    /// line has been answered and every permit is back. Idempotent;
    /// also run by `Drop`. The registry remains usable for metric
    /// scrapes afterwards.
    pub fn shutdown(&self) {
        self.gate.close();
    }
}

impl Drop for ModelRegistry {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// `[A-Za-z0-9_-]{1,64}`: embeddable in metric labels, URL paths and
/// file names without escaping.
fn validate_tenant_name(name: &str) -> Result<(), ServeError> {
    let ok = !name.is_empty()
        && name.len() <= MAX_TENANT_NAME
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-');
    if ok {
        Ok(())
    } else {
        Err(ServeError::InvalidConfig {
            reason: format!("tenant name {name:?} must match [A-Za-z0-9_-]{{1,{MAX_TENANT_NAME}}}"),
        })
    }
}

/// Per-permit scratch accumulators, keyed by hypervector dimension —
/// tenants may differ in `dim`.
#[derive(Debug, Default)]
struct ScratchPool {
    pool: Vec<(u32, BitSliceAccumulator)>,
}

impl ScratchPool {
    fn get(&mut self, dim: u32) -> &mut BitSliceAccumulator {
        if let Some(at) = self.pool.iter().position(|(d, _)| *d == dim) {
            return &mut self.pool[at].1;
        }
        self.pool.push((dim, BitSliceAccumulator::new(dim)));
        &mut self.pool.last_mut().expect("just pushed").1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uhd_core::encoder::uhd::{UhdConfig, UhdEncoder};
    use uhd_core::model::LabelledSamples;
    use uhd_core::HdcError;
    use uhd_testutil::{GateEncoder, Latch};

    const PIXELS: usize = 8;

    fn uhd_fixture(dim: u32) -> (UhdEncoder, HdcModel, Vec<Vec<u8>>, Vec<usize>) {
        let encoder = UhdEncoder::new(UhdConfig::new(dim, PIXELS)).unwrap();
        let images: Vec<Vec<u8>> = (0..20)
            .map(|i| vec![if i % 2 == 0 { 20u8 } else { 230 }; PIXELS])
            .collect();
        let labels: Vec<usize> = (0..20).map(|i| i % 2).collect();
        let data = LabelledSamples::new(&images, &labels).unwrap();
        let model = HdcModel::train(&encoder, data, 2).unwrap();
        (encoder, model, images, labels)
    }

    fn fixture(dim: u32) -> (Arc<dyn Encoder>, HdcModel, Vec<Vec<u8>>, Vec<usize>) {
        let (encoder, model, images, labels) = uhd_fixture(dim);
        (Arc::new(encoder), model, images, labels)
    }

    /// A registry serving `model` as its only tenant, named `t`.
    fn one_tenant(
        config: ServeConfig,
        encoder: Arc<dyn Encoder>,
        model: HdcModel,
    ) -> ModelRegistry {
        let registry = ModelRegistry::start(config).unwrap();
        registry.register("t", encoder, model).unwrap();
        registry
    }

    /// The fixture's images relabelled `1 - label`, trained into a
    /// model that answers every fixture image with the other class.
    fn swapped_model(encoder: &dyn Encoder, images: &[Vec<u8>], labels: &[usize]) -> HdcModel {
        let swapped_labels: Vec<usize> = labels.iter().map(|&l| 1 - l).collect();
        let data = LabelledSamples::new(images, &swapped_labels).unwrap();
        HdcModel::train(encoder, data, 2).unwrap()
    }

    #[test]
    fn serves_and_matches_the_serial_binarized_path() {
        let (encoder, model, images, labels) = uhd_fixture(256);
        let serial: Vec<(usize, f64)> = images
            .iter()
            .map(|img| {
                model
                    .classify_with(&encoder, img, InferenceMode::BinarizedQuery)
                    .unwrap()
            })
            .collect();
        let registry = one_tenant(ServeConfig::new(2, 4), Arc::new(encoder), model);
        let responses = registry.classify_many("t", &images).unwrap();
        assert_eq!(registry.stats().submitted, images.len() as u64);
        for ((response, serial), &label) in responses.iter().zip(&serial).zip(&labels) {
            assert_eq!(response.class, serial.0);
            assert_eq!(response.score.to_bits(), serial.1.to_bits());
            assert_eq!(response.generation, 0);
            assert_eq!(response.class, label, "fixture is separable");
        }
    }

    #[test]
    fn integer_mode_matches_serial_default_classify() {
        let mode = InferenceMode::IntegerBoth;
        let (encoder, model, images, _) = uhd_fixture(256);
        let serial: Vec<(usize, f64)> = images
            .iter()
            .map(|img| model.classify_with(&encoder, img, mode).unwrap())
            .collect();
        let registry = one_tenant(
            ServeConfig::new(2, 4).with_mode(mode),
            Arc::new(encoder),
            model,
        );
        let responses = registry.classify_many("t", &images).unwrap();
        for (response, serial) in responses.iter().zip(&serial) {
            assert_eq!(response.class, serial.0);
            assert_eq!(response.score.to_bits(), serial.1.to_bits());
        }
    }

    #[test]
    fn rejects_degenerate_configs_and_shape_mismatches() {
        let (_, model, _, _) = fixture(256);
        assert!(matches!(
            ModelRegistry::start(ServeConfig::new(0, 4)),
            Err(ServeError::InvalidConfig { .. })
        ));
        assert!(matches!(
            ModelRegistry::start(ServeConfig::new(1, 0)),
            Err(ServeError::InvalidConfig { .. })
        ));
        let registry = ModelRegistry::start(ServeConfig::new(1, 1)).unwrap();
        let small = UhdEncoder::new(UhdConfig::new(64, PIXELS)).unwrap();
        assert!(matches!(
            registry.register("t", Arc::new(small), model),
            Err(ServeError::ModelShapeMismatch { .. })
        ));
        assert!(registry.tenants().is_empty());
    }

    #[test]
    fn degenerate_learning_configs_are_rejected() {
        let (encoder, model, _, _) = fixture(256);
        assert!(matches!(
            ModelRegistry::start(ServeConfig::new(1, 1).with_snapshot_every(0)),
            Err(ServeError::InvalidConfig { .. })
        ));
        // A zero shed threshold would reject every request.
        assert!(matches!(
            ModelRegistry::start(ServeConfig::new(1, 1).with_shed_above(0)),
            Err(ServeError::InvalidConfig { .. })
        ));
        // The initial model already exceeds the admission cap.
        let registry = ModelRegistry::start(ServeConfig::new(1, 1).with_max_classes(1)).unwrap();
        assert!(matches!(
            registry.register("t", encoder, model),
            Err(ServeError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn submit_rejects_wrong_image_sizes_eagerly() {
        let (encoder, model, images, _) = fixture(256);
        let registry = one_tenant(ServeConfig::new(1, 4), encoder, model);
        assert!(matches!(
            registry.classify("t", &[0u8; PIXELS + 1]),
            Err(ServeError::Core(HdcError::ImageSizeMismatch { .. }))
        ));
        // One bad sample fails a whole batch before any is admitted.
        let mut batch = images.clone();
        batch.push(vec![0u8; PIXELS + 1]);
        assert!(matches!(
            registry.classify_many("t", &batch),
            Err(ServeError::Core(HdcError::ImageSizeMismatch { .. }))
        ));
        assert_eq!(registry.stats().submitted, 0);
    }

    #[test]
    fn classify_many_answers_chunks_as_micro_batches() {
        let (encoder, model, images, _) = fixture(256);
        let registry = one_tenant(ServeConfig::new(2, 8), encoder, model);
        assert_eq!(registry.classify_many("t", &images).unwrap().len(), 20);
        let stats = registry.stats();
        // 20 samples in chunks of at most 8: 8 + 8 + 4.
        assert_eq!((stats.batches, stats.largest_batch), (3, 8));
        assert_eq!((stats.submitted, stats.completed), (20, 20));
        assert!(registry.classify_many("t", &[]).unwrap().is_empty());
        assert_eq!(registry.stats().batches, 3);
    }

    #[test]
    fn update_model_bumps_generation_and_checks_shape() {
        let (encoder, model, images, _) = fixture(256);
        let registry = one_tenant(
            ServeConfig::new(2, 4).with_max_classes(2),
            Arc::clone(&encoder),
            model.clone(),
        );
        assert_eq!(registry.generation("t").unwrap(), 0);
        assert_eq!(registry.update_model("t", model).unwrap(), 1);
        assert_eq!(registry.generation("t").unwrap(), 1);
        assert_eq!(registry.classify("t", &images[0]).unwrap().generation, 1);
        // A model trained at a different dimension is rejected.
        let (_, tiny_model, _, _) = fixture(64);
        assert!(matches!(
            registry.update_model("t", tiny_model),
            Err(ServeError::ModelShapeMismatch { .. })
        ));
        // So is one with more classes than the admission cap.
        let labels3: Vec<usize> = (0..images.len()).map(|i| i % 3).collect();
        let data = LabelledSamples::new(&images, &labels3).unwrap();
        let three = HdcModel::train(encoder.as_ref(), data, 3).unwrap();
        assert!(matches!(
            registry.update_model("t", three),
            Err(ServeError::InvalidConfig { .. })
        ));
        assert_eq!(registry.generation("t").unwrap(), 1);
        assert_eq!(registry.stats().model_swaps, 1);
    }

    #[test]
    fn learn_rejects_bad_inputs_eagerly() {
        let (encoder, model, _, _) = fixture(256);
        let registry = one_tenant(ServeConfig::new(1, 4).with_max_classes(4), encoder, model);
        assert!(matches!(
            registry.learn("t", &[0u8; PIXELS + 2], 0),
            Err(ServeError::Core(HdcError::ImageSizeMismatch { .. }))
        ));
        assert!(matches!(
            registry.feedback("t", &[0u8; PIXELS + 2], 0, 0),
            Err(ServeError::Core(HdcError::ImageSizeMismatch { .. }))
        ));
        assert!(matches!(
            registry.learn("t", &[0u8; PIXELS], 4),
            Err(ServeError::InvalidLabel { label: 4, limit: 4 })
        ));
        assert!(matches!(
            registry.feedback("t", &[0u8; PIXELS], 9, 0),
            Err(ServeError::InvalidLabel { label: 9, limit: 4 })
        ));
        // Nothing reached the learner.
        let stats = registry.stats();
        assert_eq!((stats.learn_submitted, stats.learn_updates), (0, 0));
        assert_eq!(registry.generation("t").unwrap(), 0);
    }

    #[test]
    fn learning_publishes_snapshots_and_reconciles_counters() {
        let (encoder, model, images, labels) = fixture(256);
        let registry = one_tenant(ServeConfig::new(2, 4), encoder, model);
        for (image, &label) in images.iter().zip(&labels) {
            registry.learn("t", image, label).unwrap();
        }
        // 20 updates stay below the default cadence of 64: publish
        // explicitly.
        assert_eq!(registry.generation("t").unwrap(), 0);
        assert_eq!(registry.publish("t").unwrap(), 1);
        let stats = registry.stats();
        assert_eq!(stats.learn_submitted, images.len() as u64);
        assert_eq!(stats.learn_updates, stats.learn_submitted);
        assert_eq!(stats.learn_rejected, 0);
        assert_eq!(stats.snapshots_published, 1);
        assert_eq!(stats.model_swaps, 0, "learner publishes are not swaps");
        // The refreshed generation still separates the fixture.
        let response = registry.classify("t", &images[0]).unwrap();
        assert_eq!(response.class, labels[0]);
        assert_eq!(response.generation, 1);
    }

    #[test]
    fn update_model_reseeds_the_online_learner() {
        // Regression: a learner still seeded from the *initial* model
        // would publish a snapshot derived from it after one learn(),
        // clobbering the manual swap.
        let (encoder, model, images, labels) = fixture(256);
        let swapped = swapped_model(encoder.as_ref(), &images, &labels);
        let registry = one_tenant(ServeConfig::new(1, 4), encoder, model);
        registry.update_model("t", swapped).unwrap();
        assert_eq!(
            registry.classify("t", &images[0]).unwrap().class,
            1 - labels[0]
        );
        // One sample consistent with the swapped labelling; the
        // published snapshot must derive from the swapped model.
        registry.learn("t", &images[0], 1 - labels[0]).unwrap();
        assert_eq!(registry.publish("t").unwrap(), 2);
        for (image, &label) in images.iter().zip(&labels) {
            assert_eq!(
                registry.classify("t", image).unwrap().class,
                1 - label,
                "post-swap learning must continue from the swapped model"
            );
        }
    }

    #[test]
    fn correct_feedback_publishes_nothing() {
        let (encoder, model, images, labels) = fixture(256);
        let registry = one_tenant(
            ServeConfig::new(1, 4).with_snapshot_every(1),
            encoder,
            model,
        );
        // Feedback agreeing with the label applies no update, so even
        // a cadence of one has nothing to publish.
        for (image, &label) in images.iter().zip(&labels) {
            assert_eq!(registry.feedback("t", image, label, label).unwrap(), 0);
        }
        let stats = registry.stats();
        assert_eq!(stats.learn_submitted, images.len() as u64);
        assert_eq!(stats.learn_updates, 0);
        assert_eq!(stats.snapshots_published, 0);
        assert_eq!(registry.generation("t").unwrap(), 0);
    }

    #[test]
    fn rematerialized_encoders_serve_identically() {
        // A fleet host can swap the resident threshold planes for the
        // O(seed) rematerialized backend without changing a single
        // answer: both encoders derive the same rows, so the served
        // responses agree bit for bit.
        let (encoder, model, images, _) = uhd_fixture(256);
        let remat = UhdEncoder::new(encoder.config().clone().rematerialized()).unwrap();
        assert!(
            remat.profile().resident_bytes < encoder.profile().resident_bytes,
            "rematerialized serving must hold less heap than resident serving"
        );
        let registry = ModelRegistry::start(ServeConfig::new(1, 2)).unwrap();
        registry
            .register("resident", Arc::new(encoder), model.clone())
            .unwrap();
        registry.register("remat", Arc::new(remat), model).unwrap();
        let resident_answers = registry.classify_many("resident", &images).unwrap();
        let remat_answers = registry.classify_many("remat", &images).unwrap();
        for (a, b) in resident_answers.iter().zip(&remat_answers) {
            assert_eq!(a.class, b.class);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    /// Delegates to a real encoder but panics on a poison image —
    /// stands in for a buggy user-supplied `Encoder`.
    struct PanickingEncoder(UhdEncoder);

    impl Encoder for PanickingEncoder {
        fn dim(&self) -> u32 {
            self.0.dim()
        }
        fn features(&self) -> usize {
            self.0.features()
        }
        fn accumulate(&self, image: &[u8], acc: &mut BitSliceAccumulator) -> Result<(), HdcError> {
            assert!(image[0] != 255, "poison image");
            self.0.accumulate(image, acc)
        }
        fn profile(&self) -> uhd_core::EncoderProfile {
            self.0.profile()
        }
    }

    #[test]
    fn worker_panic_fails_one_request_and_keeps_serving() {
        let (encoder, model, images, _) = uhd_fixture(256);
        let serial: Vec<(usize, f64)> = images
            .iter()
            .map(|img| {
                model
                    .classify_with(&encoder, img, InferenceMode::BinarizedQuery)
                    .unwrap()
            })
            .collect();
        let poisoned = PanickingEncoder(UhdEncoder::new(encoder.config().clone()).unwrap());
        // One permit: the follow-up request can only be answered if the
        // permit came back from the panicking one.
        let registry = ModelRegistry::start(ServeConfig::new(1, 4)).unwrap();
        registry
            .register("poison", Arc::new(poisoned), model.clone())
            .unwrap();
        registry
            .register("healthy", Arc::new(encoder), model)
            .unwrap();
        assert!(matches!(
            registry.classify("poison", &[255u8; PIXELS]),
            Err(ServeError::WorkerPanicked)
        ));
        let follow = registry.classify("healthy", &images[0]).unwrap();
        assert_eq!(
            (follow.class, follow.score.to_bits()),
            (serial[0].0, serial[0].1.to_bits())
        );
        assert!(registry
            .render_metrics()
            .contains("uhd_worker_panics_total 1\n"));
        for (image, expected) in images.iter().zip(&serial) {
            let response = registry.classify("healthy", image).unwrap();
            assert_eq!(response.class, expected.0);
            assert_eq!(response.score.to_bits(), expected.1.to_bits());
        }
    }

    #[test]
    fn poisoned_locks_recover_instead_of_bricking_the_registry() {
        // Regression: `expect("… lock poisoned")` on a model/learner
        // lock turns one writer panicking while holding a guard into a
        // panic on every later classify. Swaps are torn-free wholesale
        // replacements, so recovery is sound — verify the pool keeps
        // serving.
        let (encoder, model, images, labels) = fixture(256);
        let registry = one_tenant(ServeConfig::new(1, 4), encoder, model.clone());
        let tenant = registry.tenant("t").unwrap();
        // A writer dies while holding the model lock.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = tenant.model.write().unwrap();
            panic!("writer dies mid-swap");
        }));
        assert!(tenant.model.is_poisoned());
        // Classifies, generation reads and hot swaps still work.
        assert_eq!(registry.classify("t", &images[0]).unwrap().class, labels[0]);
        assert_eq!(registry.generation("t").unwrap(), 0);
        assert_eq!(registry.update_model("t", model).unwrap(), 1);
        assert_eq!(registry.classify("t", &images[1]).unwrap().generation, 1);
        // Same for the learner lock: online learning continues.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = tenant.learner.lock().unwrap();
            panic!("learner writer dies");
        }));
        assert!(tenant.learner.is_poisoned());
        registry.learn("t", &images[0], labels[0]).unwrap();
        assert_eq!(registry.stats().learn_updates, 1);
        assert_eq!(registry.publish("t").unwrap(), 2);
        assert_eq!(registry.classify("t", &images[0]).unwrap().class, labels[0]);
    }

    #[test]
    fn serves_two_tenants_through_one_pool() {
        let (enc_a, model_a, images, labels) = fixture(256);
        let (enc_b, model_b, _, _) = fixture(512);
        let registry = ModelRegistry::start(ServeConfig::new(2, 4)).unwrap();
        registry.register("alpha", enc_a, model_a.clone()).unwrap();
        registry.register("beta", enc_b, model_b).unwrap();
        assert_eq!(registry.tenants(), vec!["alpha", "beta"]);
        // Interleave requests across tenants of *different* dimensions;
        // answers must match each tenant's serial path.
        for (image, &label) in images.iter().zip(&labels) {
            let a = registry.classify("alpha", image).unwrap();
            let b = registry.classify("beta", image).unwrap();
            assert_eq!(a.class, label);
            assert_eq!(b.class, label);
            assert_eq!(a.generation, 0);
        }
        let expected = model_a
            .classify_with(
                registry.tenant("alpha").unwrap().encoder.as_ref(),
                &images[0],
                InferenceMode::BinarizedQuery,
            )
            .unwrap();
        let got = registry.classify("alpha", &images[0]).unwrap();
        assert_eq!((got.class, got.score), expected);
        let metrics = registry.render_metrics();
        assert!(metrics.contains("uhd_tenant_requests_total{tenant=\"alpha\"}"));
        assert!(metrics.contains("uhd_tenant_requests_total{tenant=\"beta\"}"));
    }

    #[test]
    fn unknown_duplicate_and_invalid_tenants_are_rejected() {
        let (encoder, model, images, _) = fixture(256);
        let registry = ModelRegistry::start(ServeConfig::new(1, 2)).unwrap();
        assert!(matches!(
            registry.classify("ghost", &images[0]),
            Err(ServeError::UnknownTenant { .. })
        ));
        registry
            .register("alpha", Arc::clone(&encoder), model.clone())
            .unwrap();
        assert!(matches!(
            registry.register("alpha", Arc::clone(&encoder), model.clone()),
            Err(ServeError::DuplicateTenant { .. })
        ));
        for bad in ["", "has space", "sl/ash", &"x".repeat(MAX_TENANT_NAME + 1)] {
            assert!(
                matches!(
                    registry.register(bad, Arc::clone(&encoder), model.clone()),
                    Err(ServeError::InvalidConfig { .. })
                ),
                "name {bad:?} must be rejected"
            );
        }
        registry.deregister("alpha").unwrap();
        assert!(matches!(
            registry.deregister("alpha"),
            Err(ServeError::UnknownTenant { .. })
        ));
        assert!(registry.tenants().is_empty());
    }

    #[test]
    fn synchronous_learn_publishes_on_the_snapshot_cadence() {
        let (encoder, model, images, labels) = fixture(256);
        let registry = ModelRegistry::start(ServeConfig::new(1, 2).with_snapshot_every(2)).unwrap();
        registry.register("t", encoder, model).unwrap();
        assert_eq!(registry.learn("t", &images[0], labels[0]).unwrap(), 0);
        // Second applied update crosses snapshot_every=2: generation
        // bumps and subsequent answers are attributed to it.
        assert_eq!(registry.learn("t", &images[1], labels[1]).unwrap(), 1);
        assert_eq!(registry.generation("t").unwrap(), 1);
        let response = registry.classify("t", &images[0]).unwrap();
        assert_eq!(response.generation, 1);
        assert_eq!(response.class, labels[0]);
        // Invalid labels are rejected eagerly.
        assert!(matches!(
            registry.learn("t", &images[0], usize::MAX),
            Err(ServeError::InvalidLabel { .. })
        ));
        // An explicit publish bumps unconditionally.
        assert_eq!(registry.publish("t").unwrap(), 2);
    }

    #[test]
    fn update_model_swaps_and_reseeds_per_tenant() {
        let (encoder, model, images, labels) = fixture(256);
        let swapped = swapped_model(encoder.as_ref(), &images, &labels);
        let registry = ModelRegistry::start(ServeConfig::new(1, 2).with_snapshot_every(1)).unwrap();
        registry.register("t", Arc::clone(&encoder), model).unwrap();
        assert_eq!(registry.update_model("t", swapped).unwrap(), 1);
        assert_eq!(
            registry.classify("t", &images[0]).unwrap().class,
            1 - labels[0]
        );
        // Learner was re-seeded: one consistent sample keeps the
        // swapped labelling.
        registry.learn("t", &images[0], 1 - labels[0]).unwrap();
        assert_eq!(
            registry.classify("t", &images[0]).unwrap().class,
            1 - labels[0]
        );
    }

    #[test]
    fn hot_swap_is_visible_to_a_worker_with_a_warm_snapshot_cache() {
        // One permit: every request runs on the same lane, after a run
        // of same-tenant traffic. A publish must still reach the very
        // next request — a model snapshot may only live within a single
        // request or micro-batch.
        let (encoder, model, images, labels) = fixture(256);
        let swapped = swapped_model(encoder.as_ref(), &images, &labels);
        let registry = ModelRegistry::start(ServeConfig::new(1, 4)).unwrap();
        registry.register("t", Arc::clone(&encoder), model).unwrap();
        // Continuous same-tenant traffic on the one lane.
        for image in &images {
            assert_eq!(registry.classify("t", image).unwrap().generation, 0);
        }
        assert_eq!(registry.update_model("t", swapped).unwrap(), 1);
        // Still the same tenant, same lane: a stale snapshot would keep
        // serving generation 0 with the old labelling.
        for (image, &label) in images.iter().zip(&labels) {
            let response = registry.classify("t", image).unwrap();
            assert_eq!(response.generation, 1, "served a stale generation");
            assert_eq!(response.class, 1 - label);
        }
    }

    /// A one-tenant registry whose encoder parks until the latch opens.
    fn gated(config: ServeConfig) -> (ModelRegistry, Arc<Latch>, Vec<Vec<u8>>, Vec<usize>) {
        let (encoder, model, images, labels) = uhd_fixture(256);
        let (gated, latch) = GateEncoder::new(encoder);
        (
            one_tenant(config, Arc::new(gated), model),
            latch,
            images,
            labels,
        )
    }

    /// Spin until `n` callers wait in line for a permit.
    fn until_waiting(registry: &ModelRegistry, n: usize) {
        while registry.queue_depth() != n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn shutdown_drains_then_rejects_and_metrics_survive() {
        // One permit, parked in the gated encoder, and a full line.
        let line = 3;
        let (registry, latch, images, _) = gated(ServeConfig::new(1, 2).with_shed_above(line));
        std::thread::scope(|scope| {
            let callers: Vec<_> = images[..=line]
                .iter()
                .map(|img| scope.spawn(|| registry.classify("t", img)))
                .collect();
            until_waiting(&registry, line);
            let shutdown = scope.spawn(|| registry.shutdown());
            // Shed while the line is full, then closed once shutdown
            // has shut the door.
            loop {
                match registry.classify("t", &images[0]) {
                    Err(ServeError::Closed) => break,
                    Err(ServeError::Overloaded { .. }) => std::thread::yield_now(),
                    other => panic!("expected Overloaded or Closed, got {other:?}"),
                }
            }
            latch.open();
            shutdown.join().unwrap();
            for caller in callers {
                assert!(
                    caller.join().unwrap().is_ok(),
                    "admitted requests drain at shutdown"
                );
            }
        });
        assert!(matches!(
            registry.classify("t", &images[0]),
            Err(ServeError::Closed)
        ));
        // The registry outlives shutdown: the scrape still renders,
        // and the line's depth gauge is back at 0.
        let metrics = registry.render_metrics();
        assert!(metrics.contains("uhd_queue_depth 0\n"));
        assert!(metrics.contains("uhd_tenant_completed_total{tenant=\"t\"}"));
    }

    #[test]
    fn pending_requests_are_drained_at_shutdown() {
        let (registry, latch, images, labels) = gated(ServeConfig::new(1, 2));
        let registry = Arc::new(registry);
        let callers: Vec<_> = images
            .iter()
            .map(|img| {
                let (registry, img) = (Arc::clone(&registry), img.clone());
                std::thread::spawn(move || registry.classify("t", &img))
            })
            .collect();
        until_waiting(&registry, images.len() - 1);
        // Dropping the owner's handle is the other way to shut down:
        // callers still in line keep the registry alive, are answered,
        // and the last handle out closes the gate.
        drop(registry);
        latch.open();
        for (caller, &label) in callers.into_iter().zip(&labels) {
            assert_eq!(caller.join().unwrap().unwrap().class, label);
        }
    }

    #[test]
    fn admission_control_sheds_past_the_threshold() {
        let (registry, latch, images, _) = gated(ServeConfig::new(1, 1).with_shed_above(2));
        std::thread::scope(|scope| {
            // The lone permit parks in the gated encoder; two more
            // callers fill the line to the threshold…
            let admitted: Vec<_> = images[..3]
                .iter()
                .map(|img| scope.spawn(|| registry.classify("t", img)))
                .collect();
            until_waiting(&registry, 2);
            // …past it, the single-lock depth check says no.
            match registry.classify("t", &images[2]) {
                Err(ServeError::Overloaded { depth, shed_above }) => {
                    assert_eq!(depth, 2);
                    assert_eq!(shed_above, 2);
                }
                other => panic!("expected Overloaded, got {other:?}"),
            }
            // A batch classify is shed at its first chunk, same
            // threshold.
            assert!(matches!(
                registry.classify_many("t", &images[..1]),
                Err(ServeError::Overloaded { .. })
            ));
            assert_eq!(registry.stats().requests_shed, 2);
            assert_eq!(registry.stats().submitted, 3);
            // So is a learn: it encodes under a permit too.
            assert!(matches!(
                registry.learn("t", &images[0], 0),
                Err(ServeError::Overloaded { .. })
            ));
            assert_eq!(registry.stats().requests_shed, 3);
            assert!(registry
                .render_metrics()
                .contains("uhd_tenant_shed_total{tenant=\"t\"} 3\n"));
            assert_eq!(registry.stats().learn_submitted, 0);
            // Open the gate: everything admitted still completes.
            latch.open();
            for caller in admitted {
                assert!(caller.join().unwrap().is_ok());
            }
        });
    }

    #[test]
    fn trait_object_encoders_are_servable() {
        let (encoder, model, images, labels) = uhd_fixture(256);
        let serial = model
            .classify_with(&encoder, &images[0], InferenceMode::BinarizedQuery)
            .unwrap();
        let dyn_encoder: Arc<dyn Encoder> = Arc::new(encoder);
        let registry = one_tenant(ServeConfig::new(1, 1), dyn_encoder, model);
        let response = registry.classify("t", &images[0]).unwrap();
        assert_eq!(response.generation, 0);
        assert_eq!(response.class, labels[0]);
        assert_eq!(response.score.to_bits(), serial.1.to_bits());
    }
}
