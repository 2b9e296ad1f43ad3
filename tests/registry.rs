//! Integration suite for the multi-tenant model registry: heterogeneous
//! tenants behind one admission gate, disk snapshot persistence, hot
//! swap under concurrent traffic, and load-shedding admission control.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use uhd::core::encoder::uhd::{UhdConfig, UhdEncoder};
use uhd::core::model::{HdcModel, InferenceMode, LabelledSamples};
use uhd::core::{Encoder, NgramTextConfig, NgramTextEncoder};
use uhd::serve::registry::ModelRegistry;
use uhd::serve::{Response, ServeConfig, ServeError};
use uhd_testutil::data::{tiny_labelled, tiny_labelled_features, tiny_language_id, tiny_mnist};
use uhd_testutil::GateEncoder;

fn image_tenant(dim: u32) -> (Arc<dyn Encoder>, HdcModel, Vec<Vec<u8>>, Vec<usize>) {
    let (train, test) = tiny_mnist(200, 60);
    let encoder = UhdEncoder::new(UhdConfig::new(dim, train.pixels())).unwrap();
    let model = HdcModel::train(&encoder, tiny_labelled(&train), train.classes()).unwrap();
    (
        Arc::new(encoder),
        model,
        test.images().to_vec(),
        test.labels().to_vec(),
    )
}

fn text_tenant(dim: u32) -> (Arc<dyn Encoder>, HdcModel, Vec<Vec<u8>>) {
    let (train, test) = tiny_language_id(120, 40);
    let encoder = NgramTextEncoder::new(NgramTextConfig::new(dim)).unwrap();
    let model = HdcModel::train(&encoder, tiny_labelled_features(&train), train.classes()).unwrap();
    (Arc::new(encoder), model, test.samples().to_vec())
}

/// Acceptance: two tenants of *different workloads and dimensions*
/// (image + n-gram text) served through one gate answer bit-identically
/// to their serial single-model paths, and the scrape carries both
/// tenants' labelled series.
#[test]
fn heterogeneous_tenants_match_their_serial_paths() {
    let (img_enc, img_model, images, _) = image_tenant(1024);
    let (txt_enc, txt_model, texts) = text_tenant(512);
    let registry = ModelRegistry::start(ServeConfig::new(3, 8)).unwrap();
    registry
        .register("digits", Arc::clone(&img_enc), img_model.clone())
        .unwrap();
    registry
        .register("langid", Arc::clone(&txt_enc), txt_model.clone())
        .unwrap();
    // Run the two tenants' traffic concurrently so they share the
    // permits.
    let serve = |tenant: &'static str, samples: &[Vec<u8>]| -> Vec<Response> {
        samples
            .iter()
            .map(|s| registry.classify(tenant, s).unwrap())
            .collect()
    };
    let (img_answers, txt_answers) = std::thread::scope(|scope| {
        let img = scope.spawn(|| serve("digits", &images));
        let txt = scope.spawn(|| serve("langid", &texts));
        (img.join().unwrap(), txt.join().unwrap())
    });
    for (got, sample) in img_answers.into_iter().zip(&images) {
        let serial = img_model
            .classify_with(img_enc.as_ref(), sample, InferenceMode::BinarizedQuery)
            .unwrap();
        assert_eq!((got.class, got.score), serial);
        assert_eq!(got.generation, 0);
    }
    for (got, sample) in txt_answers.into_iter().zip(&texts) {
        let serial = txt_model
            .classify_with(txt_enc.as_ref(), sample, InferenceMode::BinarizedQuery)
            .unwrap();
        assert_eq!((got.class, got.score), serial);
    }
    let metrics = registry.render_metrics();
    assert!(metrics.contains("uhd_tenant_completed_total{tenant=\"digits\"}"));
    assert!(metrics.contains("uhd_tenant_completed_total{tenant=\"langid\"}"));
}

/// Acceptance: a persisted tenant snapshot reloads bit-identically and
/// serves the same classifications — across registries, i.e. across
/// "process restarts".
#[test]
fn disk_snapshots_reload_and_serve_identically() {
    let dir = std::env::temp_dir().join(format!("uhd-registry-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("digits.uhdm");
    let (encoder, model, images, _) = image_tenant(512);
    let before: Vec<_> = {
        let registry = ModelRegistry::start(ServeConfig::new(2, 4)).unwrap();
        registry
            .register("digits", Arc::clone(&encoder), model.clone())
            .unwrap();
        registry.save_snapshot("digits", &path).unwrap();
        images
            .iter()
            .map(|s| registry.classify("digits", s).unwrap())
            .collect()
    };
    // The on-disk bytes decode to a bit-identical model…
    let reloaded = uhd::core::snapshot::load(&path).unwrap();
    assert_eq!(reloaded.to_bytes(), model.to_bytes());
    // …and a fresh registry booted from the file answers identically.
    let registry = ModelRegistry::start(ServeConfig::new(2, 4)).unwrap();
    registry
        .register_from_snapshot("digits", encoder, &path)
        .unwrap();
    for (sample, expected) in images.iter().zip(&before) {
        let got = registry.classify("digits", sample).unwrap();
        assert_eq!((got.class, got.score), (expected.class, expected.score));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// N tenants keep classifying while another thread hot-swaps one of
/// them and persists snapshots mid-traffic: every answer is coherent
/// (a valid class from generation 0 or the swapped one — never torn),
/// and the persisted file always decodes.
#[test]
fn concurrent_classifies_survive_hotswap_and_persist() {
    let dir = std::env::temp_dir().join(format!("uhd-registry-swap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (encoder, model, images, _) = image_tenant(512);
    // A second generation trained on cyclically shifted labels, so the
    // two generations are distinguishable but equally well-formed.
    let (train, _) = tiny_mnist(200, 20);
    let flipped_labels: Vec<usize> = train.labels().iter().map(|&l| (l + 1) % 10).collect();
    let flipped_data = LabelledSamples::new(train.images(), &flipped_labels).unwrap();
    let flipped = HdcModel::train(encoder.as_ref(), flipped_data, 10).unwrap();
    let registry = Arc::new(ModelRegistry::start(ServeConfig::new(3, 8)).unwrap());
    for tenant in ["a", "b", "c"] {
        registry
            .register(tenant, Arc::clone(&encoder), model.clone())
            .unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        for tenant in ["a", "b", "c"] {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            let images = &images;
            scope.spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let sample = &images[i % images.len()];
                    let response = registry.classify(tenant, sample).unwrap();
                    assert!(response.class < 10, "classes stay in range mid-swap");
                    i += 1;
                }
            });
        }
        // Meanwhile: hot-swap tenant "b" back and forth and persist
        // its current model each time.
        let path = dir.join("b.uhdm");
        for round in 0u64..8 {
            let next = if round % 2 == 0 {
                flipped.clone()
            } else {
                model.clone()
            };
            let generation = registry.update_model("b", next).unwrap();
            assert_eq!(generation, round + 1);
            registry.save_snapshot("b", &path).unwrap();
            let decoded = uhd::core::snapshot::load(&path).unwrap();
            assert_eq!(decoded.dim(), 512, "every persisted file decodes");
        }
        stop.store(true, Ordering::Relaxed);
    });
    // After the dust settles, "b" serves the last swapped model.
    assert_eq!(registry.generation("b").unwrap(), 8);
    std::fs::remove_dir_all(&dir).ok();
}

/// Acceptance: past the configured admission threshold, classifies
/// return `Overloaded` (and the shed counters say so), while everything
/// admitted still completes.
#[test]
fn admission_control_sheds_past_the_threshold() {
    let (train, test) = tiny_mnist(120, 10);
    let encoder = UhdEncoder::new(UhdConfig::new(256, train.pixels())).unwrap();
    let model = HdcModel::train(&encoder, tiny_labelled(&train), train.classes()).unwrap();
    let (gated, latch) = GateEncoder::new(encoder);
    let registry = ModelRegistry::start(ServeConfig::new(1, 1).with_shed_above(2)).unwrap();
    registry.register("t", Arc::new(gated), model).unwrap();
    let images = test.images();
    std::thread::scope(|scope| {
        // The lone permit parks in the gated encoder and two callers
        // wait in line behind it.
        let admitted: Vec<_> = images[..3]
            .iter()
            .map(|img| scope.spawn(|| registry.classify("t", img)))
            .collect();
        while registry.queue_depth() != 2 {
            std::thread::yield_now();
        }
        match registry.classify("t", &images[3]) {
            Err(ServeError::Overloaded { depth, shed_above }) => {
                assert_eq!((depth, shed_above), (2, 2));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        let metrics = registry.render_metrics();
        assert!(metrics.contains("uhd_requests_shed_total 1\n"));
        assert!(metrics.contains("uhd_tenant_shed_total{tenant=\"t\"} 1\n"));
        // Open the gate: everything admitted completes.
        latch.open();
        for caller in admitted {
            assert!(caller.join().unwrap().is_ok());
        }
    });
}

/// Read one series' value out of a Prometheus text exposition.
fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("{name} missing from:\n{text}"))
}

/// Stress for the admission gate: 8 threads × 200 classifies on two
/// permits. Unshed, every answer is the serial one; with a line of one,
/// each call is that answer or `Overloaded` — never a panic or a hang —
/// and the counters reconcile afterwards.
#[test]
fn gate_stress_answers_serially_or_sheds() {
    const THREADS: usize = 8;
    const CALLS: usize = 200;
    let (encoder, model, images, _) = image_tenant(256);
    let serial: Vec<(usize, f64)> = images
        .iter()
        .map(|img| {
            let query = encoder.encode(img).unwrap();
            model.classify_encoded(&query).unwrap()
        })
        .collect();
    for shed_above in [usize::MAX, 1] {
        let config = ServeConfig::new(2, 8).with_shed_above(shed_above);
        let registry = ModelRegistry::start(config).unwrap();
        registry
            .register("t", Arc::clone(&encoder), model.clone())
            .unwrap();
        let shed: usize = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (registry, images, serial) = (&registry, &images, &serial);
                    scope.spawn(move || {
                        let mut shed = 0;
                        for i in 0..CALLS {
                            let at = (t * CALLS + i) % images.len();
                            match registry.classify("t", &images[at]) {
                                Ok(r) => assert_eq!((r.class, r.score), serial[at]),
                                Err(ServeError::Overloaded { .. }) if shed_above == 1 => shed += 1,
                                Err(e) => panic!("unexpected {e:?}"),
                            }
                        }
                        shed
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        let stats = registry.stats();
        let attempted = (THREADS * CALLS) as u64;
        assert_eq!(stats.requests_shed, shed as u64);
        assert_eq!(stats.submitted + stats.requests_shed, attempted);
        assert_eq!(stats.completed, stats.submitted);
        let text = registry.render_metrics();
        assert_eq!(metric(&text, "uhd_queue_depth"), 0);
        assert!(metric(&text, "uhd_queue_depth_hw") <= shed_above as u64);
    }
}
