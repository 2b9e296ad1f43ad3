//! Multi-tenant serving over HTTP: two workloads (image digits +
//! n-gram language ID) behind one shared shard pool, scraped and
//! queried through the std::net front end, with disk snapshot
//! persistence.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example http_serving
//! ```
//!
//! Demonstrates the registry subsystem end to end:
//!
//! 1. register two tenants of different workloads *and dimensions* in
//!    one [`uhd::serve::registry::ModelRegistry`];
//! 2. start the HTTP/1.1 front end on an ephemeral port and round-trip
//!    real `POST /v1/{tenant}/classify` requests through a TCP socket;
//! 3. teach one tenant over the wire (`POST /v1/{tenant}/learn`) and
//!    watch its generation bump;
//! 4. persist a tenant snapshot (crash-safe write-then-rename), boot a
//!    *third* tenant from the file, and verify it answers identically;
//! 5. scrape `/metrics` and read the per-tenant labelled series.
//!
//! Set `UHD_METRICS_SNAPSHOT=<base>` to write `<base>.mid.prom` /
//! `<base>.end.prom` / `<base>.json` exposition snapshots —
//! `ci.sh --smoke` validates them with `validate_metrics`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use uhd::core::encoder::uhd::{UhdConfig, UhdEncoder};
use uhd::core::model::{HdcModel, InferenceMode, LabelledSamples};
use uhd::core::{Encoder, NgramTextConfig, NgramTextEncoder};
use uhd::datasets::synth::text::{generate_language_id, TextSpec};
use uhd::datasets::synth::{generate, SynthSpec, SyntheticKind};
use uhd::serve::http::{HttpServer, HttpServerConfig};
use uhd::serve::registry::ModelRegistry;
use uhd::serve::ServeConfig;

/// One blocking HTTP request over a fresh connection; returns
/// (status, body).
fn http(addr: std::net::SocketAddr, method: &str, target: &str, body: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .expect("write head");
    stream.write_all(body).expect("write body");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("complete response");
    let status = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, body.to_string())
}

/// Classify a whole split over the wire; returns how many answers
/// matched the reference labels.
fn classify_wave(
    addr: std::net::SocketAddr,
    tenant: &str,
    samples: &[Vec<u8>],
    labels: &[usize],
) -> usize {
    let mut hits = 0usize;
    for (sample, &label) in samples.iter().zip(labels) {
        let (status, body) = http(addr, "POST", &format!("/v1/{tenant}/classify"), sample);
        assert_eq!(status, 200, "classify failed: {body}");
        hits += usize::from(body.contains(&format!("\"class\":{label}")));
    }
    hits
}

/// Persist the digits model (atomic write-then-rename), boot a third
/// tenant straight from the file — a restart in miniature — and verify
/// it answers identically over the wire.
fn snapshot_restore_demo(
    registry: &ModelRegistry,
    addr: std::net::SocketAddr,
    pixels: usize,
    probes: &[Vec<u8>],
) -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("uhd-http-serving-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("digits.uhdm");
    registry.save_snapshot("digits", &path)?;
    let restored_encoder = UhdEncoder::new(UhdConfig::new(1024, pixels))?;
    registry.register_from_snapshot(
        "digits-restored",
        Arc::new(restored_encoder) as Arc<dyn Encoder>,
        &path,
    )?;
    for sample in probes.iter().take(20) {
        let (_, live) = http(addr, "POST", "/v1/digits/classify", sample);
        let (_, restored) = http(addr, "POST", "/v1/digits-restored/classify", sample);
        let class = |body: &str| {
            body.split("\"class\":")
                .nth(1)
                .and_then(|rest| rest.split(',').next().map(str::to_string))
        };
        assert_eq!(
            class(&live),
            class(&restored),
            "the restored snapshot must classify identically"
        );
    }
    println!(
        "snapshot {} ({} bytes) restored as tenant \"digits-restored\": answers identical",
        path.display(),
        std::fs::metadata(&path)?.len()
    );
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let snapshot_base = std::env::var("UHD_METRICS_SNAPSHOT")
        .ok()
        .filter(|base| !base.is_empty());

    // Tenant 1: synthetic MNIST digits at D=1024.
    let (img_train, img_test) = generate(SynthSpec::new(SyntheticKind::Mnist, 600, 100, 42))?;
    let img_encoder = UhdEncoder::new(UhdConfig::new(1024, img_train.pixels()))?;
    let img_model = HdcModel::train(
        &img_encoder,
        LabelledSamples::new(img_train.images(), img_train.labels())?,
        img_train.classes(),
    )?;

    // Tenant 2: synthetic language ID over n-gram text at D=512.
    let (txt_train, txt_test) = generate_language_id(TextSpec::new(300, 60, 7))?;
    let txt_encoder = NgramTextEncoder::new(NgramTextConfig::new(512))?;
    let txt_model = HdcModel::train(
        &txt_encoder,
        LabelledSamples::new(txt_train.samples(), txt_train.labels())?,
        txt_train.classes(),
    )?;

    // One pool, many models: both tenants share the registry's permits.
    // Integer similarity is the mode the paper's accuracy tables use.
    let registry = Arc::new(ModelRegistry::start(
        ServeConfig::new(2, 16).with_mode(InferenceMode::IntegerBoth),
    )?);
    registry.register(
        "digits",
        Arc::new(img_encoder) as Arc<dyn Encoder>,
        img_model,
    )?;
    registry.register(
        "langid",
        Arc::new(txt_encoder) as Arc<dyn Encoder>,
        txt_model,
    )?;

    let server = HttpServer::start(Arc::clone(&registry), HttpServerConfig::default())?;
    let addr = server.local_addr();
    println!("serving tenants {:?} on http://{addr}", registry.tenants());

    // Wave 1: both tenants over the wire, interleaved.
    let img_hits = classify_wave(addr, "digits", img_test.images(), img_test.labels());
    let txt_hits = classify_wave(addr, "langid", txt_test.samples(), txt_test.labels());
    println!(
        "wave 1: digits {}/{} correct, langid {}/{} correct",
        img_hits,
        img_test.len(),
        txt_hits,
        txt_test.len()
    );

    if let Some(base) = &snapshot_base {
        std::fs::write(format!("{base}.mid.prom"), registry.render_metrics())?;
    }

    // Teach the digits tenant over the wire: each learn applies
    // synchronously; the generation bumps on the snapshot cadence.
    for (sample, &label) in img_train.images().iter().zip(img_train.labels()).take(64) {
        let (status, body) = http(
            addr,
            "POST",
            &format!("/v1/digits/learn?label={label}"),
            sample,
        );
        assert_eq!(status, 200, "learn failed: {body}");
    }
    println!(
        "after 64 learn samples: digits generation {}",
        registry.generation("digits")?
    );

    snapshot_restore_demo(&registry, addr, img_train.pixels(), img_test.images())?;

    // Scrape: per-tenant labelled series from one endpoint.
    let (status, metrics) = http(addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    println!("scrape excerpt (/metrics):");
    for line in metrics.lines().filter(|l| l.starts_with("uhd_tenant_")) {
        println!("  {line}");
    }

    if let Some(base) = &snapshot_base {
        std::fs::write(format!("{base}.end.prom"), &metrics)?;
        std::fs::write(format!("{base}.json"), registry.metrics_json())?;
        eprintln!("wrote {base}.mid.prom, {base}.end.prom, {base}.json");
    }

    drop(server);
    registry.shutdown();
    Ok(())
}
