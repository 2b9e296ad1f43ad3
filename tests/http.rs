//! Integration suite for the std::net HTTP front end: classify/learn
//! round trips over real sockets, keep-alive, the error-status table,
//! and the `/metrics` scrape.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use uhd::core::encoder::uhd::{UhdConfig, UhdEncoder};
use uhd::core::model::HdcModel;
use uhd::core::Encoder;
use uhd::serve::http::{HttpServer, HttpServerConfig};
use uhd::serve::registry::ModelRegistry;
use uhd::serve::ServeConfig;
use uhd_testutil::data::{tiny_labelled, tiny_mnist};
use uhd_testutil::GateEncoder;

fn serving_fixture() -> (Arc<ModelRegistry>, HttpServer, Vec<Vec<u8>>, Vec<usize>) {
    let (train, test) = tiny_mnist(200, 30);
    let encoder = UhdEncoder::new(UhdConfig::new(512, train.pixels())).unwrap();
    let model = HdcModel::train(&encoder, tiny_labelled(&train), train.classes()).unwrap();
    let registry =
        Arc::new(ModelRegistry::start(ServeConfig::new(2, 4).with_snapshot_every(1)).unwrap());
    registry
        .register("digits", Arc::new(encoder) as Arc<dyn Encoder>, model)
        .unwrap();
    let server = HttpServer::start(Arc::clone(&registry), HttpServerConfig::default()).unwrap();
    (
        registry,
        server,
        test.images().to_vec(),
        test.labels().to_vec(),
    )
}

/// One-shot request helper: returns (status, headers, body).
fn request(server: &HttpServer, method: &str, target: &str, body: &[u8]) -> (u16, String, String) {
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .unwrap();
    stream.write_all(body).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    parse_response(&raw)
}

fn parse_response(raw: &str) -> (u16, String, String) {
    let (head, body) = raw.split_once("\r\n\r\n").expect("complete response");
    let status: u16 = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, head.to_string(), body.to_string())
}

#[test]
fn classify_round_trips_with_generation_attribution() {
    let (registry, server, images, _) = serving_fixture();
    for image in images.iter().take(10) {
        // The wire answer must agree exactly with the in-process path.
        let direct = registry.classify("digits", image).unwrap();
        let (status, _, body) = request(&server, "POST", "/v1/digits/classify", image);
        assert_eq!(status, 200, "body: {body}");
        assert!(
            body.contains(&format!("\"class\":{}", direct.class)),
            "HTTP and in-process answers must agree; got {body}"
        );
        assert!(body.contains("\"generation\":0"));
        assert!(body.contains("\"score\":"));
    }
}

#[test]
fn learn_bumps_the_generation_and_metrics_see_it() {
    let (_registry, server, images, labels) = serving_fixture();
    // snapshot_every=1: each learn publishes a generation.
    let (status, _, body) = request(
        &server,
        "POST",
        &format!("/v1/digits/learn?label={}", labels[0]),
        &images[0],
    );
    assert_eq!(status, 200, "body: {body}");
    assert!(body.contains("\"generation\":1"), "got {body}");
    let (status, _, body) = request(&server, "POST", "/v1/digits/classify", &images[0]);
    assert_eq!(status, 200);
    assert!(body.contains("\"generation\":1"), "got {body}");
    // The scrape reflects the served traffic, per tenant.
    let (status, head, metrics) = request(&server, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    assert!(head.contains("text/plain"));
    assert!(metrics.contains("uhd_tenant_learn_updates_total{tenant=\"digits\"} 1"));
    assert!(metrics.contains("uhd_tenant_generation{tenant=\"digits\"} 1"));
    assert!(metrics.contains("uhd_kernel_info{kernel="));
    let (status, head, json) = request(&server, "GET", "/metrics.json", b"");
    assert_eq!(status, 200);
    assert!(head.contains("application/json"));
    assert!(json.contains("uhd_tenant_requests_total"));
}

#[test]
fn the_error_status_table_holds_on_the_wire() {
    let (_registry, server, images, _) = serving_fixture();
    // Unknown tenant → 404.
    let (status, _, _) = request(&server, "POST", "/v1/ghost/classify", &images[0]);
    assert_eq!(status, 404);
    // Unknown route → 404.
    let (status, _, _) = request(&server, "GET", "/nope", b"");
    assert_eq!(status, 404);
    let (status, _, _) = request(&server, "POST", "/v1/digits/reticulate", b"");
    assert_eq!(status, 404);
    // Wrong feature length → 400 (the encoder's eager validation).
    let (status, _, body) = request(&server, "POST", "/v1/digits/classify", &[0u8; 3]);
    assert_eq!(status, 400, "body: {body}");
    // learn without a label → 400.
    let (status, _, _) = request(&server, "POST", "/v1/digits/learn", &images[0]);
    assert_eq!(status, 400);
    // Oversized body → 413, connection closed.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    write!(
        stream,
        "POST /v1/digits/classify HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert_eq!(parse_response(&raw).0, 413);
}

/// Learn sits behind the same admission gate as classify: with the
/// lone permit parked in an encode and the line full, `POST /learn` is
/// shed with 503 + `Retry-After` and counted as a shed request.
#[test]
fn learn_is_shed_past_the_admission_threshold() {
    let (train, test) = tiny_mnist(120, 10);
    let encoder = UhdEncoder::new(UhdConfig::new(256, train.pixels())).unwrap();
    let model = HdcModel::train(&encoder, tiny_labelled(&train), train.classes()).unwrap();
    let (gated, latch) = GateEncoder::new(encoder);
    let registry =
        Arc::new(ModelRegistry::start(ServeConfig::new(1, 1).with_shed_above(1)).unwrap());
    registry.register("t", Arc::new(gated), model).unwrap();
    let server = HttpServer::start(Arc::clone(&registry), HttpServerConfig::default()).unwrap();
    let images = test.images();
    std::thread::scope(|scope| {
        // One classify parks on the permit, one more waits in line.
        let callers: Vec<_> = images[..2]
            .iter()
            .map(|img| scope.spawn(|| registry.classify("t", img)))
            .collect();
        while registry.queue_depth() != 1 {
            std::thread::yield_now();
        }
        let (status, head, body) = request(&server, "POST", "/v1/t/learn?label=0", &images[2]);
        assert_eq!(status, 503, "body: {body}");
        assert!(head.contains("Retry-After: 1"), "head: {head}");
        latch.open();
        for caller in callers {
            assert!(caller.join().unwrap().is_ok());
        }
    });
    let metrics = registry.render_metrics();
    assert!(metrics.contains("uhd_requests_shed_total 1\n"));
    assert!(metrics.contains("uhd_tenant_shed_total{tenant=\"t\"} 1\n"));
    assert!(metrics.contains("uhd_learn_submitted_total 0\n"));
    // With the line empty again, the same learn is applied.
    let (status, _, body) = request(&server, "POST", "/v1/t/learn?label=0", &images[2]);
    assert_eq!(status, 200, "body: {body}");
}

/// Ambiguous framing ends the connection after one error response: a
/// chunked body (501) and disagreeing `Content-Length` headers (400)
/// are never parsed as a further request, and nothing reaches the
/// registry.
#[test]
fn ambiguous_framing_gets_one_response_and_reaches_nothing() {
    let (registry, server, _, _) = serving_fixture();
    let smuggled = "GET /healthz HTTP/1.1\r\n\r\n";
    let cases = [
        (
            format!(
                "POST /v1/digits/classify HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                 {:x}\r\n{smuggled}\r\n0\r\n\r\n",
                smuggled.len()
            ),
            501,
        ),
        (
            format!(
                "POST /v1/digits/classify HTTP/1.1\r\nContent-Length: {}\r\n\
                 Content-Length: 0\r\n\r\n{smuggled}",
                smuggled.len()
            ),
            400,
        ),
    ];
    for (wire, status) in cases {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(wire.as_bytes()).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert_eq!(
            raw.matches("HTTP/1.1 ").count(),
            1,
            "one response only:\n{raw}"
        );
        assert_eq!(parse_response(&raw).0, status, "{raw}");
    }
    assert_eq!(registry.stats().submitted, 0);
}

#[test]
fn keep_alive_serves_multiple_requests_per_connection() {
    let (_registry, server, images, _) = serving_fixture();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    for (i, image) in images.iter().enumerate().take(3) {
        write!(
            stream,
            "POST /v1/digits/classify HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            image.len()
        )
        .unwrap();
        stream.write_all(image).unwrap();
        // Read exactly one response (headers + Content-Length body).
        let mut buf = Vec::new();
        let mut byte = [0u8; 1];
        while !buf.ends_with(b"\r\n\r\n") {
            stream.read_exact(&mut byte).unwrap();
            buf.push(byte[0]);
        }
        let head = String::from_utf8(buf).unwrap();
        assert!(head.contains("200 OK"), "request {i}: {head}");
        assert!(head.contains("Connection: keep-alive"));
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        let mut body = vec![0u8; len];
        stream.read_exact(&mut body).unwrap();
        assert!(String::from_utf8(body).unwrap().contains("\"class\":"));
    }
}

#[test]
fn tenants_and_healthz_round_trip_and_shutdown_is_clean() {
    let (registry, mut server, images, _) = serving_fixture();
    let (status, _, body) = request(&server, "GET", "/healthz", b"");
    assert_eq!(status, 200);
    assert!(body.contains("ok"));
    let (status, _, body) = request(&server, "GET", "/tenants", b"");
    assert_eq!(status, 200);
    assert_eq!(body, "[\"digits\"]");
    server.shutdown();
    // The registry survives the front end: direct classifies and
    // scrapes still work after the listener is gone.
    assert!(registry.classify("digits", &images[0]).is_ok());
    assert!(registry
        .render_metrics()
        .contains("uhd_requests_submitted_total"));
    assert!(
        TcpStream::connect(server.local_addr()).is_err() || {
            // Some platforms accept briefly in the backlog; a second
            // shutdown is a no-op either way.
            server.shutdown();
            true
        }
    );
}
