//! A minimal, dependency-free HTTP/1.1 front end over
//! [`ModelRegistry`], on [`std::net::TcpListener`].
//!
//! This is deliberately *not* a general web server: it parses exactly
//! the subset of HTTP/1.1 the serving API needs (request line, headers,
//! `Content-Length` bodies, keep-alive) and nothing else — no chunked
//! transfer, no TLS, no compression. Framing is strict, so no request
//! can hide inside another's body: any `Transfer-Encoding` gets `501`
//! and `Content-Length` headers that disagree get `400`, both closing
//! the connection. The wire protocol:
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /v1/{tenant}/classify` | body = raw feature bytes → `{"class":…,"score":…,"generation":…}` |
//! | `POST /v1/{tenant}/learn?label=N` | body = raw feature bytes → `{"generation":…}` |
//! | `GET /metrics` | Prometheus text exposition |
//! | `GET /metrics.json` | the same metrics as JSON |
//! | `GET /tenants` | JSON array of tenant names |
//! | `GET /healthz` | `ok` |
//!
//! Serving errors map onto status codes the obvious way:
//! [`ServeError::UnknownTenant`] → 404, malformed inputs
//! ([`ServeError::Core`] / [`ServeError::InvalidLabel`]) → 400,
//! [`ServeError::Overloaded`] → 503 with a `Retry-After` header (the
//! admission-control contract made visible to HTTP clients), shutdown
//! → 503, everything else → 500. Oversized inputs are bounded on both
//! sides of the body divide: bodies past `max_body` get `413`, and a
//! request line + header section past 8 KiB (`MAX_HEAD_BYTES`) gets
//! `431` — the server never buffers an unbounded header stream.

use crate::error::ServeError;
use crate::registry::ModelRegistry;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Sizing and socket knobs for [`HttpServer::start`].
#[derive(Debug, Clone)]
pub struct HttpServerConfig {
    /// Bind address; use port 0 for an ephemeral port (the bound
    /// address is reported by [`HttpServer::local_addr`]).
    pub addr: String,
    /// Largest accepted request body; longer bodies get `413`.
    pub max_body: usize,
    /// Per-connection read timeout: an idle keep-alive connection is
    /// dropped after this long, bounding handler-thread lifetime.
    pub read_timeout: Duration,
}

impl Default for HttpServerConfig {
    fn default() -> Self {
        HttpServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_body: 1 << 20,
            read_timeout: Duration::from_secs(5),
        }
    }
}

/// A running HTTP front end: one accept thread, one detached handler
/// thread per connection, all serving a shared [`ModelRegistry`]. A
/// handler thread answers its requests itself: classify and learn
/// encode on it under one of the registry's permits.
#[derive(Debug)]
pub struct HttpServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// A second handle to the accept thread's listener (same OS
    /// socket): lets [`HttpServer::shutdown`] flip it nonblocking so
    /// the accept loop cannot re-park after being woken.
    listener: TcpListener,
    accept_thread: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `config.addr` and start accepting connections against
    /// `registry`.
    ///
    /// # Errors
    ///
    /// Any socket-level failure to bind or inspect the listener.
    pub fn start(registry: Arc<ModelRegistry>, config: HttpServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown_listener = listener.try_clone()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_thread = std::thread::Builder::new()
            .name("uhd-http-accept".to_string())
            .spawn(move || loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if accept_shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        let registry = Arc::clone(&registry);
                        let config = config.clone();
                        let _ = std::thread::Builder::new()
                            .name("uhd-http-conn".to_string())
                            .spawn(move || handle_connection(stream, &registry, &config));
                    }
                    Err(_) => {
                        // Post-shutdown the listener is nonblocking, so
                        // `WouldBlock` lands here and the flag breaks
                        // the loop; otherwise it is a transient accept
                        // failure (EMFILE, aborted handshake) — back
                        // off briefly instead of spinning.
                        if accept_shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
            })?;
        Ok(HttpServer {
            local_addr,
            shutdown,
            listener: shutdown_listener,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address actually bound (resolves port 0 to the ephemeral
    /// port picked by the OS).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting new connections and join the accept thread.
    /// In-flight handler threads finish their current request and die
    /// with their connections (bounded by the read timeout).
    /// Idempotent; also run by `Drop`. Does **not** shut down the
    /// registry — callers own that lifecycle.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Future accepts fail fast instead of parking (the cloned
        // handle shares the OS socket, so this reaches the accept
        // thread's listener too).
        let _ = self.listener.set_nonblocking(true);
        // A thread already parked in `accept()` still needs a poke. A
        // wildcard bind is not a routable connect target, so aim at
        // loopback on the bound port instead.
        let ip = self.local_addr.ip();
        let wake_ip = if ip.is_unspecified() {
            if ip.is_ipv4() {
                IpAddr::V4(Ipv4Addr::LOCALHOST)
            } else {
                IpAddr::V6(Ipv6Addr::LOCALHOST)
            }
        } else {
            ip
        };
        let wake = SocketAddr::new(wake_ip, self.local_addr.port());
        let woken = TcpStream::connect_timeout(&wake, Duration::from_millis(250)).is_ok();
        if let Some(handle) = self.accept_thread.take() {
            if woken {
                let _ = handle.join();
            }
            // If the connect was refused or filtered (firewalled
            // wildcard bind, unroutable address) the thread may still
            // be parked; it exits on the next connection attempt, and
            // dropping the handle detaches it rather than blocking
            // shutdown forever on `join()`.
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One parsed request: line, the headers we care about, body.
struct HttpRequest {
    method: String,
    /// Path with the query string split off.
    path: String,
    /// Raw query string (no leading `?`), empty when absent.
    query: String,
    keep_alive: bool,
    body: Vec<u8>,
}

/// Why a request could not be parsed (distinct from a serving error:
/// these end the connection after a `4xx`).
#[derive(Debug)]
enum ParseError {
    /// Clean EOF between requests — the peer closed a keep-alive
    /// connection; not an error at all.
    Eof,
    /// Malformed request line/headers, or an I/O error mid-request.
    Malformed(&'static str),
    /// A `Content-Length` past the configured cap.
    TooLarge,
    /// Request line + headers past [`MAX_HEAD_BYTES`] cumulatively.
    HeadTooLarge,
    /// A `Transfer-Encoding` header: only `Content-Length` framing is
    /// implemented, so where the body ends is unknown.
    TransferEncoding,
}

/// Cumulative cap on the request line plus all header lines. Bodies
/// are bounded by `max_body`; this bounds everything before the body,
/// so a client streaming an endless header line cannot grow server
/// memory past this.
const MAX_HEAD_BYTES: usize = 8 * 1024;

fn handle_connection(stream: TcpStream, registry: &ModelRegistry, config: &HttpServerConfig) {
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    loop {
        match read_request(&mut reader, config.max_body) {
            Ok(request) => {
                let keep_alive = request.keep_alive;
                let response = route(&request, registry);
                if write_response(&mut writer, &response, keep_alive).is_err() || !keep_alive {
                    return;
                }
            }
            Err(error) => {
                let response = match error {
                    ParseError::Eof => return,
                    ParseError::TooLarge => {
                        HttpResponse::json(413, "{\"error\":\"body too large\"}")
                    }
                    ParseError::HeadTooLarge => {
                        HttpResponse::json(431, "{\"error\":\"request header section too large\"}")
                    }
                    ParseError::TransferEncoding => HttpResponse::json(
                        501,
                        "{\"error\":\"transfer-encoding is not supported; send content-length\"}",
                    ),
                    ParseError::Malformed(reason) => {
                        HttpResponse::json(400, &format!("{{\"error\":{}}}", json_string(reason)))
                    }
                };
                let _ = write_response(&mut writer, &response, false);
                return;
            }
        }
    }
}

fn read_request(reader: &mut impl BufRead, max_body: usize) -> Result<HttpRequest, ParseError> {
    let mut head_budget = MAX_HEAD_BYTES;
    let mut line = String::new();
    match read_head_line(reader, &mut line, &mut head_budget) {
        // A closed socket, a read timeout, or a reset all end the
        // connection the same way: no request to serve.
        Ok(0) | Err(_) => return Err(ParseError::Eof),
        Ok(_) if !line.ends_with('\n') && head_budget == 0 => return Err(ParseError::HeadTooLarge),
        Ok(_) => {}
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or(ParseError::Malformed("empty request line"))?;
    let target = parts
        .next()
        .ok_or(ParseError::Malformed("missing request target"))?;
    let version = parts
        .next()
        .ok_or(ParseError::Malformed("missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Malformed("unsupported HTTP version"));
    }
    // HTTP/1.1 defaults to keep-alive; 1.0 to close.
    let mut keep_alive = version == "HTTP/1.1";
    let mut content_length: Option<usize> = None;
    loop {
        let mut header = String::new();
        match read_head_line(reader, &mut header, &mut head_budget) {
            Ok(0) if head_budget == 0 => return Err(ParseError::HeadTooLarge),
            Ok(0) => return Err(ParseError::Malformed("eof inside headers")),
            Ok(_) if !header.ends_with('\n') && head_budget == 0 => {
                return Err(ParseError::HeadTooLarge)
            }
            Ok(_) => {}
            Err(_) => return Err(ParseError::Malformed("read error inside headers")),
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(ParseError::Malformed("header without colon"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // Digits only: `str::parse` would also take a leading `+`.
            let length = Some(value)
                .filter(|v| v.bytes().all(|b| b.is_ascii_digit()))
                .and_then(|v| v.parse().ok())
                .ok_or(ParseError::Malformed("unparseable content-length"))?;
            if content_length.is_some_and(|seen| seen != length) {
                return Err(ParseError::Malformed("conflicting content-length headers"));
            }
            content_length = Some(length);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(ParseError::TransferEncoding);
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Err(ParseError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|_| ParseError::Malformed("body shorter than content-length"))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    Ok(HttpRequest {
        method: method.to_string(),
        path,
        query,
        keep_alive,
        body,
    })
}

/// Read one `\n`-terminated line into `out`, charging every byte
/// against `budget` — the reader never buffers more than `budget`
/// bytes, however long the peer's line is. Returns the bytes read;
/// `0` means EOF, a line without a trailing `\n` alongside an
/// exhausted budget means the cap was hit mid-line.
fn read_head_line(
    reader: &mut impl BufRead,
    out: &mut String,
    budget: &mut usize,
) -> io::Result<usize> {
    let n = reader.take(*budget as u64).read_line(out)?;
    *budget -= n;
    Ok(n)
}

/// A response ready to serialize: status, content type, body.
struct HttpResponse {
    status: u16,
    content_type: &'static str,
    body: Vec<u8>,
    retry_after: bool,
}

impl HttpResponse {
    fn json(status: u16, body: &str) -> Self {
        HttpResponse {
            status,
            content_type: "application/json",
            body: body.as_bytes().to_vec(),
            retry_after: false,
        }
    }

    fn text(status: u16, body: String) -> Self {
        HttpResponse {
            status,
            content_type: "text/plain; version=0.0.4",
            body: body.into_bytes(),
            retry_after: false,
        }
    }
}

fn route(request: &HttpRequest, registry: &ModelRegistry) -> HttpResponse {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => HttpResponse::json(200, "{\"status\":\"ok\"}"),
        ("GET", "/metrics") => HttpResponse::text(200, registry.render_metrics()),
        ("GET", "/metrics.json") => HttpResponse::json(200, &registry.metrics_json()),
        ("GET", "/tenants") => {
            let names: Vec<String> = registry
                .tenants()
                .into_iter()
                .map(|n| json_string(&n))
                .collect();
            HttpResponse::json(200, &format!("[{}]", names.join(",")))
        }
        ("POST", path) => route_tenant_post(path, request, registry),
        _ => HttpResponse::json(404, "{\"error\":\"no such route\"}"),
    }
}

/// `POST /v1/{tenant}/classify` and `POST /v1/{tenant}/learn`.
fn route_tenant_post(path: &str, request: &HttpRequest, registry: &ModelRegistry) -> HttpResponse {
    let Some(rest) = path.strip_prefix("/v1/") else {
        return HttpResponse::json(404, "{\"error\":\"no such route\"}");
    };
    let Some((tenant, action)) = rest.split_once('/') else {
        return HttpResponse::json(404, "{\"error\":\"no such route\"}");
    };
    match action {
        "classify" => match registry.classify(tenant, &request.body) {
            Ok(response) => HttpResponse::json(
                200,
                &format!(
                    "{{\"class\":{},\"score\":{},\"generation\":{}}}",
                    response.class, response.score, response.generation
                ),
            ),
            Err(e) => error_response(&e),
        },
        "learn" => {
            let Some(label) = query_param(&request.query, "label").and_then(|v| v.parse().ok())
            else {
                return HttpResponse::json(
                    400,
                    "{\"error\":\"learn requires an integer ?label= parameter\"}",
                );
            };
            match registry.learn(tenant, &request.body, label) {
                Ok(generation) => {
                    HttpResponse::json(200, &format!("{{\"generation\":{generation}}}"))
                }
                Err(e) => error_response(&e),
            }
        }
        _ => HttpResponse::json(404, "{\"error\":\"no such route\"}"),
    }
}

/// Map a serving error onto a status code (see the module docs table).
fn error_response(error: &ServeError) -> HttpResponse {
    let status = match error {
        ServeError::UnknownTenant { .. } => 404,
        ServeError::Core(_) | ServeError::InvalidLabel { .. } => 400,
        ServeError::Overloaded { .. } | ServeError::Closed => 503,
        _ => 500,
    };
    let mut response = HttpResponse::json(
        status,
        &format!("{{\"error\":{}}}", json_string(&error.to_string())),
    );
    // The load-shedding contract on the wire: overloaded means "come
    // back, soon" — not "give up".
    response.retry_after = matches!(error, ServeError::Overloaded { .. });
    response
}

/// Serialize `response` into one buffer and send it with one
/// `write_all`: on a `TCP_NODELAY` socket a separate head write would
/// go out as its own segment.
fn write_response(
    writer: &mut impl Write,
    response: &HttpResponse,
    keep_alive: bool,
) -> io::Result<()> {
    let reason = match response.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let retry = if response.retry_after {
        "Retry-After: 1\r\n"
    } else {
        ""
    };
    let mut wire = Vec::with_capacity(160 + response.body.len());
    write!(
        wire,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n{}\r\n",
        response.status,
        reason,
        response.content_type,
        response.body.len(),
        connection,
        retry,
    )?;
    wire.extend_from_slice(&response.body);
    writer.write_all(&wire)?;
    writer.flush()
}

/// Extract `name` from an `a=1&b=2` query string.
fn query_param<'q>(query: &'q str, name: &str) -> Option<&'q str> {
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == name)
        .map(|(_, v)| v)
}

/// Serialize a string as a JSON string literal (quotes, backslashes
/// and control characters escaped — tenant names are already
/// restricted, but error messages are free-form).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_escape_the_dangerous_characters() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("line\nbreak"), "\"line\\nbreak\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn query_params_parse() {
        assert_eq!(query_param("label=3&x=1", "label"), Some("3"));
        assert_eq!(query_param("x=1", "label"), None);
        assert_eq!(query_param("", "label"), None);
    }

    #[test]
    fn request_heads_are_byte_bounded() {
        // A well-formed request inside the budget parses.
        let mut ok = io::Cursor::new(
            b"POST /v1/t/classify HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc".to_vec(),
        );
        let request = read_request(&mut ok, 1 << 20).unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.body, b"abc");

        // One endless header line: rejected at the cap, not buffered
        // until the peer relents.
        let mut raw = b"GET /metrics HTTP/1.1\r\nX-Flood: ".to_vec();
        raw.resize(4 * MAX_HEAD_BYTES, b'a');
        let mut flood = io::Cursor::new(raw);
        assert!(matches!(
            read_request(&mut flood, 1 << 20),
            Err(ParseError::HeadTooLarge)
        ));
        // The reader stopped at the budget — the rest of the flood was
        // never pulled into memory.
        assert!(flood.position() as usize <= MAX_HEAD_BYTES);

        // Many small headers cumulatively past the cap: same verdict.
        let mut raw = b"GET /metrics HTTP/1.1\r\n".to_vec();
        while raw.len() <= MAX_HEAD_BYTES {
            raw.extend_from_slice(b"X-Padding: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        raw.extend_from_slice(b"\r\n");
        assert!(matches!(
            read_request(&mut io::Cursor::new(raw), 1 << 20),
            Err(ParseError::HeadTooLarge)
        ));

        // An endless request line (no header ever arrives) is also cut.
        let mut raw = b"GET /".to_vec();
        raw.resize(4 * MAX_HEAD_BYTES, b'x');
        assert!(matches!(
            read_request(&mut io::Cursor::new(raw), 1 << 20),
            Err(ParseError::HeadTooLarge)
        ));
    }

    #[test]
    fn ambiguous_framing_is_refused() {
        let smuggled = "GET /healthz HTTP/1.1\r\n\r\n";
        // Chunked (or any) transfer coding: refused before the body is
        // read, alone or next to a content-length.
        for head in [
            "Transfer-Encoding: chunked\r\n",
            "transfer-encoding: identity\r\n",
            "Content-Length: 3\r\nTransfer-Encoding: chunked\r\n",
        ] {
            let raw = format!(
                "POST /v1/t/classify HTTP/1.1\r\n{head}\r\n{:x}\r\n{smuggled}\r\n0\r\n\r\n",
                smuggled.len()
            );
            assert!(
                matches!(
                    read_request(&mut io::Cursor::new(raw), 1 << 20),
                    Err(ParseError::TransferEncoding)
                ),
                "{head:?}"
            );
        }
        // Content-Length headers that disagree, in either order: the
        // body's extent is ambiguous, so nothing is parsed after them.
        for (first, second) in [(smuggled.len(), 0), (0, smuggled.len())] {
            let raw = format!(
                "POST /v1/t/classify HTTP/1.1\r\nContent-Length: {first}\r\n\
                 content-length: {second}\r\n\r\n{smuggled}"
            );
            assert!(matches!(
                read_request(&mut io::Cursor::new(raw), 1 << 20),
                Err(ParseError::Malformed("conflicting content-length headers"))
            ));
        }
        // Content-Length is digits only, with no sign.
        let mut signed =
            io::Cursor::new(b"POST /x HTTP/1.1\r\nContent-Length: +3\r\n\r\nabc".to_vec());
        assert!(matches!(
            read_request(&mut signed, 1 << 20),
            Err(ParseError::Malformed("unparseable content-length"))
        ));
        // A repeated Content-Length that agrees frames one body.
        let mut repeated = io::Cursor::new(
            b"POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc".to_vec(),
        );
        assert_eq!(read_request(&mut repeated, 1 << 20).unwrap().body, b"abc");
    }

    /// Counts `write` calls and keeps the bytes.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_response_goes_out_in_one_write() {
        let overloaded = error_response(&ServeError::Overloaded {
            depth: 1,
            shed_above: 1,
        });
        let cases = [
            (
                HttpResponse::json(200, "{\"generation\":3}"),
                true,
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 16\r\n\
                 Connection: keep-alive\r\n\r\n{\"generation\":3}",
            ),
            (
                HttpResponse::json(413, "{\"error\":\"body too large\"}"),
                false,
                "HTTP/1.1 413 Payload Too Large\r\nContent-Type: application/json\r\n\
                 Content-Length: 26\r\nConnection: close\r\n\r\n{\"error\":\"body too large\"}",
            ),
            (
                HttpResponse::json(501, "{}"),
                false,
                "HTTP/1.1 501 Not Implemented\r\nContent-Type: application/json\r\n\
                 Content-Length: 2\r\nConnection: close\r\n\r\n{}",
            ),
            (
                overloaded,
                true,
                "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
                 Content-Length: 71\r\nConnection: keep-alive\r\nRetry-After: 1\r\n\r\n\
                 {\"error\":\"overloaded: queue depth 1 at or above admission threshold 1\"}",
            ),
        ];
        for (response, keep_alive, wire) in cases {
            let mut writer = CountingWriter::default();
            write_response(&mut writer, &response, keep_alive).unwrap();
            assert_eq!(writer.writes, 1, "{wire}");
            assert_eq!(String::from_utf8(writer.bytes).unwrap(), wire);
        }
    }

    #[test]
    fn error_statuses_follow_the_table() {
        assert_eq!(
            error_response(&ServeError::UnknownTenant {
                name: "t".to_string()
            })
            .status,
            404
        );
        assert_eq!(
            error_response(&ServeError::InvalidLabel { label: 9, limit: 4 }).status,
            400
        );
        let overloaded = error_response(&ServeError::Overloaded {
            depth: 8,
            shed_above: 8,
        });
        assert_eq!(overloaded.status, 503);
        assert!(overloaded.retry_after);
        assert_eq!(error_response(&ServeError::Closed).status, 503);
        assert_eq!(error_response(&ServeError::WorkerPanicked).status, 500);
    }

    /// Seeded fuzz of the request reader: random, truncated and
    /// mutated-valid heads and bodies. Every case ends in a typed
    /// `ParseError` or the request that was sent, and the reader pulls
    /// no more than the head budget plus the body cap off the wire.
    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        /// SplitMix64 step: the case generator's byte source.
        fn next(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(state: &mut u64, bound: usize) -> usize {
            (next(state) % bound as u64) as usize
        }

        /// `len` bytes drawn from `alphabet`.
        fn token(state: &mut u64, alphabet: &[u8], len: usize) -> String {
            (0..len)
                .map(|_| char::from(alphabet[below(state, alphabet.len())]))
                .collect()
        }

        const PATH: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789/_-.";
        const QUERY: &[u8] = b"abcxyz0123456789=&?%";
        const VALUE: &[u8] = b"abc XYZ 019 ;,/:=\"-";

        /// A request as sent, and the parse it must produce.
        struct Sent {
            wire: Vec<u8>,
            /// Where the body starts in `wire`.
            head_len: usize,
            method: String,
            path: String,
            query: String,
            keep_alive: bool,
            body: Vec<u8>,
        }

        /// A well-formed request with random method, target, version,
        /// header case, line endings, filler headers and body.
        fn valid_request(state: &mut u64) -> Sent {
            let method = ["GET", "POST", "PUT", "DELETE"][below(state, 4)].to_string();
            let len = below(state, 24);
            let path = format!("/{}", token(state, PATH, len));
            let len = below(state, 16);
            let query = if below(state, 2) == 0 {
                String::new()
            } else {
                token(state, QUERY, len)
            };
            let http11 = below(state, 3) != 0;
            let eol = if below(state, 4) == 0 { "\n" } else { "\r\n" };
            let mut keep_alive = http11;
            let target = if query.is_empty() && below(state, 2) == 0 {
                path.clone()
            } else {
                format!("{path}?{query}")
            };
            let version = if http11 { "HTTP/1.1" } else { "HTTP/1.0" };
            let mut head = format!("{method} {target} {version}{eol}");
            let len = below(state, 48);
            let body: Vec<u8> = (0..len).map(|_| next(state) as u8).collect();
            let mut length_sent = false;
            for _ in 0..below(state, 5) {
                match below(state, 4) {
                    0 => {
                        let len = below(state, 6) + 1;
                        let name = token(state, b"xyzXYZ-", len);
                        let len = below(state, 20);
                        let value = token(state, VALUE, len);
                        let _ = write!(head, "X-{name}:{value}{eol}");
                    }
                    1 => {
                        let (value, alive) = if below(state, 2) == 0 {
                            ("close", false)
                        } else {
                            ("Keep-Alive", true)
                        };
                        keep_alive = alive;
                        let _ = write!(head, "connection: {value}{eol}");
                    }
                    2 if !length_sent => {
                        length_sent = true;
                        let _ = write!(head, "Content-Length:  {} {eol}", body.len());
                    }
                    _ => {
                        let _ = write!(head, "Host: localhost{eol}");
                    }
                }
            }
            let body = if length_sent { body } else { Vec::new() };
            head.push_str(eol);
            let head_len = head.len();
            let mut wire = head.into_bytes();
            wire.extend_from_slice(&body);
            Sent {
                wire,
                head_len,
                method,
                path,
                query,
                keep_alive,
                body,
            }
        }

        /// A `BufRead` that counts the bytes its caller consumed.
        struct Counting<R> {
            inner: R,
            consumed: usize,
        }

        impl<R: BufRead> Read for Counting<R> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let n = self.inner.read(buf)?;
                self.consumed += n;
                Ok(n)
            }
        }

        impl<R: BufRead> BufRead for Counting<R> {
            fn fill_buf(&mut self) -> io::Result<&[u8]> {
                self.inner.fill_buf()
            }
            fn consume(&mut self, amt: usize) {
                self.consumed += amt;
                self.inner.consume(amt);
            }
        }

        /// Parse one request off `reader` and check the bounds every
        /// outcome must respect.
        fn bounded_read<R: BufRead>(
            reader: &mut Counting<R>,
            max_body: usize,
        ) -> Result<HttpRequest, ParseError> {
            let before = reader.consumed;
            let result = read_request(reader, max_body);
            let pulled = reader.consumed - before;
            match &result {
                Ok(request) => {
                    assert!(request.body.len() <= max_body);
                    assert!(pulled <= MAX_HEAD_BYTES + request.body.len());
                    let head = request.method.len() + request.path.len() + request.query.len();
                    assert!(head <= MAX_HEAD_BYTES);
                }
                Err(_) => assert!(pulled <= MAX_HEAD_BYTES + max_body, "pulled {pulled}"),
            }
            result
        }

        fn assert_parsed(result: Result<HttpRequest, ParseError>, sent: &Sent) {
            let request = match result {
                Ok(request) => request,
                Err(e) => panic!("valid request rejected: {e:?}"),
            };
            assert_eq!(request.method, sent.method);
            assert_eq!(request.path, sent.path);
            assert_eq!(request.query, sent.query);
            assert_eq!(request.keep_alive, sent.keep_alive);
            assert_eq!(request.body, sent.body);
        }

        fn counting(bytes: Vec<u8>) -> Counting<io::Cursor<Vec<u8>>> {
            Counting {
                inner: io::Cursor::new(bytes),
                consumed: 0,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Back-to-back valid requests on one keep-alive stream
            /// parse to what was sent, then the stream ends cleanly.
            #[test]
            fn prop_valid_requests_round_trip(seed in any::<u64>(), count in 1usize..4) {
                let mut state = seed;
                let sent: Vec<Sent> = (0..count).map(|_| valid_request(&mut state)).collect();
                let wire: Vec<u8> = sent.iter().flat_map(|s| s.wire.iter().copied()).collect();
                let mut reader = counting(wire);
                for s in &sent {
                    assert_parsed(bounded_read(&mut reader, 64), s);
                }
                prop_assert!(matches!(bounded_read(&mut reader, 64), Err(ParseError::Eof)));
            }

            /// A request cut short is refused — or, when only the
            /// final line break is missing, still the request sent.
            #[test]
            fn prop_truncated_requests_are_refused(seed in any::<u64>(), cut in any::<u64>()) {
                let mut state = seed;
                let sent = valid_request(&mut state);
                let cut = (cut % sent.wire.len() as u64) as usize;
                let mut reader = counting(sent.wire[..cut].to_vec());
                match bounded_read(&mut reader, 64) {
                    Ok(_) if cut == 0 => panic!("an empty stream parsed"),
                    Ok(request) => {
                        prop_assert_eq!(cut, sent.wire.len() - 1);
                        prop_assert_eq!(request.method, sent.method);
                        prop_assert_eq!(request.body, sent.body);
                    }
                    Err(ParseError::Eof) => prop_assert_eq!(cut, 0),
                    Err(ParseError::Malformed(_)) => prop_assert!(cut > 0),
                    Err(e) => panic!("cut {cut}: unexpected {e:?}"),
                }
            }

            /// Byte flips, insertions and deletions anywhere give a
            /// typed error or a bounded request; overwrites confined
            /// to the body give the sent request with that body.
            #[test]
            fn prop_mutated_requests_stay_typed(seed in any::<u64>(), edits in 1usize..5) {
                let mut state = seed;
                let sent = valid_request(&mut state);
                let mut wire = sent.wire.clone();
                for _ in 0..edits {
                    let at = below(&mut state, wire.len() + 1);
                    let byte = [b':', b'\n', b'\r', b' ', b'?', 0, 0xff, next(&mut state) as u8]
                        [below(&mut state, 8)];
                    match below(&mut state, 3) {
                        0 if at < wire.len() => wire[at] = byte,
                        1 if at < wire.len() => {
                            wire.remove(at);
                        }
                        _ => wire.insert(at, byte),
                    }
                }
                let _ = bounded_read(&mut counting(wire), 64);

                if !sent.body.is_empty() {
                    let mut wire = sent.wire.clone();
                    let mut body = sent.body.clone();
                    for _ in 0..edits {
                        let at = below(&mut state, body.len());
                        body[at] = next(&mut state) as u8;
                        wire[sent.head_len + at] = body[at];
                    }
                    let expect = Sent { body, wire: Vec::new(), ..sent };
                    assert_parsed(bounded_read(&mut counting(wire), 64), &expect);
                }
            }

            /// Random bytes, and endless streams behind a random
            /// prefix: the reader stops at its budget with a typed
            /// error, whatever the peer sends.
            #[test]
            fn prop_random_bytes_stay_bounded(
                seed in any::<u64>(),
                len in 0usize..512,
                max_body in 0usize..128,
            ) {
                let mut state = seed;
                let bytes: Vec<u8> = (0..len).map(|_| next(&mut state) as u8).collect();
                let _ = bounded_read(&mut counting(bytes.clone()), max_body);

                let fill = [b'a', b' ', b'\n', b':', 0][below(&mut state, 5)];
                let endless = io::BufReader::new(io::Cursor::new(bytes).chain(io::repeat(fill)));
                let mut reader = Counting { inner: endless, consumed: 0 };
                let _ = bounded_read(&mut reader, max_body);
            }

            /// A declared body past the cap is refused before any of it
            /// is read, and a head past the budget before it is
            /// buffered.
            #[test]
            fn prop_caps_are_enforced(seed in any::<u64>(), over in 1usize..1 << 20) {
                let mut state = seed;
                let max_body = below(&mut state, 64);
                let head = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", max_body + over);
                let mut reader = counting(head.clone().into_bytes());
                prop_assert!(matches!(bounded_read(&mut reader, max_body), Err(ParseError::TooLarge)));
                prop_assert_eq!(reader.consumed, head.len());

                let pad = MAX_HEAD_BYTES + below(&mut state, 64);
                let flood = format!("GET /{} HTTP/1.1\r\n\r\n", "p".repeat(pad));
                let mut reader = counting(flood.into_bytes());
                prop_assert!(matches!(bounded_read(&mut reader, max_body), Err(ParseError::HeadTooLarge)));
            }
        }
    }
}
