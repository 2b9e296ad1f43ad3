//! The load generator: HTTP/1.1 keep-alive clients on loopback, in a
//! closed loop (each connection sends its next request when the last
//! one answers) or an open loop (requests sent on a fixed schedule,
//! pipelined on the same connections).

use crate::fleet::Tenant;
use crate::trace::{fingerprint, now_ns};
use crate::Result;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

/// A reply that takes longer than this fails the run instead of
/// hanging it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);
/// Longest response head the client accepts.
const MAX_HEAD: usize = 8 * 1024;

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `POST /v1/{tenant}/classify`.
    Classify,
    /// `POST /v1/{tenant}/learn?label=N`.
    Learn,
}

/// One request as the client saw it. Times are nanoseconds on the
/// benchmark clock ([`now_ns`]).
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Classify or learn.
    pub op: Op,
    /// Connection index.
    pub conn: u8,
    /// Tenant index in the fleet.
    pub tenant: u16,
    /// Input index: into the tenant's test set for classify, its learn
    /// set for learn.
    pub input: u32,
    /// When the request was due (equal to `sent` in a closed loop).
    pub due: u64,
    /// When its first byte was written.
    pub sent: u64,
    /// When its full response had been read.
    pub done: u64,
    /// HTTP status.
    pub status: u16,
    /// Answered class (classify).
    pub class: u32,
    /// Answered score (classify).
    pub score: f64,
    /// Model generation in the answer.
    pub generation: u64,
}

impl Record {
    /// A request written at `sent` (due at `due`), not yet answered.
    fn new(op: Op, conn: usize, tenant: usize, input: usize, due: u64, sent: u64) -> Record {
        Record {
            op,
            conn: conn as u8,
            tenant: tenant as u16,
            input: input as u32,
            due,
            sent,
            done: 0,
            status: 0,
            class: u32::MAX,
            score: f64::NAN,
            generation: u64::MAX,
        }
    }

    /// Wire latency from the scheduled send time, nanoseconds.
    pub fn latency(&self) -> u64 {
        self.done - self.due
    }

    /// Answered 200.
    pub fn ok(&self) -> bool {
        self.status == 200
    }
}

/// Every request the benchmark can send, serialized once up front so
/// the generator only copies bytes onto the socket.
pub struct Requests {
    classify: Vec<Vec<Vec<u8>>>,
    learn: Vec<Vec<Vec<u8>>>,
    /// `fingerprint` of each test input, per tenant: joins encoder
    /// spans to the wire request that caused them.
    pub keys: Vec<Vec<u64>>,
}

impl Requests {
    /// Serialize the classify and learn requests of every tenant.
    pub fn new(fleet: &[Tenant]) -> Requests {
        let classify = fleet
            .iter()
            .map(|t| {
                let path = format!("/v1/{}/classify", t.name);
                t.test.iter().map(|x| request(&path, x)).collect()
            })
            .collect();
        let learn = fleet
            .iter()
            .map(|t| {
                t.learn
                    .iter()
                    .zip(&t.learn_labels)
                    .map(|(x, label)| request(&format!("/v1/{}/learn?label={label}", t.name), x))
                    .collect()
            })
            .collect();
        let keys = fleet
            .iter()
            .map(|t| t.test.iter().map(|x| fingerprint(x)).collect())
            .collect();
        Requests {
            classify,
            learn,
            keys,
        }
    }

    fn get(&self, op: Op, tenant: usize, input: usize) -> &[u8] {
        match op {
            Op::Classify => &self.classify[tenant][input],
            Op::Learn => &self.learn[tenant][input],
        }
    }

    /// Inputs per tenant available to `op`.
    pub fn inputs(&self, op: Op) -> usize {
        match op {
            Op::Classify => self.classify[0].len(),
            Op::Learn => self.learn[0].len(),
        }
    }
}

fn request(path: &str, body: &[u8]) -> Vec<u8> {
    let mut bytes = format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// The request sequence of one connection: tenants round-robin, inputs
/// walked in order from a seeded offset. The fleet orders inputs with
/// labels interleaved, so any run of requests is balanced across classes
/// and `accuracy` does not depend on which inputs a short phase reached.
#[derive(Debug, Clone)]
pub struct Stream {
    op: Op,
    tenants: usize,
    inputs: usize,
    turn: usize,
    offset: usize,
}

impl Stream {
    /// The `conn`-th stream of `op` requests over `tenants` tenants with
    /// `inputs` inputs each.
    pub fn new(op: Op, tenants: usize, inputs: usize, conn: usize, seed: u64) -> Stream {
        let mut rng = seed ^ (conn as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
        Stream {
            op,
            tenants,
            inputs,
            turn: conn,
            offset: (splitmix64(&mut rng) % inputs as u64) as usize,
        }
    }

    fn next(&mut self) -> (usize, usize) {
        let turn = self.turn;
        self.turn += 1;
        (turn % self.tenants, (self.offset + turn) % self.inputs)
    }
}

/// SplitMix64: a small seeded generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    Ok(stream)
}

/// Records one connection may produce in `duration`, generously. Each
/// connection's buffer is reserved once for its whole phase, so its
/// growth never shows in `VmHWM`.
pub fn capacity(duration: Duration) -> usize {
    (duration.as_secs_f64() * 50_000.0) as usize + 1024
}

/// Run one closed loop per stream, each on its own connection and
/// thread, until `duration` has passed. Connection `c` walks
/// `streams[c]` on from where it stopped and appends its requests to
/// `records[c]`.
pub fn closed_loop(
    addr: SocketAddr,
    requests: &Requests,
    streams: &mut [Stream],
    records: &mut [Vec<Record>],
    duration: Duration,
) -> Result<()> {
    let end = now_ns() + duration.as_nanos() as u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .zip(records.iter_mut())
            .enumerate()
            .map(|(conn, (stream, records))| {
                scope.spawn(move || -> Result<()> {
                    let mut writer = connect(addr)?;
                    let mut reader = Replies::new(writer.try_clone()?);
                    while now_ns() < end {
                        let (tenant, input) = stream.next();
                        let sent = now_ns();
                        let mut record = Record::new(stream.op, conn, tenant, input, sent, sent);
                        writer.write_all(requests.get(stream.op, tenant, input))?;
                        reader.next(&mut record)?;
                        records.push(record);
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("closed-loop client thread panicked"))
    })
}

/// Send `rate` requests per second for `duration`, request `k` due at
/// `k / rate` and written to connection `k mod streams`. One thread
/// paces and writes every connection; one reader thread per connection
/// blocks on its replies and appends them to its entry of `records`.
/// Each request is timed from its due time.
pub fn open_loop(
    addr: SocketAddr,
    requests: &Requests,
    streams: &mut [Stream],
    records: &mut [Vec<Record>],
    rate: f64,
    duration: Duration,
) -> Result<()> {
    let total = (rate * duration.as_secs_f64()).round() as u64;
    let mut writers = Vec::with_capacity(streams.len());
    let mut readers = Vec::with_capacity(streams.len());
    for _ in 0..streams.len() {
        let stream = connect(addr)?;
        readers.push(Replies::new(stream.try_clone()?));
        writers.push(stream);
    }
    std::thread::scope(|scope| -> Result<()> {
        let mut queues = Vec::with_capacity(readers.len());
        let mut handles = Vec::with_capacity(readers.len());
        for (mut reader, records) in readers.into_iter().zip(records.iter_mut()) {
            // Written but unanswered requests, in connection order.
            let (tx, rx) = mpsc::channel::<Record>();
            queues.push(tx);
            handles.push(scope.spawn(move || -> Result<()> {
                while let Ok(mut record) = rx.recv() {
                    reader.next(&mut record)?;
                    records.push(record);
                }
                Ok(())
            }));
        }
        let start = now_ns();
        let mut sent_all = Ok(());
        for k in 0..total {
            let due = start + (k as f64 * 1e9 / rate) as u64;
            let now = now_ns();
            if due > now {
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            let conn = (k % streams.len() as u64) as usize;
            let stream = &mut streams[conn];
            let (tenant, input) = stream.next();
            let record = Record::new(stream.op, conn, tenant, input, due, now_ns());
            if queues[conn].send(record).is_err() {
                break; // the reader failed; its error is reported below
            }
            if let Err(e) = writers[conn].write_all(requests.get(stream.op, tenant, input)) {
                sent_all = Err(e);
                break;
            }
        }
        drop(queues);
        let read_all = handles
            .into_iter()
            .try_for_each(|h| h.join().expect("open-loop reader thread panicked"));
        sent_all?;
        read_all
    })
}

/// Buffered reader of keep-alive HTTP/1.1 responses.
struct Replies {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Replies {
    fn new(stream: TcpStream) -> Replies {
        Replies {
            stream,
            buf: vec![0; 16 * 1024],
            start: 0,
            end: 0,
        }
    }

    /// Read the next complete response into `record`: its completion
    /// time, status and answer.
    fn next(&mut self, record: &mut Record) -> io::Result<()> {
        loop {
            if let Some((head, body_len)) = parse_head(&self.buf[self.start..self.end])? {
                let total = head.len + body_len;
                if self.end - self.start >= total {
                    record.done = now_ns();
                    record.status = head.status;
                    if head.status == 200 {
                        parse_body(&self.buf[self.start + head.len..self.start + total], record)?;
                    }
                    self.start += total;
                    return Ok(());
                }
                if total > self.buf.len() {
                    self.buf.resize(total, 0);
                }
            }
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            let n = self.stream.read(&mut self.buf[self.end..])?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                ));
            }
            self.end += n;
        }
    }
}

struct Head {
    len: usize,
    status: u16,
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Parse a response head; `None` until it is complete.
fn parse_head(data: &[u8]) -> io::Result<Option<(Head, usize)>> {
    let Some(end) = data.windows(4).position(|w| w == b"\r\n\r\n") else {
        return if data.len() > MAX_HEAD {
            Err(invalid("response head too long"))
        } else {
            Ok(None)
        };
    };
    let head = std::str::from_utf8(&data[..end]).map_err(|_| invalid("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let mut body_len = 0;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                body_len = value
                    .trim()
                    .parse()
                    .map_err(|_| invalid("bad content-length"))?;
            }
        }
    }
    Ok(Some((
        Head {
            len: end + 4,
            status,
        },
        body_len,
    )))
}

/// Pull `class`, `score` and `generation` out of a 200 answer (a learn
/// answer carries only `generation`).
fn parse_body(body: &[u8], record: &mut Record) -> io::Result<()> {
    let body = std::str::from_utf8(body).map_err(|_| invalid("non-UTF-8 body"))?;
    if let Some(v) = field(body, "\"class\":") {
        record.class = v.parse().map_err(|_| invalid("bad class"))?;
    }
    if let Some(v) = field(body, "\"score\":") {
        record.score = v.parse().map_err(|_| invalid("bad score"))?;
    }
    if let Some(v) = field(body, "\"generation\":") {
        record.generation = v.parse().map_err(|_| invalid("bad generation"))?;
    }
    Ok(())
}

fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let rest = &body[body.find(key)? + key.len()..];
    Some(rest[..rest.find([',', '}'])?].trim())
}
