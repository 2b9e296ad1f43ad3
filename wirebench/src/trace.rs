//! Outside-in tracing: a benchmark-owned encoder wrapper that times the
//! registry's calls into the encoder and accumulator, in-memory spans,
//! and the replay timings of the layers the wire cannot see.

use crate::fleet::{Served, Tenant};
use crate::wire::{Op, Record, Requests};
use crate::Result;
use std::collections::HashMap;
use std::fs::File;
use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use uhd_core::{BitSliceAccumulator, Encoder, EncoderProfile, HdcError, Hypervector};

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds on the benchmark clock, shared by every span and record.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A cheap 64-bit digest of a request body.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h = bytes.len() as u64;
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = (h ^ u64::from_le_bytes(word)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    h
}

/// One traced `encode_into`: accumulate from `start` to `mid`,
/// binarize from `mid` to `end`.
#[derive(Debug, Clone, Copy)]
pub struct EncodeSpan {
    /// Tenant index.
    pub tenant: u16,
    /// [`fingerprint`] of the input.
    pub key: u64,
    /// Clear + accumulate start.
    pub start: u64,
    /// Accumulate end, binarize start.
    pub mid: u64,
    /// Binarize end.
    pub end: u64,
    /// Masks bundled (`acc.total()`).
    pub masks: u64,
}

/// Collects encode spans from the registry's worker threads.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Mutex<Vec<EncodeSpan>>,
}

impl Tracer {
    /// Take every span recorded so far.
    pub fn drain(&self) -> Vec<EncodeSpan> {
        std::mem::take(&mut *self.spans.lock().expect("tracer lock poisoned"))
    }
}

/// Registered as a tenant's encoder in traced runs. It delegates to the
/// real encoder and overrides `encode_into` as clear → timed
/// `accumulate` → timed `binarize`, which is exactly the trait's
/// default body, so answers stay bit-identical.
pub struct TracedEncoder {
    tenant: u16,
    inner: Arc<dyn Encoder>,
    tracer: Arc<Tracer>,
}

impl TracedEncoder {
    /// Wrap tenant `tenant`'s encoder.
    pub fn new(tenant: usize, inner: Arc<dyn Encoder>, tracer: Arc<Tracer>) -> Self {
        TracedEncoder {
            tenant: tenant as u16,
            inner,
            tracer,
        }
    }
}

impl Encoder for TracedEncoder {
    fn dim(&self) -> u32 {
        self.inner.dim()
    }

    fn features(&self) -> usize {
        self.inner.features()
    }

    fn check_features(&self, input: &[u8]) -> std::result::Result<(), HdcError> {
        self.inner.check_features(input)
    }

    fn accumulate(
        &self,
        input: &[u8],
        acc: &mut BitSliceAccumulator,
    ) -> std::result::Result<(), HdcError> {
        self.inner.accumulate(input, acc)
    }

    fn encode_into(
        &self,
        input: &[u8],
        acc: &mut BitSliceAccumulator,
    ) -> std::result::Result<Hypervector, HdcError> {
        let start = now_ns();
        acc.clear();
        self.inner.accumulate(input, acc)?;
        let mid = now_ns();
        let query = acc.binarize();
        let end = now_ns();
        let span = EncodeSpan {
            tenant: self.tenant,
            key: fingerprint(input),
            start,
            mid,
            end,
            masks: acc.total(),
        };
        self.tracer
            .spans
            .lock()
            .expect("tracer lock poisoned")
            .push(span);
        Ok(query)
    }

    fn profile(&self) -> EncoderProfile {
        self.inner.profile()
    }
}

/// Timings of layer calls replayed serially after the run.
#[derive(Debug, Default)]
pub struct Replay {
    /// `(layer, start, end)` of every replayed call.
    pub spans: Vec<(&'static str, u64, u64)>,
}

impl Replay {
    /// Run `f`, recording its duration under `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = now_ns();
        let out = f();
        self.spans.push((layer, start, now_ns()));
        out
    }

    /// Durations recorded under `layer`, nanoseconds.
    pub fn durations(&self, layer: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|(l, _, _)| *l == layer)
            .map(|(_, s, e)| e - s)
            .collect()
    }

    /// Fetch every row of every item memory of `encoders`, in whole
    /// passes until at least 50 ms have passed, each pass recorded under
    /// `layer`; returns ns per row and the rows fetched.
    pub fn item_memory_rows(
        &mut self,
        encoders: &[Served],
        layer: &'static str,
    ) -> Result<(f64, u64)> {
        let mut rows = 0u64;
        let mut scratch = Vec::new();
        let start = now_ns();
        while rows == 0 || now_ns() - start < 50_000_000 {
            let pass = now_ns();
            for encoder in encoders {
                for memory in encoder.memories() {
                    for row in 0..memory.rows() {
                        black_box(memory.row(row, &mut scratch)?);
                    }
                    rows += u64::from(memory.rows());
                }
            }
            self.spans.push((layer, pass, now_ns()));
        }
        Ok(((now_ns() - start) as f64 / rows as f64, rows))
    }

    /// Time `AssociativeMemory::nearest_with` on the encoded test
    /// inputs of every tenant's registered model.
    pub fn nearest(&mut self, fleet: &[Tenant]) -> Result<()> {
        let mut dists = Vec::new();
        for tenant in fleet {
            let memory = tenant.model.associative_memory();
            let encoder = tenant.served.encoder();
            for input in &tenant.test {
                let query = encoder.encode(input)?;
                self.time("assoc.nearest", || {
                    black_box(memory.nearest_with(black_box(&query), &mut dists))
                })?;
            }
        }
        Ok(())
    }
}

/// Write the traced run's spans as JSON lines: one wire span per
/// request of the traced closed loop, each encode span under the wire
/// request that carried its input, and the replays under one root.
pub fn write_spans(
    path: &Path,
    fleet: &[Tenant],
    requests: &Requests,
    wire: &[Record],
    encodes: &[EncodeSpan],
    replay: &Replay,
) -> Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    let mut id = 0u64;
    // (sent, done, span id) of the wire spans by (tenant, input digest),
    // to find each encode's parent.
    type Carriers = HashMap<(u16, u64), Vec<(u64, u64, u64)>>;
    let mut carriers = Carriers::new();
    for r in wire {
        id += 1;
        let name = match r.op {
            Op::Classify => "wire.classify",
            Op::Learn => "wire.learn",
        };
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{name}\",\"start_ns\":{},\"end_ns\":{},\"parent\":null,\"tenant\":\"{}\",\"conn\":{},\"status\":{}}}",
            r.sent, r.done, fleet[r.tenant as usize].name, r.conn, r.status
        )?;
        if r.op == Op::Classify {
            let key = requests.keys[r.tenant as usize][r.input as usize];
            carriers
                .entry((r.tenant, key))
                .or_default()
                .push((r.sent, r.done, id));
        }
    }
    for e in encodes {
        let parent = carriers
            .get(&(e.tenant, e.key))
            .and_then(|c| c.iter().find(|(s, d, _)| *s <= e.start && e.end <= *d))
            .map_or_else(|| "null".to_string(), |(_, _, p)| p.to_string());
        id += 1;
        let encode = id;
        writeln!(
            out,
            "{{\"id\":{encode},\"name\":\"encoder.encode_into\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"masks\":{}}}",
            e.start, e.end, e.masks
        )?;
        for (name, start, end) in [
            ("encoder.accumulate", e.start, e.mid),
            ("accumulator.binarize", e.mid, e.end),
        ] {
            id += 1;
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{name}\",\"start_ns\":{start},\"end_ns\":{end},\"parent\":{encode}}}"
            )?;
        }
    }
    if let (Some(first), Some(last)) = (replay.spans.first(), replay.spans.last()) {
        id += 1;
        let root = id;
        writeln!(
            out,
            "{{\"id\":{root},\"name\":\"replay\",\"start_ns\":{},\"end_ns\":{},\"parent\":null}}",
            first.1, last.2
        )?;
        for (name, start, end) in &replay.spans {
            id += 1;
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{name}\",\"start_ns\":{start},\"end_ns\":{end},\"parent\":{root}}}"
            )?;
        }
    }
    out.flush()?;
    Ok(())
}
