//! Structured trace events in a bounded, non-blocking ring buffer.
//!
//! The event log is the "what just happened" complement to the metric
//! registry's "how much / how fast": a fixed-capacity ring of recent
//! structured events (batch formed, model swapped, snapshot published,
//! sample rejected, kernel dispatched), each carrying two `u64`
//! payload words whose meaning depends on the kind. Writers never
//! block and never allocate; when the ring wraps, the oldest events
//! are overwritten.
//!
//! The ring is lock-free without `unsafe`: every slot field is an
//! atomic, and a per-slot version word (seqlock-style: odd while a
//! write is in flight, `2·seq + 2` once event `seq` is complete) lets
//! readers detect and skip slots they raced with. All slot accesses
//! use `SeqCst`, so the version double-check is sound under the single
//! total order — a racing reader can only ever *drop* an event, never
//! observe a torn one. Events are low-rate (per batch at the finest),
//! so the stronger ordering costs nothing measurable.
//!
//! Verbosity follows the repo's env-knob convention via `UHD_LOG`:
//! unset/empty/`"0"` disables tracing, `"2"`/`"trace"` enables
//! everything including per-batch events, any other non-empty value
//! enables the infrequent lifecycle events.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Default number of slots in a [`EventLog`] ring.
pub const DEFAULT_EVENT_CAPACITY: usize = 512;

/// How much the trace ring records, parsed from `UHD_LOG`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Record nothing (the default).
    Off,
    /// Record infrequent lifecycle events (swaps, snapshots,
    /// rejections, kernel dispatch).
    Info,
    /// Additionally record per-batch events.
    Trace,
}

impl TraceLevel {
    /// Parse the `UHD_LOG` environment knob: unset, empty, or `"0"`
    /// mean [`TraceLevel::Off`]; `"2"` or `"trace"` (any case) mean
    /// [`TraceLevel::Trace`]; any other non-empty value means
    /// [`TraceLevel::Info`]. This mirrors the repo-wide boolean-knob
    /// rule (`uhd_bench::env_flag`) with one extra verbosity step.
    #[must_use]
    pub fn from_env() -> Self {
        TraceLevel::parse(std::env::var("UHD_LOG").ok().as_deref())
    }

    /// The `UHD_LOG` parsing rule, separated from the environment read
    /// so it is testable without process-global mutation.
    #[must_use]
    pub fn parse(value: Option<&str>) -> Self {
        match value {
            None => TraceLevel::Off,
            Some(v) => match v.trim().to_ascii_lowercase().as_str() {
                "" | "0" => TraceLevel::Off,
                "2" | "trace" => TraceLevel::Trace,
                _ => TraceLevel::Info,
            },
        }
    }
}

/// What happened. Payload words `a`/`b` are per-kind:
///
/// | kind                | `a`                      | `b`                         |
/// |---------------------|--------------------------|-----------------------------|
/// | `KernelDispatched`  | kernel ordinal: `scalar` 0, `avx2` 1, `avx512` 2 | shard count |
/// | `BatchFormed`       | shard index              | batch size                  |
/// | `ModelSwapped`      | new generation           | class count                 |
/// | `SnapshotPublished` | new generation           | samples consumed since last |
/// | `SampleRejected`    | offending label          | predicted label (`u64::MAX` = none) |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// The registry resolved its sweep/bundling kernel at startup.
    KernelDispatched,
    /// A caller took a permit and began answering a micro-batch
    /// (Trace level only).
    BatchFormed,
    /// A new model generation was hot-swapped in.
    ModelSwapped,
    /// The online learner published a rebinarized model snapshot.
    SnapshotPublished,
    /// The learner rejected a sample; `a` carries the offending label
    /// so rejections are attributable, not anonymous.
    SampleRejected,
}

impl TraceKind {
    /// Stable wire code for the ring's atomic kind word (nonzero, so a
    /// zero-initialized slot can never decode as a real event).
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            TraceKind::KernelDispatched => 1,
            TraceKind::BatchFormed => 2,
            TraceKind::ModelSwapped => 3,
            TraceKind::SnapshotPublished => 4,
            TraceKind::SampleRejected => 5,
        }
    }

    /// Inverse of [`TraceKind::code`].
    #[must_use]
    pub fn from_code(code: u64) -> Option<Self> {
        match code {
            1 => Some(TraceKind::KernelDispatched),
            2 => Some(TraceKind::BatchFormed),
            3 => Some(TraceKind::ModelSwapped),
            4 => Some(TraceKind::SnapshotPublished),
            5 => Some(TraceKind::SampleRejected),
            _ => None,
        }
    }

    /// The minimum [`TraceLevel`] at which this kind is recorded.
    #[must_use]
    pub fn level(self) -> TraceLevel {
        match self {
            TraceKind::BatchFormed => TraceLevel::Trace,
            _ => TraceLevel::Info,
        }
    }

    /// Human-readable name used by displays and JSON export.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::KernelDispatched => "kernel_dispatched",
            TraceKind::BatchFormed => "batch_formed",
            TraceKind::ModelSwapped => "model_swapped",
            TraceKind::SnapshotPublished => "snapshot_published",
            TraceKind::SampleRejected => "sample_rejected",
        }
    }
}

/// One decoded trace event read back from the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global sequence number (monotone across the whole log's life;
    /// gaps mean events were overwritten or raced).
    pub seq: u64,
    /// Microseconds since the log's epoch (recorder creation).
    pub at_micros: u64,
    /// What happened.
    pub kind: TraceKind,
    /// First payload word (see [`TraceKind`] for per-kind meaning).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

/// One ring slot: all fields atomic so the whole structure is safe
/// without `unsafe`, with `ver` as the seqlock word.
#[derive(Debug)]
struct Slot {
    ver: AtomicU64,
    at: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            ver: AtomicU64::new(0),
            at: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

/// A bounded lock-free ring buffer of [`TraceEvent`]s.
#[derive(Debug)]
pub struct EventLog {
    level: TraceLevel,
    epoch: Instant,
    head: AtomicU64,
    slots: Vec<Slot>,
}

impl EventLog {
    /// A ring of `capacity` slots recording events at or below
    /// `level`. A zero capacity is promoted to 1.
    #[must_use]
    pub fn new(level: TraceLevel, capacity: usize) -> Self {
        EventLog {
            level,
            epoch: Instant::now(),
            head: AtomicU64::new(0),
            slots: (0..capacity.max(1)).map(|_| Slot::new()).collect(),
        }
    }

    /// The configured verbosity.
    #[must_use]
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Total events accepted so far (including ones since overwritten).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::SeqCst)
    }

    /// Record an event if `kind` is enabled at the configured level.
    /// Never blocks; wraps over the oldest event when full.
    pub fn push(&self, kind: TraceKind, a: u64, b: u64) {
        if kind.level() > self.level {
            return;
        }
        let at = u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
        let seq = self.head.fetch_add(1, Ordering::SeqCst);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        // Seqlock write: mark in-flight (odd), store payload, mark
        // complete (even, unique per seq). All SeqCst — see module docs.
        slot.ver.store(2 * seq + 1, Ordering::SeqCst);
        slot.at.store(at, Ordering::SeqCst);
        slot.kind.store(kind.code(), Ordering::SeqCst);
        slot.a.store(a, Ordering::SeqCst);
        slot.b.store(b, Ordering::SeqCst);
        slot.ver.store(2 * seq + 2, Ordering::SeqCst);
    }

    /// Decode the events currently resident in the ring, oldest first.
    /// Slots mid-write (or overwritten while reading) are skipped, so
    /// a reader racing writers gets a consistent — possibly partial —
    /// view, never a torn event.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        let head = self.head.load(Ordering::SeqCst);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - start) as usize);
        for seq in start..head {
            let slot = &self.slots[(seq % cap) as usize];
            let complete = 2 * seq + 2;
            if slot.ver.load(Ordering::SeqCst) != complete {
                continue;
            }
            let at = slot.at.load(Ordering::SeqCst);
            let kind = slot.kind.load(Ordering::SeqCst);
            let a = slot.a.load(Ordering::SeqCst);
            let b = slot.b.load(Ordering::SeqCst);
            if slot.ver.load(Ordering::SeqCst) != complete {
                continue;
            }
            if let Some(kind) = TraceKind::from_code(kind) {
                out.push(TraceEvent {
                    seq,
                    at_micros: at,
                    kind,
                    a,
                    b,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_gates_recording() {
        let log = EventLog::new(TraceLevel::Info, 8);
        log.push(TraceKind::ModelSwapped, 1, 10);
        log.push(TraceKind::BatchFormed, 0, 16); // Trace-only: dropped
        let events = log.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, TraceKind::ModelSwapped);
        assert_eq!((events[0].a, events[0].b), (1, 10));

        let off = EventLog::new(TraceLevel::Off, 8);
        off.push(TraceKind::ModelSwapped, 1, 10);
        assert!(off.events().is_empty());
        assert_eq!(off.recorded(), 0);
    }

    #[test]
    fn ring_wraps_keeping_the_newest() {
        let log = EventLog::new(TraceLevel::Trace, 4);
        for i in 0..10u64 {
            log.push(TraceKind::BatchFormed, i, i * 2);
        }
        let events = log.events();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events.iter().map(|e| e.a).collect::<Vec<_>>(),
            vec![6, 7, 8, 9],
            "only the newest capacity-many survive, oldest first"
        );
        assert_eq!(log.recorded(), 10);
        for w in events.windows(2) {
            assert!(w[0].seq < w[1].seq);
            assert!(w[0].at_micros <= w[1].at_micros);
        }
    }

    #[test]
    fn concurrent_pushes_never_tear() {
        let log = EventLog::new(TraceLevel::Trace, 64);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let log = &log;
                scope.spawn(move || {
                    for i in 0..2_000u64 {
                        // Payload invariant b == a + 1 lets the reader
                        // detect torn events.
                        let a = t * 1_000_000 + i;
                        log.push(TraceKind::BatchFormed, a, a + 1);
                    }
                });
            }
            for _ in 0..50 {
                for e in log.events() {
                    assert_eq!(e.b, e.a + 1, "torn event observed");
                }
            }
        });
        assert_eq!(log.recorded(), 8_000);
        let settled = log.events();
        assert_eq!(settled.len(), 64, "ring is full after the storm");
        for e in settled {
            assert_eq!(e.b, e.a + 1);
        }
    }

    #[test]
    fn kind_codes_round_trip() {
        for kind in [
            TraceKind::KernelDispatched,
            TraceKind::BatchFormed,
            TraceKind::ModelSwapped,
            TraceKind::SnapshotPublished,
            TraceKind::SampleRejected,
        ] {
            assert_eq!(TraceKind::from_code(kind.code()), Some(kind));
            assert!(!kind.name().is_empty());
        }
        assert_eq!(
            TraceKind::from_code(0),
            None,
            "empty slots decode to nothing"
        );
        assert_eq!(TraceKind::from_code(99), None);
    }

    #[test]
    fn trace_level_parsing_follows_the_env_knob_rule() {
        assert_eq!(TraceLevel::parse(None), TraceLevel::Off);
        assert_eq!(TraceLevel::parse(Some("")), TraceLevel::Off);
        assert_eq!(TraceLevel::parse(Some("0")), TraceLevel::Off);
        assert_eq!(TraceLevel::parse(Some("1")), TraceLevel::Info);
        assert_eq!(TraceLevel::parse(Some("info")), TraceLevel::Info);
        assert_eq!(TraceLevel::parse(Some("yes")), TraceLevel::Info);
        assert_eq!(TraceLevel::parse(Some("2")), TraceLevel::Trace);
        assert_eq!(TraceLevel::parse(Some("trace")), TraceLevel::Trace);
        assert_eq!(TraceLevel::parse(Some("TRACE")), TraceLevel::Trace);
        assert!(TraceLevel::Off < TraceLevel::Info && TraceLevel::Info < TraceLevel::Trace);
    }
}
