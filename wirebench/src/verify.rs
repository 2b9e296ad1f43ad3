//! Correctness of every run: each classify answer on the wire must
//! equal the serial `HdcModel::classify_with(.., BinarizedQuery)` path
//! (`Encoder::encode` then `classify_encoded`) on the registered model,
//! and each tenant that learned must serve exactly the model a serial
//! `OnlineLearner::from_model(base)` replay of its acknowledged learns
//! gives, compared as snapshot files.

use crate::fleet::{Tenant, SNAPSHOT_EVERY};
use crate::trace::Replay;
use crate::wire::{Op, Record};
use crate::Result;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::Path;
use uhd_core::online::DEFAULT_MAX_CLASSES;
use uhd_core::{BitSliceAccumulator, Hypervector, OnlineLearner};

/// What one phase's check found.
#[derive(Debug, Default, Clone, Copy)]
pub struct Check {
    /// Answers (or snapshots) that differ from the serial reference.
    pub wrong: usize,
    /// Classify answers checked against their labels.
    pub classified: usize,
    /// Classify answers equal to their label.
    pub labelled_right: usize,
}

/// Check one phase. `snapshots[t]` is the file the server saved for
/// tenant `t` after publishing, when that tenant learned.
pub fn phase(
    fleet: &[Tenant],
    records: &[Record],
    snapshots: &[Option<std::path::PathBuf>],
    out: &Path,
    replay: &mut Replay,
) -> Result<Check> {
    let mut check = Check::default();
    for (t, tenant) in fleet.iter().enumerate() {
        let encoder = tenant.served.encoder();
        let mine = |op| {
            records
                .iter()
                .filter(move |r| r.tenant as usize == t && r.op == op && r.ok())
        };
        // A phase either classifies or learns, so every classify answer
        // comes from the registered model, generation 0.
        let mut queries: HashMap<u32, Hypervector> = HashMap::new();
        for r in mine(Op::Classify) {
            check.classified += 1;
            if r.class as usize == tenant.test_labels[r.input as usize] {
                check.labelled_right += 1;
            }
            if let Entry::Vacant(slot) = queries.entry(r.input) {
                slot.insert(encoder.encode(&tenant.test[r.input as usize])?);
            }
            let (class, score) = tenant.model.classify_encoded(&queries[&r.input])?;
            if r.generation != 0
                || class != r.class as usize
                || score.to_bits() != r.score.to_bits()
            {
                check.wrong += 1;
            }
        }

        // Learns from two connections apply in an unknown order; only
        // their final sums, which are order-independent, are checked.
        let mut learner =
            OnlineLearner::from_model(&tenant.model).with_max_classes(DEFAULT_MAX_CLASSES);
        let mut sums: HashMap<u32, Vec<i64>> = HashMap::new();
        let mut acc = BitSliceAccumulator::new(encoder.dim());
        for (k, r) in mine(Op::Learn).enumerate() {
            if let Entry::Vacant(slot) = sums.entry(r.input) {
                acc.clear();
                encoder.accumulate(&tenant.learn[r.input as usize], &mut acc)?;
                slot.insert(replay.time("accumulator.bipolar_sums", || acc.bipolar_sums()));
            }
            let label = tenant.learn_labels[r.input as usize];
            replay.time("online.observe_sums", || {
                learner.observe_sums(&sums[&r.input], label)
            })?;
            // The server rebinarizes at the same cadence.
            if (k + 1) % SNAPSHOT_EVERY == 0 {
                replay.time("online.snapshot", || learner.snapshot())?;
            }
        }

        if let Some(served) = &snapshots[t] {
            let replayed = out.join(format!("replay-{}.snapshot", tenant.name));
            uhd_core::snapshot::save_atomic(&learner.snapshot()?, &replayed)?;
            if std::fs::read(served)? != std::fs::read(&replayed)? {
                check.wrong += 1;
            }
            std::fs::remove_file(served)?;
            std::fs::remove_file(&replayed)?;
        }
    }
    Ok(check)
}
