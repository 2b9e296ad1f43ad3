//! Sensor-row classification with the key ⊕ level record encoder: the
//! tabular workload through the same serve stack as images and text.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example tabular
//! ```
//!
//! Batch-trains on synthetic multi-channel sensor rows, shows the level
//! chain's similarity preservation, then serves the test stream through
//! a one-tenant `ModelRegistry` and hot-swaps a better model mid-flight
//! via `update_model` — the generation-tagged swap the image pipeline
//! uses, untouched.

use std::sync::Arc;
use uhd::core::encoder::tabular::{TabularConfig, TabularEncoder};
use uhd::core::model::{HdcModel, LabelledSamples};
use uhd::core::similarity::cosine;
use uhd::core::Encoder;
use uhd::datasets::{generate_sensor_rows, SensorSpec};
use uhd::serve::{ModelRegistry, ServeConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dim = 2048u32;
    let (train, test) = generate_sensor_rows(SensorSpec::new(600, 200, 42))?;
    let columns = train.max_sample_len();
    let encoder = TabularEncoder::new(TabularConfig::new(dim, columns))?;
    println!(
        "dataset: {} classes, {} train / {} test rows of {columns} channels",
        train.classes(),
        train.len(),
        test.len()
    );
    println!("encoder: {} (D = {dim})", encoder.profile().name);

    // The level chain keeps nearby magnitudes similar — the property
    // that makes the record encoding noise-tolerant.
    let base = vec![100u8; columns];
    let near = vec![110u8; columns];
    let far = vec![250u8; columns];
    let hb = encoder.encode(&base)?;
    println!(
        "\nlevel-chain locality: cos(base, +10) = {:+.3}, cos(base, +150) = {:+.3}",
        cosine(&hb, &encoder.encode(&near)?)?,
        cosine(&hb, &encoder.encode(&far)?)?
    );

    // Batch training: a weak model from a sliver of data, a strong one
    // from the full split.
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let weak_view = LabelledSamples::new(&train.samples()[..12], &train.labels()[..12])?;
    let full_view = LabelledSamples::new(train.samples(), train.labels())?;
    let te = LabelledSamples::new(test.samples(), test.labels())?;
    let weak = HdcModel::train_parallel(&encoder, weak_view, train.classes(), threads)?;
    let strong = HdcModel::train_parallel(&encoder, full_view, train.classes(), threads)?;
    println!(
        "batch accuracy: weak (12 rows) {:.2}%, strong ({} rows) {:.2}%",
        100.0 * weak.evaluate_parallel(&encoder, te, threads)?,
        train.len(),
        100.0 * strong.evaluate_parallel(&encoder, te, threads)?
    );

    // Serve with the weak model, hot-swap the strong one mid-flight.
    let registry = ModelRegistry::start(ServeConfig::new(2, 16))?;
    registry.register("sensors", Arc::new(encoder), weak)?;
    let accuracy = || {
        let responses = registry.classify_many("sensors", test.samples())?;
        let hits = responses
            .iter()
            .zip(test.labels())
            .filter(|(r, &label)| r.class == label)
            .count();
        Ok::<_, uhd::serve::ServeError>(hits as f64 / test.len() as f64)
    };
    let before = accuracy()?;
    let generation = registry.update_model("sensors", strong)?;
    let after = accuracy()?;
    let stats = registry.stats();
    println!(
        "served: {:.2}% -> hot swap (generation {generation}) -> {:.2}% \
         over {} requests in {} micro-batches",
        100.0 * before,
        100.0 * after,
        stats.completed,
        stats.batches
    );
    assert!(
        after >= before,
        "the strong model must not serve worse than the weak one"
    );
    assert_eq!(stats.completed, 2 * test.len() as u64);
    Ok(())
}
