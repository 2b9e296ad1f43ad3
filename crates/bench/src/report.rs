//! Shared reporting plumbing for the bench binaries: environment-flag
//! parsing, machine/kernel provenance, latency percentiles, the
//! repeated-pass rule with its median/IQR summary, and the
//! `BENCH_*.json` perf-trajectory files (repository root for full runs,
//! `target/bench-quick/` for quick ones).

use std::path::PathBuf;
use std::time::Duration;
use uhd_core::kernels::Kernel;

/// Read a boolean `UHD_*` environment knob.
///
/// The rule, applied uniformly across every knob: the flag is ON only
/// when the variable is set to a non-empty value other than `"0"`.
/// `"0"`, the empty string, and unset all mean OFF — so
/// `UHD_BENCH_QUICK=0 cargo run …` really does run the full protocol.
/// (Valued knobs like `UHD_KERNEL` or `UHD_TRAIN_N` parse their value
/// instead; this helper is only for on/off switches.)
#[must_use]
pub fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| !v.is_empty() && v != "0")
}

/// The JSON object describing the machine and kernel a bench ran on.
///
/// Every `BENCH_*.json` carries this under the `"machine"` key so a
/// perf trajectory is attributable: numbers from an AVX-512 box and a
/// scalar-fallback box are different experiments, not noise.
#[must_use]
pub fn machine_json() -> String {
    let kernels: Vec<String> = Kernel::available()
        .iter()
        .map(|k| format!("\"{}\"", k.name()))
        .collect();
    format!(
        "{{\"arch\": \"{arch}\", \"os\": \"{os}\", \"hw_threads\": {threads}, \
         \"kernel\": \"{kernel}\", \"kernels_available\": [{kernels}]}}",
        arch = std::env::consts::ARCH,
        os = std::env::consts::OS,
        threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        kernel = Kernel::active().name(),
        kernels = kernels.join(", "),
    )
}

/// Per-request latency samples with percentile readout.
///
/// Backed by the same lock-free log-linear [`uhd_obs::Histogram`] the
/// serving registry reports its live quantiles from, so `BENCH_*.json`
/// p50/p99 and `StatsSnapshot::p50_us` come from one quantile
/// implementation. Percentiles carry the histogram's bounded relative
/// error ([`uhd_obs::RELATIVE_ERROR`], ≈ 3.1 %) instead of the old
/// sort-the-samples exactness — a trade made on purpose: the registry
/// cannot afford to retain every sample, and the bench should measure
/// what the registry ships.
#[derive(Debug, Default)]
pub struct Latencies {
    histogram: uhd_obs::Histogram,
}

impl Latencies {
    /// An empty sample set. (`n` is accepted for API compatibility;
    /// the histogram's footprint is fixed.)
    #[must_use]
    pub fn with_capacity(_n: usize) -> Self {
        Latencies::default()
    }

    /// Record one request's wall-clock duration.
    pub fn record(&mut self, elapsed: Duration) {
        self.histogram.record_duration(elapsed);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.histogram.snapshot().count() as usize
    }

    /// Whether no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `p`-th percentile (0–100) in microseconds, by the
    /// nearest-rank method over the histogram buckets; 0.0 when empty.
    #[must_use]
    pub fn percentile(&self, p: f64) -> f64 {
        let snap = self.histogram.snapshot();
        if snap.count() == 0 {
            return 0.0;
        }
        snap.quantile(p / 100.0) as f64 / 1e3
    }

    /// `{"p50_us": …, "p99_us": …, "samples": …}` for the report.
    #[must_use]
    pub fn json(&self) -> String {
        format!(
            "{{\"p50_us\": {:.1}, \"p99_us\": {:.1}, \"samples\": {}}}",
            self.percentile(50.0),
            self.percentile(99.0),
            self.len()
        )
    }
}

/// Minimum time a repeated-pass measurement runs for in a full run.
pub const PASS_SPAN: Duration = Duration::from_millis(200);

/// Minimum passes of a repeated-pass measurement in a full run.
pub const MIN_PASSES: usize = 7;

/// The median of `values` (the mean of the middle two for an even
/// count).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        f64::midpoint(sorted[mid - 1], sorted[mid])
    } else {
        sorted[mid]
    }
}

/// The interquartile range of `values`, each quartile interpolated
/// linearly between the closest ranks.
#[must_use]
pub fn iqr(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quantile = |q: f64| {
        let rank = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
    };
    quantile(0.75) - quantile(0.25)
}

/// The repository root, resolved from this crate's manifest directory
/// (`crates/bench` → two levels up). Bench binaries always run from
/// the workspace via cargo, so the manifest path is authoritative
/// regardless of the process's working directory.
#[must_use]
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}

/// Where the `BENCH_*.json` files live: the repository root for full
/// runs, `target/bench-quick/` under `UHD_BENCH_QUICK`, so smoke and CI
/// runs never overwrite the committed trajectory.
#[must_use]
pub fn bench_dir() -> PathBuf {
    if env_flag("UHD_BENCH_QUICK") {
        repo_root().join("target").join("bench-quick")
    } else {
        repo_root()
    }
}

/// Write a `BENCH_*.json` perf-trajectory file into [`bench_dir`] and
/// note the destination on stderr (stdout carries the JSON document
/// itself).
///
/// # Panics
///
/// Panics when the file cannot be written — in a bench binary a
/// missing trajectory is a failed run, not a warning.
pub fn write_bench_json(file_name: &str, contents: &str) {
    let dir = bench_dir();
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
    let path = dir.join(file_name);
    std::fs::write(&path, contents).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_flag_follows_the_knob_rule() {
        // Process-global env: use a name no other test touches.
        let name = "UHD_TEST_FLAG_KNOB_RULE";
        std::env::remove_var(name);
        assert!(!env_flag(name), "unset is off");
        std::env::set_var(name, "0");
        assert!(!env_flag(name), "\"0\" is off");
        std::env::set_var(name, "");
        assert!(!env_flag(name), "empty is off");
        std::env::set_var(name, "1");
        assert!(env_flag(name), "\"1\" is on");
        std::env::set_var(name, "yes");
        assert!(env_flag(name), "any other value is on");
        std::env::remove_var(name);
    }

    #[test]
    fn machine_json_parses_and_names_the_active_kernel() {
        let parsed = crate::json::parse(&machine_json()).unwrap();
        assert_eq!(
            parsed.get("kernel").and_then(crate::json::Json::as_str),
            Some(Kernel::active().name())
        );
        assert!(parsed.get("hw_threads").unwrap().as_f64().unwrap() >= 1.0);
        let avail = parsed.get("kernels_available").unwrap().as_arr().unwrap();
        assert!(avail
            .iter()
            .any(|k| k.as_str() == Some(Kernel::scalar().name())));
    }

    #[test]
    fn percentiles_use_nearest_rank_within_the_histogram_bound() {
        let mut lat = Latencies::with_capacity(4);
        assert_eq!(lat.percentile(50.0), 0.0);
        for us in [100.0, 200.0, 300.0, 400.0] {
            lat.record(Duration::from_secs_f64(us / 1e6));
        }
        // The log-linear buckets bound the relative error; exactness
        // was traded for the registry's lock-free histogram on purpose.
        for (p, exact) in [(50.0, 200.0), (99.0, 400.0), (0.0, 100.0)] {
            let got = lat.percentile(p);
            assert!(
                (got - exact).abs() <= exact * uhd_obs::RELATIVE_ERROR,
                "p{p}: got {got} vs exact {exact}"
            );
        }
        let parsed = crate::json::parse(&lat.json()).unwrap();
        assert_eq!(parsed.get("samples").unwrap().as_f64(), Some(4.0));
    }

    #[test]
    fn repo_root_contains_the_workspace_manifest() {
        assert!(repo_root().join("Cargo.toml").exists());
    }
}
