//! Disk persistence for trained models.
//!
//! The on-disk format is exactly [`HdcModel::to_bytes`]: a 16-byte
//! header (`b"UHDM"`, format version, dimension, class count, all
//! little-endian `u32`s) followed by the packed class hypervector words
//! and the integer class sums as little-endian `u64`/`i64`. [`load`]
//! reads the file and decodes it with [`HdcModel::from_bytes`], which
//! accepts exactly one encoding per model.
//!
//! Writes are **atomic at the filesystem level**: [`save_atomic`]
//! writes to a temporary sibling file, syncs it, and renames it over
//! the destination. A reader (or a crash) can observe the old snapshot
//! or the new one, never a torn mixture — the property the serving
//! registry relies on when it persists tenants while traffic is live.

use crate::error::HdcError;
use crate::model::HdcModel;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Errors from the disk snapshot layer: either the filesystem failed
/// or the bytes on disk do not decode as a model.
#[derive(Debug)]
pub enum SnapshotError {
    /// An I/O error from the filesystem.
    Io(io::Error),
    /// The file's contents failed [`HdcModel::from_bytes`] validation
    /// (truncated payload, corrupt header, set padding bits, …).
    Malformed(HdcError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O failed: {e}"),
            SnapshotError::Malformed(e) => write!(f, "snapshot is not a valid model: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Malformed(e) => Some(e),
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<HdcError> for SnapshotError {
    fn from(e: HdcError) -> Self {
        SnapshotError::Malformed(e)
    }
}

/// Serialize `model` to `path` atomically: write `path` with a
/// `.tmp-<suffix>` extension, sync the file, then rename it into
/// place. Concurrent readers observe either the previous snapshot or
/// the complete new one — never a partial write.
///
/// # Errors
///
/// Any I/O error from writing, syncing, or renaming. The temporary
/// file is removed on a failed write.
pub fn save_atomic(model: &HdcModel, path: &Path) -> io::Result<()> {
    let bytes = model.to_bytes();
    let tmp = tmp_sibling(path);
    let write = (|| {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
        Ok(())
    })();
    if let Err(e) = write {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    // Best-effort directory sync so the rename itself is durable; a
    // filesystem that cannot fsync a directory still got the atomic
    // visibility guarantee from the rename.
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// `<path>.tmp-<pid>-<seq>`: the pid disambiguates across processes,
/// the per-process atomic sequence across threads (`save_atomic` takes
/// `&HdcModel` and may run concurrently for the same destination), so
/// no two in-flight saves ever share a partial-write file. The rename
/// stays within one directory (same filesystem, so it is atomic).
fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut name = path.file_name().map_or_else(
        || std::ffi::OsString::from("snapshot"),
        std::ffi::OsStr::to_os_string,
    );
    name.push(format!(
        ".tmp-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    path.with_file_name(name)
}

/// Load a model from `path` — the inverse of [`save_atomic`],
/// bit-identical under `to_bytes` round-trips.
///
/// # Errors
///
/// [`SnapshotError::Io`] for filesystem failures,
/// [`SnapshotError::Malformed`] for bytes that do not decode.
pub fn load(path: &Path) -> Result<HdcModel, SnapshotError> {
    Ok(HdcModel::from_bytes(&fs::read(path)?)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::uhd::{UhdConfig, UhdEncoder};
    use crate::model::LabelledSamples;
    use std::sync::Arc;

    fn trained() -> HdcModel {
        let encoder = UhdEncoder::new(UhdConfig::new(192, 6)).unwrap();
        let images = vec![vec![10u8; 6], vec![240u8; 6], vec![20u8; 6], vec![250u8; 6]];
        let labels = vec![0, 1, 0, 1];
        HdcModel::train(&encoder, LabelledSamples::new(&images, &labels).unwrap(), 2).unwrap()
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("uhd-snap-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn disk_round_trip_is_bit_identical() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("model.uhdm");
        let model = trained();
        save_atomic(&model, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(model.to_bytes(), back.to_bytes());
        // Overwrite in place: the rename replaces the old snapshot.
        save_atomic(&back, &path).unwrap();
        assert_eq!(load(&path).unwrap().to_bytes(), model.to_bytes());
        // No temporary litter left behind.
        let stray: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(std::result::Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(stray.is_empty(), "temp files must not survive: {stray:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_saves_to_one_path_never_tear() {
        // save_atomic takes &HdcModel and may run from many threads
        // against the same destination; every racer gets a distinct
        // temp file, so the survivor on disk is always one complete
        // snapshot, never an interleaving of two writers.
        let dir = tmp_dir("concurrent");
        let path = dir.join("model.uhdm");
        let a = Arc::new(trained());
        let b = {
            let encoder = UhdEncoder::new(UhdConfig::new(192, 6)).unwrap();
            let images = vec![vec![200u8; 6], vec![5u8; 6], vec![210u8; 6], vec![15u8; 6]];
            let labels = vec![0, 1, 0, 1];
            Arc::new(
                HdcModel::train(&encoder, LabelledSamples::new(&images, &labels).unwrap(), 2)
                    .unwrap(),
            )
        };
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let model = if i % 2 == 0 {
                    Arc::clone(&a)
                } else {
                    Arc::clone(&b)
                };
                let path = path.clone();
                std::thread::spawn(move || {
                    for _ in 0..16 {
                        save_atomic(&model, &path).unwrap();
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let survivor = load(&path).unwrap().to_bytes();
        assert!(
            survivor == a.to_bytes() || survivor == b.to_bytes(),
            "on-disk snapshot is a torn mixture"
        );
        let stray: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(std::result::Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(stray.is_empty(), "temp files must not survive: {stray:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn adversarial_files_are_rejected() {
        let dir = tmp_dir("adversarial");
        let model = trained();
        let good = model.to_bytes();

        // Truncated payload.
        let path = dir.join("truncated.uhdm");
        fs::write(&path, &good[..good.len() - 5]).unwrap();
        assert!(matches!(load(&path), Err(SnapshotError::Malformed(_))));

        // Trailing garbage.
        let path = dir.join("trailing.uhdm");
        let mut bytes = good.clone();
        bytes.extend_from_slice(b"junk!");
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(load(&path), Err(SnapshotError::Malformed(_))));

        // Bit-flipped header magic.
        let path = dir.join("bitflip.uhdm");
        let mut bytes = good.clone();
        bytes[0] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(load(&path), Err(SnapshotError::Malformed(_))));

        // Header claiming a huge class count over an honest payload.
        let path = dir.join("classbomb.uhdm");
        let mut bytes = good;
        bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(load(&path), Err(SnapshotError::Malformed(_))));

        // Missing file.
        assert!(matches!(
            load(&dir.join("absent.uhdm")),
            Err(SnapshotError::Io(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_error_displays_and_sources() {
        let io = SnapshotError::from(io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(io.to_string().contains("I/O"));
        let bad = SnapshotError::from(HdcError::ModelUntrained);
        assert!(bad.to_string().contains("not a valid model"));
        use std::error::Error as _;
        assert!(io.source().is_some() && bad.source().is_some());
    }
}
