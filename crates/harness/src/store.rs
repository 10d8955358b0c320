//! Atomic on-disk persistence for flow snapshots.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use limscan_netlist::NetlistError;

use crate::fail::{self, IoFailure};
use crate::snapshot::{FlowSnapshot, SnapshotError};

/// Writes snapshots into a directory with temp-file-plus-rename atomicity:
/// a reader (or a resume after a crash) either sees the complete previous
/// snapshot or the complete new one, never a torn file. Failed writes clean
/// up their temp file and surface as [`SnapshotError::Io`] with the path.
///
/// Every save also fsyncs the temp file before the rename and the parent
/// directory after it, so a snapshot that `save` reported as written
/// survives power loss — not just process death.
#[derive(Clone, Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// A store rooted at `dir` (created on first save).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SnapshotStore { dir: dir.into() }
    }

    /// The directory snapshots are written into.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Persist `snapshot` as `<dir>/<name>` atomically and return the final
    /// path.
    ///
    /// The serialized text is first written and fsynced to a dot-prefixed
    /// temp file in the same directory, then renamed over the final name,
    /// then the directory itself is fsynced so the rename is durable; any
    /// failure before the rename removes the temp file, so no partial
    /// snapshot ever exists at either path.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] carrying the path of the failed operation.
    pub fn save(&self, snapshot: &FlowSnapshot, name: &str) -> Result<PathBuf, SnapshotError> {
        self.save_bytes(name, snapshot.to_text().as_bytes())
    }

    /// Persist arbitrary `text` as `<dir>/<name>` with the same
    /// atomicity and durability guarantees as [`SnapshotStore::save`].
    ///
    /// This is the persistence primitive for non-snapshot job state (job
    /// metadata, final results) that must survive crashes alongside the
    /// snapshots themselves.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] carrying the path of the failed operation.
    pub fn save_text(&self, name: &str, text: &str) -> Result<PathBuf, SnapshotError> {
        self.save_bytes(name, text.as_bytes())
    }

    fn save_bytes(&self, name: &str, bytes: &[u8]) -> Result<PathBuf, SnapshotError> {
        let io_err = |path: &Path, e: &io::Error| SnapshotError::Io(NetlistError::io(path, e));
        fs::create_dir_all(&self.dir).map_err(|e| io_err(&self.dir, &e))?;
        let final_path = self.dir.join(name);
        let tmp_path = self.dir.join(format!(".{name}.tmp"));

        let write_result = write_temp(&tmp_path, bytes);
        if let Err(e) = write_result {
            let _ = fs::remove_file(&tmp_path);
            return Err(io_err(&tmp_path, &e));
        }
        if let Err(e) = fs::rename(&tmp_path, &final_path) {
            let _ = fs::remove_file(&tmp_path);
            return Err(io_err(&final_path, &e));
        }
        // The rename reached the directory, but the directory entry itself
        // is not durable until the directory is fsynced. The renamed file
        // is complete and valid either way, so a failure here leaves good
        // state behind — it just must not be reported as a durable save.
        if let Err(e) = sync_dir(&self.dir) {
            return Err(io_err(&self.dir, &e));
        }
        Ok(final_path)
    }

    /// Load and validate a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when the file cannot be read, or any
    /// validation error from [`FlowSnapshot::from_text`].
    pub fn load(path: impl AsRef<Path>) -> Result<FlowSnapshot, SnapshotError> {
        let path = path.as_ref();
        let text =
            fs::read_to_string(path).map_err(|e| SnapshotError::Io(NetlistError::io(path, &e)))?;
        FlowSnapshot::from_text(&text)
    }

    /// Read a text file previously written with [`SnapshotStore::save_text`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when the file cannot be read.
    pub fn read_text(path: impl AsRef<Path>) -> Result<String, SnapshotError> {
        let path = path.as_ref();
        fs::read_to_string(path).map_err(|e| SnapshotError::Io(NetlistError::io(path, &e)))
    }

    /// File names in the store's directory, sorted, excluding in-flight
    /// temp files (dot-prefixed `.tmp`). Empty when the directory does not
    /// exist yet.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when the directory exists but cannot be read.
    pub fn entries(&self) -> Result<Vec<String>, SnapshotError> {
        let mut names = Vec::new();
        let iter = match fs::read_dir(&self.dir) {
            Ok(iter) => iter,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(names),
            Err(e) => return Err(SnapshotError::Io(NetlistError::io(&self.dir, &e))),
        };
        for entry in iter {
            let entry = entry.map_err(|e| SnapshotError::Io(NetlistError::io(&self.dir, &e)))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with('.') && name.ends_with(".tmp") {
                continue;
            }
            names.push(name);
        }
        names.sort();
        Ok(names)
    }
}

/// Fsync `dir` so a rename inside it becomes durable, honoring an armed
/// [`IoFailure::DirSync`] plan.
fn sync_dir(dir: &Path) -> io::Result<()> {
    if fail::dir_sync_failure() {
        return Err(io::Error::other("injected: directory fsync failed"));
    }
    fs::File::open(dir)?.sync_all()
}

/// Write the snapshot bytes to the temp path and fsync them, honoring an
/// armed snapshot I/O fail plan: `Enospc` errors before touching the file,
/// `ShortWrite` leaves half the bytes in the temp file and then errors
/// (the caller's cleanup must remove it).
fn write_temp(tmp_path: &Path, bytes: &[u8]) -> io::Result<()> {
    match fail::snapshot_io_failure() {
        Some(IoFailure::Enospc) => {
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "injected: no space left on device",
            ));
        }
        Some(IoFailure::ShortWrite) => {
            let mut f = fs::File::create(tmp_path)?;
            f.write_all(&bytes[..bytes.len() / 2])?;
            f.sync_all()?;
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "injected: short write",
            ));
        }
        Some(IoFailure::DirSync) | None => {}
    }
    let mut f = fs::File::create(tmp_path)?;
    f.write_all(bytes)?;
    f.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{FlowKind, FlowPhase};
    use limscan_sim::TestSequence;

    fn sample() -> FlowSnapshot {
        FlowSnapshot {
            kind: FlowKind::Generation,
            config_digest: 1,
            scan_chains: 1,
            max_faults: 0,
            omission_passes: 2,
            seed: 7,
            circuit_bench: "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n".to_string(),
            phase: FlowPhase::Compact {
                sequence: TestSequence::new(2),
            },
        }
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("limscan-store-{tag}-{}", std::process::id()))
    }

    #[test]
    fn save_then_load_roundtrips() {
        let dir = scratch_dir("roundtrip");
        let store = SnapshotStore::new(&dir);
        let snap = sample();
        let path = store.save(&snap, "gen.snap").expect("save");
        assert_eq!(path, dir.join("gen.snap"));
        let back = SnapshotStore::load(&path).expect("load");
        assert_eq!(back, snap);
        // No temp file left behind.
        assert!(!dir.join(".gen.snap.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_overwrites_atomically() {
        let dir = scratch_dir("overwrite");
        let store = SnapshotStore::new(&dir);
        let mut snap = sample();
        store.save(&snap, "gen.snap").expect("first save");
        snap.seed = 99;
        store.save(&snap, "gen.snap").expect("second save");
        let back = SnapshotStore::load(dir.join("gen.snap")).expect("load");
        assert_eq!(back.seed, 99);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_missing_file_is_an_io_error() {
        let err = SnapshotStore::load(scratch_dir("missing").join("nope.snap"))
            .expect_err("missing file");
        assert!(matches!(err, SnapshotError::Io(_)));
    }

    #[test]
    fn text_roundtrip_and_listing() {
        let dir = scratch_dir("text");
        let store = SnapshotStore::new(&dir);
        assert_eq!(
            store.entries().expect("empty listing"),
            Vec::<String>::new()
        );
        let path = store
            .save_text("job.meta", "id=1\nstate=queued\n")
            .expect("save");
        assert_eq!(
            SnapshotStore::read_text(&path).expect("read"),
            "id=1\nstate=queued\n"
        );
        store.save(&sample(), "gen.snap").expect("save snap");
        assert_eq!(
            store.entries().expect("listing"),
            vec!["gen.snap", "job.meta"]
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
