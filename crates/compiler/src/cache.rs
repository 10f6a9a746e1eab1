//! Content-addressed, serializable schedule cache.
//!
//! The three scheduling passes are deterministic functions of
//! `(program, architecture, policy)`, and at full benchmark scale they
//! take tens of seconds — so their output is worth persisting. This
//! module stores each compile's artifacts (the expanded DFG, the
//! movement plan, the cycle-level schedule, and for the typed-IR path
//! the lowering and optimizer statistics) in a binary file addressed by
//! a fingerprint of the *inputs*:
//!
//! * **Key** — the exact serialized bytes of the compile inputs. The
//!   artifact header stores both an FNV-64 hash of the key (which names
//!   the file) and the full key bytes (compared verbatim on load, so a
//!   hash collision degrades to a miss, never a wrong schedule).
//! * **Integrity** — the header also carries a checksum of the payload;
//!   a bit flip anywhere in the artifact fails the checksum (or the
//!   format checks, or the typed decode) and the entry is ignored.
//! * **Fallback** — *every* load failure ([`CacheError`]) falls back to
//!   a fresh compile; a corrupted cache can cost time, never
//!   correctness. Writes are atomic (temp file + rename), so a crashed
//!   or concurrent writer leaves either the old entry or the new one,
//!   not a torn file.
//! * **Round-trip** — a cache **miss** also returns the artifacts *via*
//!   their serialized bytes, so cached and uncached compiles hand
//!   callers bit-identical values and serialization fidelity is
//!   exercised on every store, not just on the eventual reload.
//!
//! Schedules loaded from the cache should still be re-verified by the
//! `f1-sim` checker (`check_schedule`, or the cheaper stream-level
//! `check_streams`) — the artifact carries everything the checker
//! needs. The cache lives in `$F1_CACHE_DIR` (default
//! `target/f1-cache`).

use crate::cycle::CycleSchedule;
use crate::dsl::Program;
use crate::expand::Expanded;
use crate::ir::{FheProgram, Lowered, NoisePolicy, OptStats};
use crate::movement::MovePlan;
use f1_arch::ArchConfig;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Artifact format version; bump on any layout or semantic change so
/// stale entries from older builds miss instead of mis-decoding.
/// v2: `FheProgram` gained rolled-loop regions (`repeats`), changing
/// both the typed-IR key bytes and the `Lowered` payload layout.
pub const FORMAT_VERSION: u32 = 2;

/// Artifact file magic.
const MAGIC: [u8; 4] = *b"F1SC";

/// Whether a [`compile_cached`]/[`compile_fhe_cached`] call was served
/// from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Artifacts deserialized from an existing cache entry.
    Hit,
    /// Fresh compile; the artifacts were (re)written to the cache.
    Miss,
}

/// Why a cache entry could not be used. Every variant is recoverable:
/// callers fall back to a fresh compile.
#[derive(Debug)]
pub enum CacheError {
    /// Filesystem error (including "no such entry").
    Io(std::io::Error),
    /// Structural mismatch: bad magic, version, length or checksum.
    Format(&'static str),
    /// The stored key bytes differ from the requested key (hash
    /// collision, or a foreign file at the entry's path).
    KeyMismatch,
    /// The payload failed typed deserialization.
    Decode(serde::Error),
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Io(e) => write!(f, "cache io: {e}"),
            CacheError::Format(what) => write!(f, "cache format: {what}"),
            CacheError::KeyMismatch => write!(f, "cache key mismatch"),
            CacheError::Decode(e) => write!(f, "cache decode: {e:?}"),
        }
    }
}

impl std::error::Error for CacheError {}

impl From<std::io::Error> for CacheError {
    fn from(e: std::io::Error) -> Self {
        CacheError::Io(e)
    }
}

/// FNV-1a over a byte slice — the repo's standard fingerprint. Used for
/// the key hash (keys are small).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a folded over 8-byte words — the *payload* checksum (format
/// v2). Payloads run to tens of MB, where byte-at-a-time FNV costs a
/// visible slice of the cache-hit budget; folding words does one
/// multiply per 8 bytes and still flips on any single-bit corruption.
fn checksum64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for &b in chunks.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The cache directory: `$F1_CACHE_DIR`, else `target/f1-cache`.
pub fn cache_dir() -> PathBuf {
    match std::env::var_os("F1_CACHE_DIR") {
        Some(d) if !d.is_empty() => PathBuf::from(d),
        _ => PathBuf::from("target/f1-cache"),
    }
}

/// Path of the entry for a key within [`cache_dir`]. `kind`
/// distinguishes artifact layouts (`"dsl"` vs `"fhe"`).
pub fn entry_path(kind: &str, key_hash: u64) -> PathBuf {
    cache_dir().join(format!("{kind}-{key_hash:016x}.f1c"))
}

/// Writes an artifact atomically: temp file in the same directory, then
/// rename over the final path.
fn store(path: &Path, key: &[u8], payload: &[u8]) -> Result<(), CacheError> {
    let dir = path.parent().ok_or(CacheError::Format("entry path has no parent"))?;
    std::fs::create_dir_all(dir)?;
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&MAGIC)?;
        f.write_all(&FORMAT_VERSION.to_le_bytes())?;
        f.write_all(&fnv64(key).to_le_bytes())?;
        f.write_all(&checksum64(payload).to_le_bytes())?;
        f.write_all(&(key.len() as u64).to_le_bytes())?;
        f.write_all(&(payload.len() as u64).to_le_bytes())?;
        f.write_all(key)?;
        f.write_all(payload)?;
        f.sync_all()?;
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    Ok(())
}

/// Reads an artifact, verifying magic, version, lengths, key bytes and
/// payload checksum. Returns the raw payload.
fn load(path: &Path, key: &[u8]) -> Result<Vec<u8>, CacheError> {
    let mut f = std::fs::File::open(path)?;
    let mut header = [0u8; 4 + 4 + 8 + 8 + 8 + 8];
    f.read_exact(&mut header).map_err(|_| CacheError::Format("truncated header"))?;
    if header[..4] != MAGIC {
        return Err(CacheError::Format("bad magic"));
    }
    let word = |o: usize| u64::from_le_bytes(header[o..o + 8].try_into().unwrap());
    if u32::from_le_bytes(header[4..8].try_into().unwrap()) != FORMAT_VERSION {
        return Err(CacheError::Format("format version mismatch"));
    }
    let (key_hash, payload_hash) = (word(8), word(16));
    let (key_len, payload_len) = (word(24) as usize, word(32) as usize);
    if key_len != key.len() {
        return Err(CacheError::KeyMismatch);
    }
    let mut stored_key = vec![0u8; key_len];
    f.read_exact(&mut stored_key).map_err(|_| CacheError::Format("truncated key"))?;
    if stored_key != key || key_hash != fnv64(key) {
        return Err(CacheError::KeyMismatch);
    }
    let mut payload = vec![0u8; payload_len];
    f.read_exact(&mut payload).map_err(|_| CacheError::Format("truncated payload"))?;
    let mut rest = [0u8; 1];
    if f.read(&mut rest)? != 0 {
        return Err(CacheError::Format("trailing bytes"));
    }
    if checksum64(&payload) != payload_hash {
        return Err(CacheError::Format("payload checksum mismatch"));
    }
    Ok(payload)
}

/// Loads and decodes the entry for `key`, or explains why it can't be
/// used.
fn load_typed<T: serde::Deserialize>(kind: &str, key: &[u8]) -> Result<T, CacheError> {
    let payload = load(&entry_path(kind, fnv64(key)), key)?;
    serde::from_bytes(&payload).map_err(CacheError::Decode)
}

/// Artifact path a [`compile_cached`] call for these inputs uses.
pub fn dsl_entry_path(program: &Program, arch: &ArchConfig) -> PathBuf {
    let key = serde::to_bytes(&(program, arch));
    entry_path("dsl", fnv64(&key))
}

/// Removes the entry a [`compile_cached`] call for these inputs would
/// consult, forcing the next call cold. Returns whether one existed.
pub fn evict_dsl(program: &Program, arch: &ArchConfig) -> bool {
    std::fs::remove_file(dsl_entry_path(program, arch)).is_ok()
}

/// Serializes and stores already-compiled artifacts under the key
/// [`compile_cached`] uses, overwriting any existing entry — for callers
/// that timed the passes themselves and want to seed the cache without a
/// second compile.
pub fn store_dsl(
    program: &Program,
    arch: &ArchConfig,
    artifacts: (&Expanded, &MovePlan, &CycleSchedule),
) -> Result<(), CacheError> {
    let key = serde::to_bytes(&(program, arch));
    let payload = serde::to_bytes(&artifacts);
    store(&entry_path("dsl", fnv64(&key)), &key, &payload)
}

/// Artifact path a [`compile_fhe_cached`] call for these inputs uses.
/// The key hashes the program *as written*: `repeats` is part of
/// `FheProgram`'s serialization, so a rolled program and its unrolling
/// compile to the same schedule but occupy distinct entries.
pub fn fhe_entry_path(
    program: &FheProgram,
    arch: &ArchConfig,
    policy: &Option<NoisePolicy>,
) -> PathBuf {
    let key = serde::to_bytes(&(program, arch, policy));
    entry_path("fhe", fnv64(&key))
}

/// [`evict_dsl`] for the typed-IR path of [`compile_fhe_cached`].
pub fn evict_fhe(program: &FheProgram, arch: &ArchConfig, policy: &Option<NoisePolicy>) -> bool {
    std::fs::remove_file(fhe_entry_path(program, arch, policy)).is_ok()
}

/// [`crate::compile`] with caching: on a hit the three pass artifacts
/// are deserialized from disk instead of recompiled; on a miss they are
/// compiled, written back, and returned *through* their serialized
/// bytes (see the module docs). The second element reports which
/// happened.
pub fn compile_cached(
    program: &Program,
    arch: &ArchConfig,
) -> ((Expanded, MovePlan, CycleSchedule), CacheStatus) {
    let key = serde::to_bytes(&(program, arch));
    if let Ok(artifacts) = load_typed::<(Expanded, MovePlan, CycleSchedule)>("dsl", &key) {
        return (artifacts, CacheStatus::Hit);
    }
    let fresh = crate::compile(program, arch);
    let payload = serde::to_bytes(&fresh);
    if let Err(e) = store(&entry_path("dsl", fnv64(&key)), &key, &payload) {
        // Best-effort: a read-only or full cache dir must not fail builds.
        eprintln!("[f1-cache] store failed (continuing uncached): {e}");
    }
    let round_tripped = serde::from_bytes::<(Expanded, MovePlan, CycleSchedule)>(&payload)
        .expect("schedule artifacts must survive their own serialization");
    (round_tripped, CacheStatus::Miss)
}

/// [`crate::compile_fhe_with`] with caching, keyed on the typed program,
/// the architecture and the noise policy.
pub fn compile_fhe_cached(
    program: &FheProgram,
    arch: &ArchConfig,
    policy: Option<NoisePolicy>,
) -> ((Lowered, OptStats, Expanded, MovePlan, CycleSchedule), CacheStatus) {
    // The serde shim's tuples stop at arity 4; nest the five artifacts.
    type FheArtifacts = ((Lowered, OptStats), (Expanded, MovePlan, CycleSchedule));
    let key = serde::to_bytes(&(program, arch, &policy));
    if let Ok(((lowered, stats), (ex, plan, cs))) = load_typed::<FheArtifacts>("fhe", &key) {
        return ((lowered, stats, ex, plan, cs), CacheStatus::Hit);
    }
    let (lowered, stats, ex, plan, cs) = crate::compile_fhe_with(program, arch, policy);
    let payload = serde::to_bytes(&((&lowered, &stats), (&ex, &plan, &cs)));
    if let Err(e) = store(&entry_path("fhe", fnv64(&key)), &key, &payload) {
        eprintln!("[f1-cache] store failed (continuing uncached): {e}");
    }
    let ((lowered, stats), (ex, plan, cs)) = serde::from_bytes::<FheArtifacts>(&payload)
        .expect("schedule artifacts must survive their own serialization");
    ((lowered, stats, ex, plan, cs), CacheStatus::Miss)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes/loads against a scratch dir without touching the
    /// process environment (tests in one binary run concurrently).
    fn with_dir<R>(f: impl FnOnce(&Path) -> R) -> R {
        let dir = std::env::temp_dir().join(format!(
            "f1-cache-test-{}-{:p}",
            std::process::id(),
            &f as *const _
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let r = f(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        r
    }

    #[test]
    fn store_load_round_trip_and_corruption_detected() {
        with_dir(|dir| {
            let path = dir.join("t.f1c");
            let key = b"key-bytes".to_vec();
            let payload: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
            store(&path, &key, &payload).unwrap();
            assert_eq!(load(&path, &key).unwrap(), payload);
            // Wrong key → KeyMismatch.
            assert!(matches!(load(&path, b"other-key"), Err(CacheError::KeyMismatch)));
            // Flip one payload bit → checksum failure.
            let mut bytes = std::fs::read(&path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
            assert!(matches!(load(&path, &key), Err(CacheError::Format(_))));
            // Truncate → structural failure.
            std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
            assert!(load(&path, &key).is_err());
            // Missing file → Io.
            assert!(matches!(load(&dir.join("absent.f1c"), &key), Err(CacheError::Io(_))));
        });
    }

    #[test]
    fn rolled_and_unrolled_programs_use_distinct_entries() {
        // A rolled program and its unrolling produce byte-identical
        // schedules but never share a cache entry: the key hashes the
        // program as written (the `repeats` field serializes).
        use crate::ir::Scheme;
        fn rolled(trips: u32) -> FheProgram {
            let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
            let acc = p.input(6);
            let t = p.begin_repeat();
            let m = p.square(acc);
            let acc2 = p.add(m, m);
            p.end_repeat(t, trips, vec![(acc, acc2)], vec![]);
            p.output(acc2);
            p
        }
        let arch = ArchConfig::f1_default();
        let p = rolled(4);
        let flat = p.unroll();
        assert_ne!(
            fhe_entry_path(&p, &arch, &None),
            fhe_entry_path(&flat, &arch, &None),
            "rolled and unrolled forms must hash to distinct cache entries"
        );
        // Trip count is part of the key too: re-trip and the entry moves.
        assert_ne!(fhe_entry_path(&p, &arch, &None), fhe_entry_path(&rolled(5), &arch, &None));
    }

    #[test]
    fn version_and_magic_gate_loads() {
        with_dir(|dir| {
            let path = dir.join("t.f1c");
            let key = b"k".to_vec();
            store(&path, &key, b"payload").unwrap();
            let good = std::fs::read(&path).unwrap();
            // Corrupt the magic.
            let mut bad = good.clone();
            bad[0] = b'X';
            std::fs::write(&path, &bad).unwrap();
            assert!(matches!(load(&path, &key), Err(CacheError::Format("bad magic"))));
            // Bump the version.
            let mut bad = good;
            bad[4] ^= 0xFF;
            std::fs::write(&path, &bad).unwrap();
            assert!(matches!(
                load(&path, &key),
                Err(CacheError::Format("format version mismatch"))
            ));
        });
    }
}
