//! The crash-safe cache journal — the solve cache's one on-disk format.
//!
//! A daemon's warm working set should survive both a graceful restart
//! and a `kill -9` (or a panic, or an OOM kill). The journal covers both
//! with one file: an append-only run of checksummed cache entries,
//! written by a background thread off the response path, so a crash
//! loses at most the records still sitting in the writer's queue; and
//! [`Journal::finish`] ends with a compaction that leaves exactly the
//! live entries behind, least-recently-used first, so a graceful restart
//! also recovers the cache's recency order.
//!
//! ## File format
//!
//! ```text
//! "QXJOURNL"  [u32 version]                      — 12-byte header
//! [u32 len] [u64 checksum] [payload: len bytes]  — record, repeated
//! ```
//!
//! Each payload is one cache entry — cache key, canonical-to-original
//! correspondence, report — in the crate's binary entry codec, sealed
//! by a per-record FNV-1a checksum. [`JOURNAL_VERSION`] is bumped on any
//! change to that codec.
//!
//! ## Replay semantics
//!
//! Replay is per-record: a record whose checksum or decode fails is
//! skipped and counted in [`JournalReplay::rejected`], and replay
//! continues at the next record. A record whose *length* runs past the
//! end of the file is the torn tail an interrupted append leaves behind
//! — replay stops there, flags [`JournalReplay::torn`], and
//! [`JournalReplay::bytes_consumed`] marks the last byte of intact
//! data. One [`Journal`] writes each path, since attaching truncates a
//! torn tail and compaction renames a new file over the path.
//!
//! Records are admitted in file order, each as the most recently used
//! entry so far, so replaying a compacted file rebuilds the writer's
//! LRU order and a capacity-limited replay keeps the freshest entries.
//! A proved report is admitted under the proved tier even when its
//! record names a budget class, so a file that journaled a proved solve
//! under both keys replays it to one entry, as the cache now stores it.
//!
//! ## Compaction
//!
//! An append-only file grows without bound while the cache it shadows is
//! a bounded LRU. After every `compact_after` appended records, and once
//! more when the journal is finished, the writer thread rewrites the
//! journal from the cache's current contents (write-temp-then-rename, so
//! a crash mid-compaction leaves the old file intact) and resumes
//! appending.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;

use qxmap_circuit::Fnv1a;

use crate::cache::{CacheKey, SolveCache};
use crate::codec::{self, JournalError, Reader, Writer};
use crate::report::MapReport;

/// The journal file's magic prefix.
pub const JOURNAL_MAGIC: &[u8; 8] = b"QXJOURNL";

/// Version of the journal format this build writes and replays.
pub const JOURNAL_VERSION: u32 = 1;

/// Header length in bytes: magic plus version word.
const HEADER_LEN: u64 = 12;

/// What a journal replay admitted, skipped and left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JournalReplay {
    /// Records decoded, validated and inserted into the cache.
    pub admitted: usize,
    /// Records individually rejected — checksum mismatch, decode error
    /// or invalid correspondence — and skipped without aborting replay.
    pub rejected: usize,
    /// The file ended mid-record (the torn tail of an interrupted
    /// append); everything before `bytes_consumed` was still replayed.
    pub torn: bool,
    /// Offset one past the last complete record — the length
    /// [`Journal::attach`] truncates to before appending.
    pub bytes_consumed: u64,
    /// The existing file's header was unusable (bad magic or an
    /// unsupported version) and [`Journal::attach`] reinitialized it.
    pub reset: bool,
}

/// Live counters of an attached journal writer — what the daemon's
/// `metrics` response reports as journal health alongside the boot-time
/// [`JournalReplay`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records appended (and flushed) since attach.
    pub appended: u64,
    /// Compactions of the journal file since attach, including the
    /// final one at [`Journal::finish`].
    pub compactions: u64,
    /// Filesystem errors the writer hit; after the first, the journal
    /// stops writing (the error also surfaces via [`Journal::finish`]).
    pub write_errors: u64,
}

#[derive(Default)]
struct StatsCells {
    appended: AtomicU64,
    compactions: AtomicU64,
    write_errors: AtomicU64,
}

/// An event on the journal writer's queue.
pub(crate) enum Event {
    /// A freshly stored cache entry to append. The key is boxed so the
    /// queue's enum stays small next to the fieldless `Shutdown`.
    Entry {
        key: Box<CacheKey>,
        canon_to_original: Vec<usize>,
        report: Arc<MapReport>,
    },
    /// Drain what is queued, compact the file to the cache's live
    /// entries, then exit the writer thread.
    Shutdown,
}

/// A handle to the background journal writer attached to a
/// [`SolveCache`]. Dropping it (or calling [`Journal::finish`]) detaches
/// the cache, drains the queue, compacts the file and joins the thread.
pub struct Journal {
    cache: &'static SolveCache,
    tx: mpsc::Sender<Event>,
    thread: Option<thread::JoinHandle<io::Result<()>>>,
    stats: Arc<StatsCells>,
}

impl Journal {
    /// Replays `path` into `cache` (tolerantly — see [`replay_journal`]),
    /// truncates any torn tail, attaches a background writer so every
    /// subsequent [`SolveCache::insert`] is appended, and returns the
    /// handle plus what the replay admitted. A missing or empty file is
    /// created with a fresh header; an existing file with a bad header
    /// is reinitialized and reported via [`JournalReplay::reset`].
    ///
    /// The cache reference is `'static` because the writer thread (and
    /// the cache's own journal hook) outlive the caller's frame — the
    /// serving daemon passes [`SolveCache::shared`]; tests leak a
    /// private instance.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors opening, truncating or creating the
    /// journal file.
    pub fn attach(
        cache: &'static SolveCache,
        path: &Path,
        compact_after: usize,
    ) -> io::Result<(Journal, JournalReplay)> {
        let bytes = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let replay = if bytes.is_empty() {
            None
        } else {
            replay_journal(cache, &bytes).ok()
        };
        let replay = match replay {
            Some(replay) => replay,
            None => {
                // Fresh file, or an existing one whose header is not
                // ours: start over. (A bad header means the file was
                // never a journal; per-record damage never lands here.)
                fs::write(path, header_bytes())?;
                JournalReplay {
                    bytes_consumed: HEADER_LEN,
                    reset: !bytes.is_empty(),
                    ..JournalReplay::default()
                }
            }
        };
        // Drop the torn tail (if any) so appended records extend intact
        // data instead of burying themselves behind a partial record.
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(replay.bytes_consumed)?;
        drop(file);
        let file = OpenOptions::new().append(true).open(path)?;

        let (tx, rx) = mpsc::channel::<Event>();
        let path = path.to_path_buf();
        let stats = Arc::new(StatsCells::default());
        let cells = Arc::clone(&stats);
        let thread = thread::Builder::new()
            .name("qxmap-journal".into())
            .spawn(move || writer_loop(cache, file, &path, compact_after, &rx, &cells))?;
        cache.set_journal(Some(tx.clone()));
        Ok((
            Journal {
                cache,
                tx,
                thread: Some(thread),
                stats,
            },
            replay,
        ))
    }

    /// The writer's live health counters (relaxed reads — one `metrics`
    /// response may straddle an append, never torn values).
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            appended: self.stats.appended.load(Ordering::Relaxed),
            compactions: self.stats.compactions.load(Ordering::Relaxed),
            write_errors: self.stats.write_errors.load(Ordering::Relaxed),
        }
    }

    /// Detaches the cache, drains every queued record to disk, rewrites
    /// the file as exactly the cache's live entries in least-recently-used
    /// order, joins the writer thread and surfaces any write error it
    /// hit. Idempotent; [`Journal::stats`] stays readable afterwards.
    ///
    /// # Errors
    ///
    /// The first filesystem error the writer thread encountered, if any.
    pub fn finish(&mut self) -> io::Result<()> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        self.cache.set_journal(None);
        let _ = self.tx.send(Event::Shutdown);
        thread
            .join()
            .map_err(|_| io::Error::other("journal writer panicked"))?
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("attached", &self.thread.is_some())
            .finish()
    }
}

/// The writer thread: append (and flush) one record per event, compact
/// after every `compact_after` appends and once more at shutdown, and
/// keep draining — but stop writing — after the first filesystem error,
/// which is reported through [`Journal::finish`].
fn writer_loop(
    cache: &'static SolveCache,
    mut file: File,
    path: &Path,
    compact_after: usize,
    rx: &mpsc::Receiver<Event>,
    stats: &StatsCells,
) -> io::Result<()> {
    let compact_after = compact_after.max(1);
    let mut since_compact = 0usize;
    let mut failed: Option<io::Error> = None;
    let compact_now = |failed: &mut Option<io::Error>| match compact(cache, path) {
        Ok(compacted) => {
            stats.compactions.fetch_add(1, Ordering::Relaxed);
            Some(compacted)
        }
        Err(e) => {
            stats.write_errors.fetch_add(1, Ordering::Relaxed);
            *failed = Some(e);
            None
        }
    };
    while let Ok(event) = rx.recv() {
        let Event::Entry {
            key,
            canon_to_original,
            report,
        } = event
        else {
            break;
        };
        if failed.is_some() {
            continue;
        }
        let record = encode_record(&key, &canon_to_original, &report);
        // write_all + flush per record: once the write returns, the
        // record is in the OS page cache and survives a `kill -9` of
        // this process (the journal never fsyncs, so a machine crash
        // can still lose what the OS had not written back).
        if let Err(e) = file.write_all(&record).and_then(|()| file.flush()) {
            stats.write_errors.fetch_add(1, Ordering::Relaxed);
            failed = Some(e);
            continue;
        }
        stats.appended.fetch_add(1, Ordering::Relaxed);
        since_compact += 1;
        if since_compact >= compact_after {
            if let Some(compacted) = compact_now(&mut failed) {
                file = compacted;
                since_compact = 0;
            }
        }
    }
    if failed.is_none() {
        compact_now(&mut failed);
    }
    match failed {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Rewrites the journal as a header plus one record per *current* cache
/// entry (temp-then-rename, crash-safe), returning the reopened
/// append handle.
fn compact(cache: &SolveCache, path: &Path) -> io::Result<File> {
    let mut buf = header_bytes();
    for (key, canon_to_original, report, _) in cache.export_entries() {
        buf.extend_from_slice(&encode_record(&key, &canon_to_original, &report));
    }
    let tmp = path.with_extension(format!("compact.{}", std::process::id()));
    fs::write(&tmp, &buf)?;
    fs::rename(&tmp, path)?;
    OpenOptions::new().append(true).open(path)
}

fn header_bytes() -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN as usize);
    buf.extend_from_slice(JOURNAL_MAGIC);
    buf.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
    buf
}

/// One journal record: a length-prefixed entry payload sealed by a
/// per-record FNV-1a checksum.
fn encode_record(key: &CacheKey, canon_to_original: &[usize], report: &MapReport) -> Vec<u8> {
    let mut w = Writer::new();
    key.write(&mut w);
    w.usizes(canon_to_original);
    codec::write_report(&mut w, report);
    let payload = w.into_bytes();
    let mut out = Vec::with_capacity(payload.len() + 12);
    out.extend_from_slice(
        &u32::try_from(payload.len())
            .expect("record < 4 GiB")
            .to_le_bytes(),
    );
    out.extend_from_slice(&Fnv1a::hash(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Replays a whole journal file (header included) into `cache`. Damaged
/// records are rejected individually; only a damaged *header* rejects
/// the file as a whole.
///
/// # Errors
///
/// [`JournalError::BadMagic`], [`JournalError::VersionMismatch`] or
/// [`JournalError::Truncated`] when the 12-byte header is not an intact
/// journal header. Everything after the header is handled tolerantly and
/// reported through the returned [`JournalReplay`].
pub fn replay_journal(cache: &SolveCache, bytes: &[u8]) -> Result<JournalReplay, JournalError> {
    if bytes.len() < HEADER_LEN as usize {
        return Err(if JOURNAL_MAGIC.starts_with(bytes) {
            JournalError::Truncated
        } else {
            JournalError::BadMagic
        });
    }
    if &bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
        return Err(JournalError::BadMagic);
    }
    let found = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if found != JOURNAL_VERSION {
        return Err(JournalError::VersionMismatch {
            found,
            supported: JOURNAL_VERSION,
        });
    }
    let mut replay = replay_records(cache, &bytes[HEADER_LEN as usize..]);
    replay.bytes_consumed += HEADER_LEN;
    Ok(replay)
}

/// Replays a headerless run of journal records: the body of
/// [`replay_journal`] after the header. The returned
/// [`JournalReplay::bytes_consumed`] counts from the start of `bytes`.
pub(crate) fn replay_records(cache: &SolveCache, bytes: &[u8]) -> JournalReplay {
    let mut replay = JournalReplay::default();
    let mut at = 0usize;
    while at < bytes.len() {
        // A record is [u32 len][u64 checksum][payload]; anything that
        // runs past the end of the buffer — including a length field
        // damaged into a huge value — is indistinguishable from an
        // interrupted append, so it is the torn tail and replay stops.
        let Some(header) = bytes.get(at..at + 12) else {
            replay.torn = true;
            break;
        };
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let declared = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
        let Some(payload) = bytes.get(at + 12..at + 12 + len) else {
            replay.torn = true;
            break;
        };
        at += 12 + len;
        replay.bytes_consumed = at as u64;
        if Fnv1a::hash(payload) != declared {
            replay.rejected += 1;
            continue;
        }
        match decode_payload(payload) {
            Ok((key, canon_to_original, report)) => {
                match cache.admit_decoded(key, canon_to_original, report) {
                    Ok(true) => replay.admitted += 1,
                    // The key is already live (this process solved it,
                    // or a later append repeats a key): the live entry
                    // wins, and the record is neither new nor bad.
                    Ok(false) => {}
                    Err(_) => replay.rejected += 1,
                }
            }
            Err(_) => replay.rejected += 1,
        }
    }
    replay
}

/// Decodes one record payload: key, correspondence, report — rejecting
/// trailing bytes (a checksummed payload is exactly one entry).
fn decode_payload(payload: &[u8]) -> Result<(CacheKey, Vec<usize>, Arc<MapReport>), JournalError> {
    let mut r = Reader::new(payload);
    let key = CacheKey::read(&mut r)?;
    let canon_to_original = r.usizes()?;
    let report = Arc::new(codec::read_report(&mut r)?);
    if r.remaining() != 0 {
        return Err(JournalError::Corrupted("trailing bytes after record"));
    }
    Ok((key, canon_to_original, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, HeuristicEngine};
    use crate::request::MapRequest;
    use qxmap_arch::devices;
    use qxmap_circuit::paper_example;
    use std::path::PathBuf;

    fn leaked(capacity: usize) -> &'static SolveCache {
        Box::leak(Box::new(SolveCache::with_capacity(capacity)))
    }

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("qxmap-journal-{}-{name}", std::process::id()))
    }

    /// Solves the paper example under `seed` and inserts it, giving each
    /// seed its own cache key (and so its own journal record).
    fn insert_seeded(cache: &SolveCache, seed: u64) {
        let request = MapRequest::new(paper_example(), devices::ibm_qx4()).with_seed(seed);
        let engine = HeuristicEngine::naive();
        let report = engine.run(&request).expect("mappable");
        cache.insert(&engine.cache_signature(), &request, &report);
    }

    fn lookup_seeded(cache: &SolveCache, seed: u64) -> Option<MapReport> {
        let request = MapRequest::new(paper_example(), devices::ibm_qx4()).with_seed(seed);
        cache.lookup(&HeuristicEngine::naive().cache_signature(), &request)
    }

    /// Byte ranges of each record's (start, payload_len) in `bytes`.
    fn record_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        let mut at = HEADER_LEN as usize;
        while at + 12 <= bytes.len() {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            if at + 12 + len > bytes.len() {
                break;
            }
            spans.push((at, len));
            at += 12 + len;
        }
        spans
    }

    #[test]
    fn appends_replay_into_a_fresh_cache() {
        let path = temp("round-trip");
        let _ = fs::remove_file(&path);
        let source = leaked(8);
        let (mut journal, replay) = Journal::attach(source, &path, 1024).unwrap();
        assert_eq!(
            replay,
            JournalReplay {
                bytes_consumed: HEADER_LEN,
                ..JournalReplay::default()
            }
        );
        for seed in 0..3 {
            insert_seeded(source, seed);
        }
        journal.finish().unwrap();

        let restored = leaked(8);
        let replay = replay_journal(restored, &fs::read(&path).unwrap()).unwrap();
        assert_eq!(
            (replay.admitted, replay.rejected, replay.torn),
            (3, 0, false)
        );
        assert_eq!(replay.bytes_consumed, fs::metadata(&path).unwrap().len());
        for seed in 0..3 {
            let hit = lookup_seeded(restored, seed).expect("replayed entry hits");
            assert!(hit.served_from_cache);
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_keeps_the_intact_prefix_and_reattach_truncates_it() {
        let path = temp("torn");
        let _ = fs::remove_file(&path);
        let source = leaked(8);
        let (mut journal, _) = Journal::attach(source, &path, 1024).unwrap();
        insert_seeded(source, 0);
        insert_seeded(source, 1);
        journal.finish().unwrap();

        // Chop into the second record: the first still replays, the torn
        // tail is flagged, and the cursor stops at the record boundary.
        let bytes = fs::read(&path).unwrap();
        let spans = record_spans(&bytes);
        assert_eq!(spans.len(), 2);
        let boundary = spans[1].0;
        fs::write(&path, &bytes[..boundary + 7]).unwrap();
        let restored = leaked(8);
        let replay = replay_journal(restored, &fs::read(&path).unwrap()).unwrap();
        assert_eq!(
            (replay.admitted, replay.rejected, replay.torn),
            (1, 0, true)
        );
        assert_eq!(replay.bytes_consumed, boundary as u64);
        assert!(lookup_seeded(restored, 0).is_some());
        assert!(lookup_seeded(restored, 1).is_none());

        // Re-attaching truncates the partial record, so new appends land
        // on intact data and the whole file replays cleanly again.
        let recovered = leaked(8);
        let (mut journal, replay) = Journal::attach(recovered, &path, 1024).unwrap();
        assert!(replay.torn);
        insert_seeded(recovered, 2);
        journal.finish().unwrap();
        let replay = replay_journal(leaked(8), &fs::read(&path).unwrap()).unwrap();
        assert_eq!((replay.admitted, replay.torn), (2, false));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_corrupt_record_is_rejected_alone() {
        let path = temp("corrupt");
        let _ = fs::remove_file(&path);
        let source = leaked(8);
        let (mut journal, _) = Journal::attach(source, &path, 1024).unwrap();
        for seed in 0..3 {
            insert_seeded(source, seed);
        }
        journal.finish().unwrap();

        // Flip one payload byte in the middle record: the damage stays
        // contained — records 1 and 3 admit.
        let mut bytes = fs::read(&path).unwrap();
        let spans = record_spans(&bytes);
        assert_eq!(spans.len(), 3);
        let (start, len) = spans[1];
        bytes[start + 12 + len / 2] ^= 0xff;
        let restored = leaked(8);
        let replay = replay_journal(restored, &bytes).unwrap();
        assert_eq!(
            (replay.admitted, replay.rejected, replay.torn),
            (2, 1, false)
        );
        assert_eq!(replay.bytes_consumed, bytes.len() as u64);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn compaction_bounds_the_file_to_the_live_working_set() {
        let path = temp("compact");
        let _ = fs::remove_file(&path);
        // Capacity 2, compact after every 2 appends: the file tracks the
        // LRU's survivors instead of the full append history.
        let source = leaked(2);
        let (mut journal, _) = Journal::attach(source, &path, 2).unwrap();
        for seed in 0..6 {
            insert_seeded(source, seed);
        }
        journal.finish().unwrap();
        assert_eq!(source.stats().entries, 2);

        let restored = leaked(8);
        let replay = replay_journal(restored, &fs::read(&path).unwrap()).unwrap();
        assert_eq!(
            (replay.admitted, replay.rejected, replay.torn),
            (2, 0, false)
        );
        assert!(lookup_seeded(restored, 4).is_some());
        assert!(lookup_seeded(restored, 5).is_some());
        assert!(
            lookup_seeded(restored, 0).is_none(),
            "evicted, so compacted away"
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn finish_compacts_to_the_live_entries_in_lru_order() {
        let path = temp("finish-order");
        let _ = fs::remove_file(&path);
        let source = leaked(8);
        let (mut journal, _) = Journal::attach(source, &path, 1024).unwrap();
        for seed in [0, 1, 2, 1] {
            insert_seeded(source, seed);
        }
        // A hit refreshes seed 0: recency is now 2, 1, 0 (stalest first).
        assert!(lookup_seeded(source, 0).is_some());
        journal.finish().unwrap();
        assert_eq!(journal.stats().appended, 4);
        assert_eq!(journal.stats().compactions, 1);

        // Four appends, three live entries: one record each.
        let bytes = fs::read(&path).unwrap();
        assert_eq!(record_spans(&bytes).len(), 3);
        // Replay admits in file order, so a capacity-limited restart
        // keeps exactly the entries the writer used most recently.
        let one = leaked(1);
        assert_eq!(replay_journal(one, &bytes).unwrap().admitted, 3);
        assert!(lookup_seeded(one, 0).is_some());
        let two = leaked(2);
        replay_journal(two, &bytes).unwrap();
        assert!(lookup_seeded(two, 2).is_none(), "the stalest entry goes");
        assert!(lookup_seeded(two, 1).is_some());
        assert!(lookup_seeded(two, 0).is_some());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn replay_keeps_one_entry_for_a_proved_pair() {
        let request = MapRequest::new(paper_example(), devices::ibm_qx4());
        let engine = crate::engine::ExactEngine::new();
        let proved = engine.run(&request).expect("in regime");
        assert!(proved.proved_optimal);
        let stored = |request: &MapRequest, report: &MapReport| {
            let cache = leaked(8);
            cache.insert(&engine.cache_signature(), request, report);
            let mut entries = cache.export_entries();
            assert_eq!(entries.len(), 1, "a report is stored once");
            entries.pop().expect("one entry")
        };
        let (tier, canon_to_original, report, _) = stored(&request, &proved);
        // Files written before proved reports were stored once also hold
        // each under its budget class (the key an unproved answer to the
        // same request takes): the pair, in either order, must replay to
        // the one proved-tier entry.
        let budgeted = request.with_conflict_budget(Some(10_000));
        let unproved = MapReport {
            proved_optimal: false,
            ..proved.clone()
        };
        let (budget_class, ..) = stored(&budgeted, &unproved);
        assert!(budget_class != tier);
        let pair = [
            encode_record(&tier, &canon_to_original, &report),
            encode_record(&budget_class, &canon_to_original, &report),
        ];
        for order in [[0, 1], [1, 0]] {
            let mut bytes = header_bytes();
            for i in order {
                bytes.extend_from_slice(&pair[i]);
            }
            let restored = leaked(8);
            let replay = replay_journal(restored, &bytes).unwrap();
            assert_eq!((replay.admitted, replay.rejected), (1, 0));
            let entries = restored.export_entries();
            assert_eq!(entries.len(), 1, "the proved pair replayed twice");
            assert!(entries[0].0 == tier, "replayed under the proved tier");
        }
    }

    #[test]
    fn a_foreign_file_is_reset_not_appended_to() {
        let path = temp("foreign");
        fs::write(&path, b"definitely not a journal").unwrap();
        let source = leaked(8);
        let (mut journal, replay) = Journal::attach(source, &path, 1024).unwrap();
        assert!(replay.reset);
        assert_eq!(replay.admitted, 0);
        insert_seeded(source, 0);
        journal.finish().unwrap();
        let replay = replay_journal(leaked(8), &fs::read(&path).unwrap()).unwrap();
        assert_eq!(
            (replay.admitted, replay.rejected, replay.torn),
            (1, 0, false)
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn replay_records_resumes_from_a_cursor() {
        let path = temp("tail-follow");
        let _ = fs::remove_file(&path);
        let source = leaked(8);
        let (mut journal, _) = Journal::attach(source, &path, 1024).unwrap();
        insert_seeded(source, 0);
        // The append is asynchronous — wait for the writer to land it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while fs::metadata(&path).unwrap().len() <= HEADER_LEN {
            assert!(std::time::Instant::now() < deadline, "append never landed");
            thread::sleep(std::time::Duration::from_millis(2));
        }
        // A follower replays the file, remembers its cursor…
        let follower = leaked(8);
        let first = replay_journal(follower, &fs::read(&path).unwrap()).unwrap();
        assert_eq!(first.admitted, 1);
        // …the primary keeps appending…
        insert_seeded(source, 1);
        journal.finish().unwrap();
        // …and the follower admits just the new bytes.
        let bytes = fs::read(&path).unwrap();
        let tail = replay_records(follower, &bytes[first.bytes_consumed as usize..]);
        assert_eq!((tail.admitted, tail.torn), (1, false));
        assert_eq!(
            first.bytes_consumed + tail.bytes_consumed,
            bytes.len() as u64
        );
        assert!(lookup_seeded(follower, 1).is_some());
        let _ = fs::remove_file(&path);
    }
}
