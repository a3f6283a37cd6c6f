//! The sweep journal: an append-only per-job completion log that makes
//! interrupted scenario sweeps resumable.
//!
//! A frontier-scale matrix is a long-lived job; a crash (or an injected
//! fail point) must not vaporise hours of finished scenarios. As a
//! journaled sweep progresses, every completed job appends one fixed-size
//! entry — job index, [`Snap`]-encoded [`MeasuredRun`], FNV-64 checksum —
//! to the journal file. Resume replays the journal, verifies that its
//! header matches the matrix being run (fingerprint and job count), skips
//! every journaled job, and re-runs only the rest. Because job results are
//! a pure function of `(job, seed)`, the resumed sweep is *bit-identical*
//! to an uninterrupted one — the chaos differential suite pins this down
//! to the warehouse byte level.
//!
//! # File format (version 2)
//!
//! ```text
//! header:  magic "RNUCAJL\0" (8) | version u32 | fingerprint u64 | jobs u64
//! entry:   job u64 | kind u8 | len u32 | payload (len bytes)
//!          | fnv64(job|kind|len|payload)
//! ```
//!
//! All integers little-endian. `kind` is 0 for a completed run — `payload`
//! is the fixed-size [`Snap`] encoding of one [`MeasuredRun`] — or 1 for a
//! *quarantined failure*: a typed record (attempt count, failure cause,
//! panic message) written when supervision gives up on a job, so a resumed
//! sweep skips the poisoned job instead of re-crashing on it. A crash
//! mid-append leaves a torn final entry; replay detects it by length or
//! checksum, drops it, and resume truncates the file back to the last
//! intact entry before appending. Entries appear in completion order
//! (worker-timing dependent), not job order — replay is order-insensitive
//! because every entry names its job.
//!
//! Version 1 files (no `kind` byte) are refused by version, not guessed
//! at: the matrix fingerprint mixes `JOURNAL_VERSION` in, so a stale
//! journal fails the version check with a clear message.
//!
//! The header's job count is never trusted for an allocation. Replay keeps
//! only the entries actually present, a count above `MAX_JOURNAL_JOBS` (2^32)
//! is corrupt, and [`SweepJournal::open`] checks the count against the
//! caller's matrix before it builds the per-job table.

use crate::cpi::DetailedCpi;
use crate::engine::{FailureCause, JobFailure};
use crate::simulator::MeasuredRun;
use rnuca_types::failpoint;
use rnuca_types::snap::{Snap, SnapReader};
use rnuca_types::Fnv64;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The journal file's magic bytes.
pub const JOURNAL_MAGIC: &[u8; 8] = b"RNUCAJL\0";

/// Version of the journal format (bumped on any layout change; resume
/// refuses other versions rather than guessing).
pub const JOURNAL_VERSION: u32 = 2;

/// Header size in bytes: magic + version + fingerprint + job count.
const HEADER_LEN: u64 = 8 + 4 + 8 + 8;

/// The largest job count a journal header may claim. Any matrix is far
/// smaller (the default `figures sweep` flattens to 288 jobs), and a
/// resumed sweep keeps one result slot per job in memory, so a larger
/// count can only be a damaged header.
const MAX_JOURNAL_JOBS: u64 = 1 << 32;

/// Entry kind byte: a completed [`MeasuredRun`].
const ENTRY_RUN: u8 = 0;

/// Entry kind byte: a quarantined [`JournalFailure`].
const ENTRY_FAILED: u8 = 1;

/// Bytes before the payload in every entry: job + kind + len.
const ENTRY_PRELUDE: usize = 8 + 1 + 4;

/// Upper bound on a failure entry's payload. A panic message is a line or
/// two; anything bigger means the `len` field is damaged, and believing it
/// would allocate unbounded memory from a corrupt byte.
const MAX_FAILURE_PAYLOAD: usize = 64 * 1024;

/// The fixed [`Snap`]-encoded size of one [`MeasuredRun`] payload.
fn run_payload_len() -> usize {
    let zero = MeasuredRun {
        cpi: DetailedCpi::default(),
        accesses: 0,
        instructions: 0.0,
        off_chip_rate: 0.0,
        l1_to_l1_rate: 0.0,
        misclassification_rate: 0.0,
        reclassifications: 0,
    };
    let mut buf = Vec::new();
    zero.encode(&mut buf);
    buf.len()
}

/// A typed quarantined-failure record: what the journal remembers about a
/// job whose supervision gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalFailure {
    /// Attempts made before the job was quarantined.
    pub attempts: u32,
    /// Why the final attempt failed.
    pub cause: FailureCause,
    /// The final failure's message.
    pub message: String,
}

impl JournalFailure {
    /// Payload encoding: attempts u32 | cause u8 | msg_len u32 | msg bytes.
    fn encode_payload(&self, out: &mut Vec<u8>) {
        self.attempts.encode(out);
        match self.cause {
            FailureCause::Panic => 0u8,
            FailureCause::Deadline => 1u8,
        }
        .encode(out);
        let msg = self.message.as_bytes();
        (msg.len() as u32).encode(out);
        out.extend_from_slice(msg);
    }

    /// Decodes a payload previously written by [`Self::encode_payload`].
    /// Panic-free: the payload passed its entry checksum, so any internal
    /// inconsistency is writer/reader disagreement reported as `Err`.
    fn decode_payload(payload: &[u8]) -> Result<Self, String> {
        if payload.len() < 9 {
            return Err(format!(
                "failure payload is {} bytes, shorter than its fixed fields",
                payload.len()
            ));
        }
        let mut r = SnapReader::new(payload);
        let attempts: u32 = r.get();
        let cause = match r.get::<u8>() {
            0 => FailureCause::Panic,
            1 => FailureCause::Deadline,
            b => return Err(format!("unknown failure cause byte {b}")),
        };
        let msg_len: u32 = r.get();
        if msg_len as usize != payload.len() - 9 {
            return Err(format!(
                "failure message length {msg_len} disagrees with the payload ({} bytes left)",
                payload.len() - 9
            ));
        }
        let message = String::from_utf8_lossy(r.take(msg_len as usize)).into_owned();
        Ok(JournalFailure {
            attempts,
            cause,
            message,
        })
    }
}

impl From<&JobFailure> for JournalFailure {
    fn from(f: &JobFailure) -> Self {
        JournalFailure {
            attempts: f.attempts,
            cause: f.cause,
            message: f.message.clone(),
        }
    }
}

impl JournalFailure {
    /// The quarantined failure of job `job` this record describes.
    pub fn into_job_failure(self, job: usize) -> JobFailure {
        JobFailure {
            job,
            attempts: self.attempts,
            cause: self.cause,
            message: self.message,
        }
    }
}

/// One intact journal entry, as replay returns it.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEntry {
    /// The job completed; its measured result.
    Run(MeasuredRun),
    /// The job was quarantined; the typed failure record.
    Failed(JournalFailure),
}

/// Why a journal could not be loaded or matched to a matrix.
#[derive(Debug)]
pub enum JournalError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The file is not a journal, or its header is damaged beyond the
    /// tolerated torn tail. `offset` is where decoding stopped making
    /// sense.
    Corrupt {
        /// Byte offset of the damage.
        offset: u64,
        /// What was wrong there.
        message: String,
    },
    /// The journal was written by a different matrix: resuming would mix
    /// results from incompatible sweeps.
    FingerprintMismatch {
        /// Fingerprint recorded in the journal header.
        found: u64,
        /// Fingerprint of the matrix being resumed.
        expected: u64,
    },
    /// The journal's job count differs from the matrix's flattened job
    /// list (same guard as the fingerprint, but with a clearer message
    /// when only an axis changed).
    JobCountMismatch {
        /// Job count recorded in the journal header.
        found: u64,
        /// Job count of the matrix being resumed.
        expected: u64,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o error: {e}"),
            JournalError::Corrupt { offset, message } => {
                write!(f, "corrupt journal at byte {offset}: {message}")
            }
            JournalError::FingerprintMismatch { found, expected } => write!(
                f,
                "journal fingerprint {found:#018x} does not match this matrix \
                 ({expected:#018x}): it records a different sweep"
            ),
            JournalError::JobCountMismatch { found, expected } => write!(
                f,
                "journal records {found} jobs but this matrix flattens to \
                 {expected}: an axis changed since the journal was written"
            ),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Locks ignoring poison: an injected panic inside [`SweepJournal::append`]
/// must not wedge the remaining workers on a poisoned file lock — the
/// interesting failure is the panic itself.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The append side of a sweep journal.
///
/// Shared by every engine worker (appends serialize on an internal lock);
/// each append is flushed immediately so a crash loses at most the entry
/// being written — which replay then drops as a torn tail.
#[derive(Debug)]
pub struct SweepJournal {
    file: Mutex<File>,
}

impl SweepJournal {
    /// Creates (truncating) a journal for a matrix with `jobs` flattened
    /// jobs and the given fingerprint.
    ///
    /// # Errors
    ///
    /// Any error creating or writing the file.
    pub fn create(path: &Path, fingerprint: u64, jobs: u64) -> std::io::Result<Self> {
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(JOURNAL_MAGIC);
        JOURNAL_VERSION.encode(&mut header);
        fingerprint.encode(&mut header);
        jobs.encode(&mut header);
        let mut file = File::create(path)?;
        file.write_all(&header)?;
        file.flush()?;
        Ok(SweepJournal {
            file: Mutex::new(file),
        })
    }

    /// The journal of a matrix with `jobs` flattened jobs: created fresh
    /// (truncating any previous file), or with `resume` reopened after an
    /// interrupted run. Returns the journal and, per job, its replayed
    /// entry (`None` for jobs still to run; all `None` for a fresh one).
    ///
    /// A resumed journal must carry this matrix's fingerprint and job
    /// count, checked before the per-job table is built; its torn tail, if
    /// any, is truncated away before the first append.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the file cannot be created, read, or
    /// truncated; [`JournalError::Corrupt`] for a damaged journal;
    /// [`JournalError::FingerprintMismatch`] or
    /// [`JournalError::JobCountMismatch`] when it records another sweep.
    pub fn open(
        path: &Path,
        resume: bool,
        fingerprint: u64,
        jobs: usize,
    ) -> Result<(Self, Vec<Option<JournalEntry>>), JournalError> {
        if !resume {
            return Ok((
                Self::create(path, fingerprint, jobs as u64)?,
                vec![None; jobs],
            ));
        }
        let replay = JournalReplay::load(path)?;
        if replay.fingerprint != fingerprint {
            return Err(JournalError::FingerprintMismatch {
                found: replay.fingerprint,
                expected: fingerprint,
            });
        }
        if replay.jobs != jobs as u64 {
            return Err(JournalError::JobCountMismatch {
                found: replay.jobs,
                expected: jobs as u64,
            });
        }
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(replay.valid_len)?;
        file.seek(SeekFrom::End(0))?;
        let mut entries = vec![None; jobs];
        for (job, entry) in replay.entries {
            entries[job] = Some(entry);
        }
        Ok((
            SweepJournal {
                file: Mutex::new(file),
            },
            entries,
        ))
    }

    /// Appends one completed job's entry and flushes it to the OS.
    ///
    /// # Errors
    ///
    /// Any error writing the file (including an injected one from the
    /// `sweep::journal::append` fail-point site).
    ///
    /// # Panics
    ///
    /// Panics when the `sweep::journal::append` fail point fires with a
    /// panic action (simulating a process killed at a job boundary, before
    /// the entry lands), or when `sweep::journal::torn` fires (simulating a
    /// crash mid-write: half the entry is written, then the panic).
    pub fn append(&self, job: usize, run: &MeasuredRun) -> std::io::Result<()> {
        let mut payload = Vec::with_capacity(run_payload_len());
        run.encode(&mut payload);
        self.append_entry(job, ENTRY_RUN, &payload)
    }

    /// Appends one quarantined job's typed failure entry and flushes it —
    /// the journal-side record that lets `--resume` *skip* a poisoned job
    /// instead of re-crashing on it.
    ///
    /// # Errors
    ///
    /// Any error writing the file (including an injected one from the
    /// `sweep::journal::append` fail-point site).
    ///
    /// # Panics
    ///
    /// Same injected fail points as [`SweepJournal::append`].
    pub fn append_failure(&self, job: usize, failure: &JournalFailure) -> std::io::Result<()> {
        let mut payload = Vec::new();
        failure.encode_payload(&mut payload);
        self.append_entry(job, ENTRY_FAILED, &payload)
    }

    /// The shared append path: frame, checksum, fail points, write, flush.
    fn append_entry(&self, job: usize, kind: u8, payload: &[u8]) -> std::io::Result<()> {
        let mut entry = Vec::with_capacity(ENTRY_PRELUDE + payload.len() + 8);
        (job as u64).encode(&mut entry);
        kind.encode(&mut entry);
        (payload.len() as u32).encode(&mut entry);
        entry.extend_from_slice(payload);
        let mut h = Fnv64::new();
        h.write(&entry);
        h.finish().encode(&mut entry);

        let mut file = lock(&self.file);
        failpoint::io_point("sweep::journal::append")?;
        if failpoint::triggered("sweep::journal::torn") {
            let half = entry.len() / 2;
            file.write_all(&entry[..half])?;
            file.flush()?;
            panic!("fail point `sweep::journal::torn` triggered (injected)");
        }
        file.write_all(&entry)?;
        file.flush()
    }
}

/// The replay side: a journal's header and every intact entry.
#[derive(Debug)]
pub struct JournalReplay {
    /// Matrix fingerprint recorded in the header.
    pub fingerprint: u64,
    /// Flattened job count recorded in the header.
    pub jobs: u64,
    /// The journaled state of every job with an intact entry (completed
    /// or quarantined), by job index. Jobs the interrupted sweep never
    /// finished are absent, so the map is bounded by the file's entries,
    /// never by the header's job count.
    pub entries: BTreeMap<usize, JournalEntry>,
    /// Whether a torn final entry was detected (and will be truncated away
    /// when [`SweepJournal::open`] resumes the journal).
    pub torn_tail: bool,
    /// File length up to and including the last intact entry.
    pub valid_len: u64,
}

impl JournalReplay {
    /// Loads and verifies a journal file.
    ///
    /// Header damage is an error; a torn *final* entry (the expected
    /// residue of a crash mid-append) is tolerated — it is dropped,
    /// recorded in [`Self::torn_tail`], and truncated away on resume.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the file cannot be read;
    /// [`JournalError::Corrupt`] when the header (including a job count
    /// above 2^32) or an entry other than a torn tail is damaged.
    pub fn load(path: &Path) -> Result<Self, JournalError> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        if bytes.len() < HEADER_LEN as usize {
            return Err(JournalError::Corrupt {
                offset: bytes.len() as u64,
                message: format!(
                    "journal header truncated ({} of {HEADER_LEN} bytes)",
                    bytes.len()
                ),
            });
        }
        if &bytes[..8] != JOURNAL_MAGIC {
            return Err(JournalError::Corrupt {
                offset: 0,
                message: "not a sweep journal (bad magic)".to_string(),
            });
        }
        let mut r = SnapReader::new(&bytes[8..HEADER_LEN as usize]);
        let version: u32 = r.get();
        if version != JOURNAL_VERSION {
            return Err(JournalError::Corrupt {
                offset: 8,
                message: format!(
                    "journal version {version} is not the supported {JOURNAL_VERSION}"
                ),
            });
        }
        let fingerprint: u64 = r.get();
        let jobs: u64 = r.get();
        if jobs > MAX_JOURNAL_JOBS {
            return Err(JournalError::Corrupt {
                offset: HEADER_LEN - 8,
                message: format!(
                    "header claims {jobs} jobs; no sweep has more than {MAX_JOURNAL_JOBS}"
                ),
            });
        }

        let payload_len = run_payload_len();
        let mut entries = BTreeMap::new();
        let mut pos = HEADER_LEN as usize;
        let mut torn_tail = false;
        while pos < bytes.len() {
            let rest = &bytes[pos..];
            if rest.len() < ENTRY_PRELUDE {
                torn_tail = true;
                break;
            }
            let mut r = SnapReader::new(rest);
            let job: u64 = r.get();
            let kind: u8 = r.get();
            let len: u32 = r.get();
            // Sanity-check the length *before* trusting it: a run payload
            // has exactly one size, and a failure payload is bounded. A
            // wrong length with all its bytes present cannot be a torn
            // tail — it means the writer and reader disagree on the shape.
            // (Truncation alone can never manufacture a bad length: the
            // prelude bytes are intact prefix bytes.)
            let expected = match kind {
                ENTRY_RUN if len as usize == payload_len => payload_len,
                ENTRY_RUN => {
                    return Err(JournalError::Corrupt {
                        offset: (pos + 9) as u64,
                        message: format!(
                            "run entry payload length {len} is not the expected {payload_len}"
                        ),
                    });
                }
                ENTRY_FAILED if (len as usize) <= MAX_FAILURE_PAYLOAD => len as usize,
                ENTRY_FAILED => {
                    return Err(JournalError::Corrupt {
                        offset: (pos + 9) as u64,
                        message: format!(
                            "failure entry payload length {len} exceeds the \
                             {MAX_FAILURE_PAYLOAD}-byte cap"
                        ),
                    });
                }
                other => {
                    return Err(JournalError::Corrupt {
                        offset: (pos + 8) as u64,
                        message: format!("unknown entry kind {other}"),
                    });
                }
            };
            let entry_len = ENTRY_PRELUDE + expected + 8;
            if rest.len() < entry_len {
                torn_tail = true;
                break;
            }
            let mut h = Fnv64::new();
            h.write(&rest[..entry_len - 8]);
            let payload = r.take(expected);
            let stored: u64 = r.get();
            if stored != h.finish() {
                // Checksum damage: tolerated as a torn tail (a crash
                // mid-append is the expected cause). Everything after is
                // dropped too — resume re-runs those jobs, and determinism
                // reproduces their results exactly.
                torn_tail = true;
                break;
            }
            if job >= jobs {
                return Err(JournalError::Corrupt {
                    offset: pos as u64,
                    message: format!("entry names job {job} of a {jobs}-job sweep"),
                });
            }
            let entry = match kind {
                ENTRY_RUN => JournalEntry::Run(MeasuredRun::decode(&mut SnapReader::new(payload))),
                _ => JournalEntry::Failed(JournalFailure::decode_payload(payload).map_err(
                    |message| JournalError::Corrupt {
                        offset: (pos + ENTRY_PRELUDE) as u64,
                        message,
                    },
                )?),
            };
            entries.insert(job as usize, entry);
            pos += entry_len;
        }
        Ok(JournalReplay {
            fingerprint,
            jobs,
            entries,
            torn_tail,
            valid_len: pos as u64,
        })
    }

    /// Journaled (intact) entries, completed and quarantined alike.
    pub fn completed(&self) -> usize {
        self.entries.len()
    }

    /// Journaled quarantined failures.
    pub fn failed(&self) -> usize {
        self.entries
            .values()
            .filter(|e| matches!(e, JournalEntry::Failed(_)))
            .count()
    }

    /// The journaled run for `job`, if it completed successfully.
    pub fn run(&self, job: usize) -> Option<&MeasuredRun> {
        match self.entries.get(&job)? {
            JournalEntry::Run(run) => Some(run),
            JournalEntry::Failed(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run(x: f64) -> MeasuredRun {
        MeasuredRun {
            cpi: DetailedCpi {
                l2_private_data: x,
                ..DetailedCpi::default()
            },
            accesses: 1000 + x as u64,
            instructions: 5e5,
            off_chip_rate: 0.25,
            l1_to_l1_rate: 0.01,
            misclassification_rate: 0.0,
            reclassifications: 3,
        }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("rnuca-journal-{}-{name}", std::process::id()))
    }

    #[test]
    fn measured_run_snap_roundtrips() {
        let run = sample_run(1.5);
        let mut buf = Vec::new();
        run.encode(&mut buf);
        assert_eq!(buf.len(), run_payload_len());
        let decoded = MeasuredRun::decode(&mut SnapReader::new(&buf));
        assert_eq!(decoded, run);
    }

    #[test]
    fn journal_roundtrips_and_is_order_insensitive() {
        let path = temp_path("roundtrip");
        let journal = SweepJournal::create(&path, 0xFEED, 5).unwrap();
        // Completion order 3, 0, 4 — job order must come back regardless.
        journal.append(3, &sample_run(3.0)).unwrap();
        journal.append(0, &sample_run(0.0)).unwrap();
        journal.append(4, &sample_run(4.0)).unwrap();
        drop(journal);

        let replay = JournalReplay::load(&path).unwrap();
        assert_eq!(replay.fingerprint, 0xFEED);
        assert_eq!(replay.jobs, 5);
        assert_eq!(replay.completed(), 3);
        assert!(!replay.torn_tail);
        assert_eq!(replay.run(0), Some(&sample_run(0.0)));
        assert_eq!(replay.entries.get(&1), None);
        assert_eq!(replay.run(3), Some(&sample_run(3.0)));
        assert_eq!(replay.run(4), Some(&sample_run(4.0)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failure_entries_roundtrip_with_their_cause() {
        let path = temp_path("failure");
        let journal = SweepJournal::create(&path, 0xF00D, 4).unwrap();
        journal.append(0, &sample_run(0.0)).unwrap();
        journal
            .append_failure(
                1,
                &JournalFailure {
                    attempts: 3,
                    cause: FailureCause::Panic,
                    message: "member OLTP DB2 exploded".to_string(),
                },
            )
            .unwrap();
        journal
            .append_failure(
                2,
                &JournalFailure {
                    attempts: 1,
                    cause: FailureCause::Deadline,
                    message: String::new(),
                },
            )
            .unwrap();
        drop(journal);

        let replay = JournalReplay::load(&path).unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(replay.completed(), 3);
        assert_eq!(replay.failed(), 2);
        assert_eq!(replay.run(0), Some(&sample_run(0.0)));
        assert_eq!(replay.run(1), None, "a failed job has no run");
        match replay.entries.get(&1) {
            Some(JournalEntry::Failed(f)) => {
                assert_eq!(f.attempts, 3);
                assert_eq!(f.cause, FailureCause::Panic);
                assert_eq!(f.message, "member OLTP DB2 exploded");
            }
            other => panic!("want Failed, got {other:?}"),
        }
        match replay.entries.get(&2) {
            Some(JournalEntry::Failed(f)) => {
                assert_eq!(f.cause, FailureCause::Deadline);
                assert_eq!(f.message, "");
            }
            other => panic!("want Failed, got {other:?}"),
        }
        assert_eq!(replay.entries.get(&3), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_at_every_byte_offset_replays_a_prefix_or_rejects_cleanly() {
        // The torn-tail property, exhaustively: whatever byte a crash cuts
        // the file at, resume must either replay an intact prefix of the
        // journaled entries or reject with a typed error — never panic,
        // never fabricate an entry that was not fully written.
        let path = temp_path("every-offset");
        let journal = SweepJournal::create(&path, 0xBEEF, 6).unwrap();
        journal.append(0, &sample_run(0.0)).unwrap();
        journal
            .append_failure(
                1,
                &JournalFailure {
                    attempts: 2,
                    cause: FailureCause::Panic,
                    message: "poisoned".to_string(),
                },
            )
            .unwrap();
        journal.append(2, &sample_run(2.0)).unwrap();
        drop(journal);
        let full = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        // The entries the full journal holds, as ground truth.
        let expected = [
            JournalEntry::Run(sample_run(0.0)),
            JournalEntry::Failed(JournalFailure {
                attempts: 2,
                cause: FailureCause::Panic,
                message: "poisoned".to_string(),
            }),
            JournalEntry::Run(sample_run(2.0)),
        ];

        let trunc_path = temp_path("every-offset-trunc");
        for cut in 0..=full.len() {
            std::fs::write(&trunc_path, &full[..cut]).unwrap();
            let outcome = std::panic::catch_unwind(|| JournalReplay::load(&trunc_path));
            let result = outcome
                .unwrap_or_else(|_| panic!("replay panicked on a journal cut at byte {cut}"));
            match result {
                Ok(replay) => {
                    assert!(
                        cut >= HEADER_LEN as usize,
                        "a cut inside the header (byte {cut}) must be rejected"
                    );
                    // Every surviving entry must be one the full journal
                    // wrote, and they must form a prefix in file order:
                    // entry k survives only if its whole frame fits.
                    for (&job, e) in &replay.entries {
                        match expected.get(job) {
                            Some(want) => assert_eq!(
                                e, want,
                                "cut at byte {cut} fabricated a different entry for job {job}"
                            ),
                            None => panic!("cut at byte {cut} fabricated job {job}: {e:?}"),
                        }
                    }
                    let survived = replay.completed();
                    assert!(
                        (replay.valid_len as usize) <= cut,
                        "valid_len must not pass the cut"
                    );
                    assert_eq!(
                        replay.torn_tail,
                        (replay.valid_len as usize) < cut,
                        "bytes past the last intact entry must be flagged torn (cut {cut})"
                    );
                    // Prefix property: entries survive strictly in file
                    // order 0, 1, 2 — a later entry never outlives an
                    // earlier one under pure truncation.
                    for job in 0..survived {
                        assert!(
                            replay.entries.contains_key(&job),
                            "cut at byte {cut}: entry {job} missing from a {survived}-entry prefix"
                        );
                    }
                }
                Err(JournalError::Corrupt { .. }) => {
                    assert!(
                        cut < HEADER_LEN as usize,
                        "an intact header with truncated entries (cut {cut}) must replay, \
                         not reject"
                    );
                }
                Err(other) => panic!("cut at byte {cut}: unexpected error {other}"),
            }
        }
        std::fs::remove_file(&trunc_path).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_resume_truncates_it() {
        let path = temp_path("torn");
        let journal = SweepJournal::create(&path, 7, 4).unwrap();
        journal.append(0, &sample_run(0.0)).unwrap();
        journal.append(1, &sample_run(1.0)).unwrap();
        drop(journal);
        let intact_len = std::fs::metadata(&path).unwrap().len();

        // Simulate a crash mid-append: half of job 2's entry.
        let mut entry = Vec::new();
        2u64.encode(&mut entry);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&entry).unwrap();
        drop(file);

        let replay = JournalReplay::load(&path).unwrap();
        assert!(replay.torn_tail);
        assert_eq!(replay.completed(), 2);
        assert_eq!(replay.valid_len, intact_len);

        // Resume truncates the torn tail and appends cleanly after it.
        let (journal, entries) = SweepJournal::open(&path, true, 7, 4).unwrap();
        assert_eq!(entries.iter().filter(|e| e.is_some()).count(), 2);
        journal.append(2, &sample_run(2.0)).unwrap();
        drop(journal);
        let replay = JournalReplay::load(&path).unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(replay.completed(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checksum_damage_is_detected_as_a_torn_tail() {
        let path = temp_path("checksum");
        let journal = SweepJournal::create(&path, 7, 2).unwrap();
        journal.append(0, &sample_run(0.0)).unwrap();
        drop(journal);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let replay = JournalReplay::load(&path).unwrap();
        assert!(replay.torn_tail);
        assert_eq!(replay.completed(), 0);
        assert_eq!(replay.valid_len, HEADER_LEN);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_damage_is_an_error_with_an_offset() {
        let path = temp_path("header");

        std::fs::write(&path, b"short").unwrap();
        match JournalReplay::load(&path).unwrap_err() {
            JournalError::Corrupt { offset, message } => {
                assert_eq!(offset, 5);
                assert!(message.contains("truncated"));
            }
            other => panic!("want Corrupt, got {other}"),
        }

        std::fs::write(&path, vec![0u8; HEADER_LEN as usize]).unwrap();
        match JournalReplay::load(&path).unwrap_err() {
            JournalError::Corrupt { offset, .. } => assert_eq!(offset, 0),
            other => panic!("want Corrupt, got {other}"),
        }

        let mut header = Vec::new();
        header.extend_from_slice(JOURNAL_MAGIC);
        99u32.encode(&mut header);
        0u64.encode(&mut header);
        0u64.encode(&mut header);
        std::fs::write(&path, &header).unwrap();
        match JournalReplay::load(&path).unwrap_err() {
            JournalError::Corrupt { offset, message } => {
                assert_eq!(offset, 8);
                assert!(message.contains("version 99"));
            }
            other => panic!("want Corrupt, got {other}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_job_counts_are_checked_before_any_allocation() {
        let path = temp_path("huge");
        let header = |jobs: u64| {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(JOURNAL_MAGIC);
            JOURNAL_VERSION.encode(&mut bytes);
            7u64.encode(&mut bytes);
            jobs.encode(&mut bytes);
            bytes
        };

        // A count no sweep can have is a damaged header, not a panic.
        std::fs::write(&path, header(u64::MAX)).unwrap();
        match JournalReplay::load(&path).unwrap_err() {
            JournalError::Corrupt { offset, message } => {
                assert_eq!(offset, HEADER_LEN - 8, "the job-count field");
                assert!(message.contains("jobs"), "{message}");
            }
            other => panic!("want Corrupt, got {other}"),
        }

        // A large but legal count: inspection holds only the entries
        // present, and resuming against a real matrix is refused on the
        // count before a per-job table is built.
        let journal = SweepJournal::create(&path, 7, MAX_JOURNAL_JOBS).unwrap();
        journal.append(5, &sample_run(5.0)).unwrap();
        drop(journal);
        let replay = JournalReplay::load(&path).unwrap();
        assert_eq!(replay.jobs, MAX_JOURNAL_JOBS);
        assert_eq!(replay.completed(), 1);
        assert_eq!(replay.run(5), Some(&sample_run(5.0)));
        match SweepJournal::open(&path, true, 7, 4).unwrap_err() {
            JournalError::JobCountMismatch { found, expected } => {
                assert_eq!((found, expected), (MAX_JOURNAL_JOBS, 4));
            }
            other => panic!("want JobCountMismatch, got {other}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn out_of_range_job_index_is_corrupt() {
        let path = temp_path("range");
        let journal = SweepJournal::create(&path, 7, 2).unwrap();
        journal.append(9, &sample_run(0.0)).unwrap();
        drop(journal);
        match JournalReplay::load(&path).unwrap_err() {
            JournalError::Corrupt { offset, message } => {
                assert_eq!(offset, HEADER_LEN);
                assert!(message.contains("job 9"));
            }
            other => panic!("want Corrupt, got {other}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_io_not_corrupt() {
        let err = JournalReplay::load(Path::new("/nonexistent/rnuca.jl")).unwrap_err();
        assert!(matches!(err, JournalError::Io(_)));
        assert!(err.to_string().contains("i/o"));
    }
}
