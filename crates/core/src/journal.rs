//! Write-ahead journals: one crash-safe container under both study
//! engines (DESIGN.md §6d).
//!
//! The paper's campaigns ran for days on physical devices; losing the
//! process meant losing every finished app. The journal fixes that for the
//! reproduction: the supervisor appends one record per *completed* unit of
//! work, and a resume replays the journal to skip finished work.
//! [`Journal`] is the container and a [`Record`] kind supplies the magic
//! and the payload codec: [`ResultJournal`] (`PINJRNL1`) holds one
//! [`JournalEntry`] per app, and
//! [`StreamJournal`](crate::stream::StreamJournal) (`STRMJRN1`) one
//! shard's accumulator per shard.
//!
//! ## Format
//!
//! ```text
//! header:  magic (8 bytes) ‖ config fingerprint (32 bytes, SHA-256)
//! record:  [payload len: u32 LE] [SHA-256(payload): 32 bytes] [payload]
//! ```
//!
//! Records are appended in commit order (which varies with scheduling) and
//! are keyed by app or shard index, so replay order never matters. A
//! per-app payload is the TLV encoding (same [`pinning_pki::encode`]
//! machinery as simcap v2) of a [`JournalEntry`] carrying only *dynamic
//! observables* — app ids and static findings are recomputed
//! deterministically from the regenerated world, keeping journals small
//! and resume byte-identical.
//!
//! ## Corruption tolerance
//!
//! A process killed mid-append leaves a torn tail; a bad disk can flip
//! bits anywhere. [`Journal::open`] therefore runs the shared scrubber
//! ([`pinning_resilience::recovery::scrub_frames`]): every record
//! checksum is verified, damaged spans are quarantined, and the reader
//! *resyncs* past mid-journal damage instead of abandoning the remainder
//! — sound because records are keyed and replay order never matters. A
//! frame whose checksum holds but whose payload does not decode is
//! quarantined too. Everything discarded is accounted in
//! [`Replay::stats`]; damage to the header itself is unrecoverable and
//! surfaces as a [`JournalError`].
//!
//! ## Durable media
//!
//! The journal writes through the [`Media`] storage contract. The
//! default [`VecMedia`] is the perfect in-memory buffer — byte-identical
//! to the pre-`Media` journal — while
//! [`FaultMedia`](pinning_resilience::FaultMedia) injects torn writes,
//! lying flushes, bit rot, and ENOSPC for the chaos suite. Each append
//! is followed by a flush barrier, so on honest media every committed
//! record is durable the moment the append returns.

use pinning_netsim::faults::{InputLayer, MalformedKind, MeasurementError};
use pinning_pki::encode::{Reader, Writer};
use pinning_pki::error::DecodeError;
use pinning_resilience::media::{Media, MediaError, VecMedia};
use pinning_resilience::recovery::{append_frame, scrub_frames, ScrubStats, FRAME_OVERHEAD};
use std::marker::PhantomData;

/// Magic bytes opening every per-app journal (format version 1).
pub const JOURNAL_MAGIC: &[u8; 8] = b"PINJRNL1";

/// Header length: magic plus the 32-byte config fingerprint.
const HEADER_LEN: usize = 8 + 32;

/// A journal whose header is damaged, or whose medium refused a write.
///
/// Record-level damage is *not* an error — [`Journal::open`]
/// quarantines around it instead — but without an intact header there is
/// no fingerprint to validate a resume against, so the journal is
/// unusable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalError {
    /// Shorter than a header: nothing was ever committed.
    TooShort,
    /// The magic bytes don't match this journal kind.
    BadMagic,
    /// The journal was written under a different study configuration, so
    /// resuming from it would splice incompatible measurements.
    FingerprintMismatch,
    /// The backing medium refused a write (e.g. out of space).
    Media(MediaError),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::TooShort => write!(f, "journal shorter than its header"),
            JournalError::BadMagic => write!(f, "journal magic bytes unrecognized"),
            JournalError::FingerprintMismatch => {
                write!(f, "journal belongs to a different study configuration")
            }
            JournalError::Media(e) => write!(f, "journal medium failed: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<MediaError> for JournalError {
    fn from(e: MediaError) -> JournalError {
        JournalError::Media(e)
    }
}

/// One kind of journal record: the magic that opens a journal of this
/// kind, and the decoder for one frame's payload.
pub trait Record: Sized {
    /// Magic bytes opening the journal (they also version the format).
    const MAGIC: &'static [u8; 8];

    /// Decodes one checksum-valid payload; `None` quarantines the frame.
    fn decode(payload: &[u8]) -> Option<Self>;
}

/// The recoverable content of a journal, as scrubbed by
/// [`Journal::open`].
#[derive(Debug, Clone)]
pub struct Replay<R = JournalEntry> {
    /// Config fingerprint the journal was created under.
    pub fingerprint: [u8; 32],
    /// Records recovered, in commit order.
    pub entries: Vec<R>,
    /// Quarantine and repair accounting from the scrub pass (all zero =
    /// the journal read back exactly as written).
    pub stats: ScrubStats,
}

impl<R> Replay<R> {
    /// Whether the journal lost bytes to damage (including repaired
    /// damage — a resynced or deduplicated journal is degraded, not
    /// pristine).
    pub fn truncated(&self) -> bool {
        !self.stats.is_clean()
    }
}

/// An append-only, checksummed journal of `R` records over a [`Media`].
///
/// The default medium is [`VecMedia`]: the byte buffer that would sit on
/// disk, with callers owning persistence (the examples write it to a
/// file between kill and resume). The chaos suite substitutes
/// [`FaultMedia`](pinning_resilience::FaultMedia) to prove recovery
/// under hostile storage.
#[derive(Debug, Clone)]
pub struct Journal<R, M: Media = VecMedia> {
    media: M,
    frames: usize,
    kind: PhantomData<fn() -> R>,
}

/// The per-app journal (`PINJRNL1`): one [`JournalEntry`] per app.
pub type ResultJournal<M = VecMedia> = Journal<JournalEntry, M>;

impl<R: Record> Journal<R> {
    /// A fresh in-memory journal bound to `fingerprint` (see
    /// [`crate::study::StudyConfig::fingerprint`]).
    pub fn create(fingerprint: [u8; 32]) -> Self {
        Journal::create_on(VecMedia::new(), fingerprint).expect("VecMedia never refuses a write")
    }

    /// The journal's current on-disk image.
    pub fn as_bytes(&self) -> &[u8] {
        self.media.bytes()
    }

    /// Consumes the journal, returning its on-disk image.
    pub fn into_bytes(self) -> Vec<u8> {
        self.media.into_bytes()
    }

    /// Scrubs a journal image, recovering every intact record.
    ///
    /// Never panics on hostile input: torn tails, flipped bits, wild
    /// length fields, duplicated segments and undecodable payloads are
    /// quarantined (and, where possible, resynced past) by the shared
    /// [`scrub_frames`] reader, with the damage accounted in
    /// [`Replay::stats`]. Only a damaged *header* is an error.
    pub fn open(bytes: &[u8]) -> Result<Replay<R>, JournalError> {
        if bytes.len() < HEADER_LEN {
            return Err(JournalError::TooShort);
        }
        if &bytes[..8] != R::MAGIC {
            return Err(JournalError::BadMagic);
        }
        let mut fingerprint = [0u8; 32];
        fingerprint.copy_from_slice(&bytes[8..HEADER_LEN]);
        let (entries, stats) = decode_frames(bytes, HEADER_LEN);
        Ok(Replay {
            fingerprint,
            entries,
            stats,
        })
    }

    /// [`Journal::open`] for a resume: also rejects a journal written
    /// under any fingerprint but `fingerprint`.
    pub fn open_expecting(bytes: &[u8], fingerprint: [u8; 32]) -> Result<Replay<R>, JournalError> {
        let replay = Self::open(bytes)?;
        if replay.fingerprint != fingerprint {
            return Err(JournalError::FingerprintMismatch);
        }
        Ok(replay)
    }

    /// The records appended to this journal after its first `offset`
    /// bytes: what a run committed on top of the image it was handed.
    pub(crate) fn entries_since(&self, offset: usize) -> Vec<R> {
        decode_frames(self.as_bytes(), offset).0
    }
}

/// Scrubs and decodes every frame from byte `start` on.
fn decode_frames<R: Record>(bytes: &[u8], start: usize) -> (Vec<R>, ScrubStats) {
    let recovered = scrub_frames(bytes, start);
    let mut stats = recovered.stats;
    let mut entries = Vec::with_capacity(recovered.frames.len());
    for payload in recovered.frames {
        match R::decode(payload) {
            Some(entry) => entries.push(entry),
            // Checksum-valid but undecodable: version skew rather than
            // bit rot. Quarantine the record and keep going — records
            // are independent.
            None => {
                stats.quarantined_bytes += (FRAME_OVERHEAD + payload.len()) as u64;
                stats.quarantined_records += 1;
            }
        }
    }
    (entries, stats)
}

impl<R: Record, M: Media> Journal<R, M> {
    /// A fresh journal written through `media`, bound to `fingerprint`.
    ///
    /// Resets the medium, writes the header, and flushes it — on honest
    /// media the header is durable when this returns.
    pub fn create_on(mut media: M, fingerprint: [u8; 32]) -> Result<Self, MediaError> {
        media.reset();
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(R::MAGIC);
        header.extend_from_slice(&fingerprint);
        media.append(&header)?;
        media.flush()?;
        Ok(Journal {
            media,
            frames: 0,
            kind: PhantomData,
        })
    }

    /// Frames and appends one encoded record payload.
    pub(crate) fn try_append_payload(&mut self, payload: &[u8]) -> Result<(), MediaError> {
        let mut frame = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
        append_frame(&mut frame, payload);
        self.try_append_frame(&frame)
    }

    /// Appends one already-framed record, with a flush barrier so the
    /// record is durable on return (honest media).
    fn try_append_frame(&mut self, frame: &[u8]) -> Result<(), MediaError> {
        self.media.append(frame)?;
        self.media.flush()?;
        self.frames += 1;
        Ok(())
    }

    /// Records committed through this journal since it was created.
    pub fn len(&self) -> usize {
        self.frames
    }

    /// Whether no record has been committed yet.
    pub fn is_empty(&self) -> bool {
        self.frames == 0
    }

    /// Borrow of the backing medium.
    pub fn media(&self) -> &M {
        &self.media
    }

    /// Mutable borrow of the backing medium (e.g. to crash it).
    #[cfg(test)]
    pub fn media_mut(&mut self) -> &mut M {
        &mut self.media
    }

    /// Consumes the journal, returning the backing medium.
    pub fn into_media(self) -> M {
        self.media
    }
}

/// Dynamic observables for one successfully measured app — exactly the
/// fields of [`crate::record::AppRecord`] that cannot be recomputed from
/// the world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasuredApp {
    /// Destinations detected as pinned.
    pub pinned_destinations: Vec<String>,
    /// Destinations used in the baseline run.
    pub used_destinations: Vec<String>,
    /// ≥1 connection advertised a weak cipher.
    pub weak_overall: bool,
    /// ≥1 pinned connection advertised a weak cipher.
    pub weak_pinned: bool,
    /// Plaintext recovered from circumvented pinned connections.
    pub pinned_bodies: Vec<String>,
    /// Plaintext recovered from ordinary MITM'd flows.
    pub unpinned_bodies: Vec<String>,
    /// Circumvention attempt: (attempted, succeeded) destinations.
    pub circumvention: Option<(Vec<String>, Vec<String>)>,
    /// Baseline handshake count.
    pub n_handshakes_baseline: u64,
    /// Whether the iOS settle re-run was applied.
    pub settled_rerun: bool,
    /// Circuit-breaker trips across this app's endpoints.
    pub breaker_trips: u32,
}

/// How one app's measurement concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppOutcome {
    /// The dynamic pipeline completed.
    Measured(Box<MeasuredApp>),
    /// Every retry degraded; the app is recorded with this error.
    Failed(MeasurementError),
}

/// One committed per-app journal record: the outcome for one app.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Index into the world's app list.
    pub app_index: u64,
    /// The measurement outcome.
    pub outcome: AppOutcome,
}

impl Record for JournalEntry {
    const MAGIC: &'static [u8; 8] = JOURNAL_MAGIC;

    fn decode(payload: &[u8]) -> Option<Self> {
        decode_entry(payload).ok()
    }
}

/// One per-app journal record, encoded and framed once.
///
/// A frame does not depend on the journal it lands in (the header holds
/// the fingerprint), so a record that has not changed can be carried into
/// a new journal without encoding or checksumming it again. Only
/// [`EncodedEntry::new`] builds one, so it is always a valid frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedEntry(Vec<u8>);

impl EncodedEntry {
    /// Encodes and frames `entry`.
    pub fn new(entry: &JournalEntry) -> Self {
        let payload = encode_entry(entry);
        let mut frame = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
        append_frame(&mut frame, &payload);
        EncodedEntry(frame)
    }
}

impl ResultJournal {
    /// Appends one committed app outcome (infallible on perfect media).
    pub fn append(&mut self, entry: &JournalEntry) {
        self.try_append(entry)
            .expect("VecMedia never refuses a write")
    }

    /// [`ResultJournal::append`] for a record encoded earlier.
    pub fn append_encoded(&mut self, entry: &EncodedEntry) {
        self.try_append_encoded(entry)
            .expect("VecMedia never refuses a write")
    }
}

impl<M: Media> ResultJournal<M> {
    /// Appends one committed app outcome through the medium, with a
    /// flush barrier so the record is durable on return (honest media).
    pub fn try_append(&mut self, entry: &JournalEntry) -> Result<(), MediaError> {
        self.try_append_encoded(&EncodedEntry::new(entry))
    }

    /// [`ResultJournal::try_append`] for a record encoded earlier.
    pub fn try_append_encoded(&mut self, entry: &EncodedEntry) -> Result<(), MediaError> {
        self.try_append_frame(&entry.0)
    }
}

/// Sentinel label for the structured `MalformedInput` error, which journals
/// as the sentinel plus `(layer, reason)` indices rather than a bare label.
const MALFORMED_SENTINEL: &str = "malformed-input";

fn encode_outcome_error(w: &mut Writer, error: MeasurementError) {
    match error.malformed_parts() {
        Some((layer, reason)) => {
            w.string(MALFORMED_SENTINEL);
            let layer_ix = InputLayer::ALL.iter().position(|l| *l == layer);
            let reason_ix = MalformedKind::ALL.iter().position(|k| *k == reason);
            // Both enums enumerate every variant in ALL, so the positions
            // always exist; encode defensively anyway.
            w.u64(layer_ix.unwrap_or(0) as u64);
            w.u64(reason_ix.unwrap_or(0) as u64);
        }
        None => w.string(error.label()),
    }
}

fn decode_outcome_error(r: &mut Reader<'_>) -> Result<MeasurementError, DecodeError> {
    let label = r.string()?;
    if label == MALFORMED_SENTINEL {
        let layer = InputLayer::ALL
            .get(r.u64()? as usize)
            .copied()
            .ok_or(DecodeError::BadFieldSize)?;
        let reason = MalformedKind::ALL
            .get(r.u64()? as usize)
            .copied()
            .ok_or(DecodeError::BadFieldSize)?;
        return Ok(MeasurementError::MalformedInput { layer, reason });
    }
    MeasurementError::ALL
        .into_iter()
        .find(|e| e.label() == label)
        .ok_or(DecodeError::BadFieldSize)
}

fn encode_entry(entry: &JournalEntry) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(entry.app_index);
    match &entry.outcome {
        AppOutcome::Failed(error) => {
            w.u64(0);
            encode_outcome_error(&mut w, *error);
        }
        AppOutcome::Measured(m) => {
            w.u64(1);
            w.list(&m.pinned_destinations, |w, s| w.string(s));
            w.list(&m.used_destinations, |w, s| w.string(s));
            w.boolean(m.weak_overall);
            w.boolean(m.weak_pinned);
            w.list(&m.pinned_bodies, |w, s| w.string(s));
            w.list(&m.unpinned_bodies, |w, s| w.string(s));
            match &m.circumvention {
                Some((attempted, succeeded)) => {
                    w.boolean(true);
                    w.list(attempted, |w, s| w.string(s));
                    w.list(succeeded, |w, s| w.string(s));
                }
                None => w.boolean(false),
            }
            w.u64(m.n_handshakes_baseline);
            w.boolean(m.settled_rerun);
            w.u64(m.breaker_trips as u64);
        }
    }
    w.into_bytes()
}

fn decode_entry(payload: &[u8]) -> Result<JournalEntry, DecodeError> {
    let mut r = Reader::new(payload);
    let app_index = r.u64()?;
    let outcome = match r.u64()? {
        0 => AppOutcome::Failed(decode_outcome_error(&mut r)?),
        1 => {
            let pinned_destinations = r.list(|r| r.string())?;
            let used_destinations = r.list(|r| r.string())?;
            let weak_overall = r.boolean()?;
            let weak_pinned = r.boolean()?;
            let pinned_bodies = r.list(|r| r.string())?;
            let unpinned_bodies = r.list(|r| r.string())?;
            let circumvention = if r.boolean()? {
                Some((r.list(|r| r.string())?, r.list(|r| r.string())?))
            } else {
                None
            };
            AppOutcome::Measured(Box::new(MeasuredApp {
                pinned_destinations,
                used_destinations,
                weak_overall,
                weak_pinned,
                pinned_bodies,
                unpinned_bodies,
                circumvention,
                n_handshakes_baseline: r.u64()?,
                settled_rerun: r.boolean()?,
                breaker_trips: r.u64()? as u32,
            }))
        }
        _ => return Err(DecodeError::BadFieldSize),
    };
    if !r.is_empty() {
        return Err(DecodeError::BadLength);
    }
    Ok(JournalEntry { app_index, outcome })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::CategoryTally;
    use crate::stream::{ShardEntry, StreamJournal};
    use crate::StreamAccum;
    use pinning_crypto::{hex_encode, sha256};

    /// The fingerprint of the fixed images in [`every_journal_kind_recovers_and_rejects_alike`].
    const FP: [u8; 32] = [0x5A; 32];

    /// Two fixed per-app records under [`FP`].
    fn app_image() -> Vec<u8> {
        let entries = sample_entries();
        let mut j = ResultJournal::create(FP);
        j.append(&entries[0]);
        j.append(&entries[2]);
        j.into_bytes()
    }

    fn shard_accum(k: u64) -> StreamAccum {
        let mut acc = StreamAccum {
            shards: 1,
            apps: 2 + k,
            ..Default::default()
        };
        acc.platform[0].apps = 1 + k;
        acc.platform[0].pinned = 1;
        acc.platform[1].handshakes = 9 + k;
        acc.dataset[1][2].apps = k + 1;
        acc.categories[0].insert("Shopping".into(), CategoryTally { apps: 1, pinned: k });
        acc.errors.insert("timeout".into(), k + 1);
        acc
    }

    /// Two fixed shard records under [`FP`].
    fn shard_image() -> Vec<u8> {
        let mut j = StreamJournal::create(FP);
        j.append_shard(0, &shard_accum(0));
        j.append_shard(5, &shard_accum(5));
        j.into_bytes()
    }

    /// The container's contract for one record kind, given an image of
    /// two records of that kind, an image of the other kind, and the
    /// SHA-256 the image must hash to (computed from the format as first
    /// shipped, so any byte change to the format fails here).
    fn check_kind<R: Record>(image: &[u8], other_kind: &[u8], frozen_sha256: &str) {
        let kind = String::from_utf8_lossy(R::MAGIC);
        assert_eq!(
            hex_encode(&sha256(image)),
            frozen_sha256,
            "{kind}: format moved"
        );

        let replay = Journal::<R>::open(image).unwrap();
        assert_eq!((replay.fingerprint, replay.entries.len()), (FP, 2));
        assert!(!replay.truncated());

        let err = |bytes: &[u8]| Journal::<R>::open(bytes).err();
        assert_eq!(err(&image[..HEADER_LEN - 1]), Some(JournalError::TooShort));
        let mut bad_magic = image.to_vec();
        bad_magic[0] ^= 0xFF;
        assert_eq!(err(&bad_magic), Some(JournalError::BadMagic), "{kind}");
        assert_eq!(err(other_kind), Some(JournalError::BadMagic), "{kind}");
        assert_eq!(
            Journal::<R>::open_expecting(image, [0xA5; 32]).err(),
            Some(JournalError::FingerprintMismatch),
            "{kind}"
        );
        assert!(Journal::<R>::open_expecting(image, FP).is_ok());

        // A torn tail loses the last record; it is expected crash damage,
        // so it counts bytes but no lost record.
        let torn = Journal::<R>::open(&image[..image.len() - 7]).unwrap();
        assert_eq!(torn.entries.len(), 1, "{kind}");
        assert!(torn.stats.quarantined_bytes > 0);
        assert_eq!(torn.stats.quarantined_records, 0, "{kind}");

        // A flipped payload byte in the first record loses that record;
        // the scrubber resyncs and keeps the second.
        let mut flipped = image.to_vec();
        flipped[HEADER_LEN + FRAME_OVERHEAD + 2] ^= 0x10;
        let replay = Journal::<R>::open(&flipped).unwrap();
        assert_eq!(replay.entries.len(), 1, "{kind}");
        assert_eq!(
            (replay.stats.quarantined_records, replay.stats.repairs),
            (1, 1),
            "{kind}"
        );

        // A checksum-valid frame that does not decode is quarantined.
        let mut skewed = Journal::<R>::create(FP);
        skewed.try_append_payload(b"junk").unwrap();
        assert_eq!(skewed.len(), 1);
        let replay = Journal::<R>::open(skewed.as_bytes()).unwrap();
        assert!(replay.entries.is_empty());
        assert_eq!(replay.stats.quarantined_records, 1, "{kind}");
        assert_eq!(replay.stats.quarantined_bytes, (FRAME_OVERHEAD + 4) as u64);
    }

    #[test]
    fn every_journal_kind_recovers_and_rejects_alike() {
        let (apps, shards) = (app_image(), shard_image());
        check_kind::<JournalEntry>(
            &apps,
            &shards,
            "8054a2a58c4ca34a2554ddd549f0760bc7e393dd04aa6bd5d7c05344a5acb40a",
        );
        check_kind::<ShardEntry>(
            &shards,
            &apps,
            "fe83cc201e1fe923e9bd53cb391c9791b6c6e9f956377d4643de478c4481c93a",
        );
    }

    fn sample_entries() -> Vec<JournalEntry> {
        vec![
            JournalEntry {
                app_index: 3,
                outcome: AppOutcome::Measured(Box::new(MeasuredApp {
                    pinned_destinations: vec!["pins.shop.com".into()],
                    used_destinations: vec!["api.shop.com".into(), "pins.shop.com".into()],
                    weak_overall: true,
                    weak_pinned: false,
                    pinned_bodies: vec!["adid=x".into()],
                    unpinned_bodies: vec![],
                    circumvention: Some((vec!["pins.shop.com".into()], vec![])),
                    n_handshakes_baseline: 7,
                    settled_rerun: true,
                    breaker_trips: 2,
                })),
            },
            JournalEntry {
                app_index: 9,
                outcome: AppOutcome::Failed(MeasurementError::WorkerPanic),
            },
            JournalEntry {
                app_index: 12,
                outcome: AppOutcome::Failed(MeasurementError::MalformedInput {
                    layer: InputLayer::Chain,
                    reason: MalformedKind::LimitExceeded,
                }),
            },
            JournalEntry {
                app_index: 0,
                outcome: AppOutcome::Measured(Box::new(MeasuredApp {
                    pinned_destinations: vec![],
                    used_destinations: vec![],
                    weak_overall: false,
                    weak_pinned: false,
                    pinned_bodies: vec![],
                    unpinned_bodies: vec![],
                    circumvention: None,
                    n_handshakes_baseline: 0,
                    settled_rerun: false,
                    breaker_trips: 0,
                })),
            },
        ]
    }

    fn journal() -> ResultJournal {
        let mut j = ResultJournal::create([0xAB; 32]);
        for e in sample_entries() {
            j.append(&e);
        }
        j
    }

    #[test]
    fn roundtrip_preserves_entries_and_fingerprint() {
        let j = journal();
        let replay = ResultJournal::open(j.as_bytes()).unwrap();
        assert_eq!(replay.fingerprint, [0xAB; 32]);
        assert_eq!(replay.entries, sample_entries());
        assert!(replay.stats.is_clean());
        assert!(!replay.truncated());
        assert_eq!(j.len(), 4);
    }

    #[test]
    fn encoded_entries_carry_into_any_journal_unchanged() {
        let encoded: Vec<EncodedEntry> = sample_entries().iter().map(EncodedEntry::new).collect();
        let mut j = ResultJournal::create([0xAB; 32]);
        for e in &encoded {
            j.append_encoded(e);
        }
        assert_eq!(j.as_bytes(), journal().as_bytes());
        // The same frames under another header read back the same records.
        let mut other = ResultJournal::create([0xCD; 32]);
        for e in &encoded {
            other.append_encoded(e);
        }
        let replay = ResultJournal::open(other.as_bytes()).unwrap();
        assert_eq!(replay.fingerprint, [0xCD; 32]);
        assert_eq!(replay.entries, sample_entries());
    }

    #[test]
    fn wild_length_field_does_not_overread() {
        let j = journal();
        let mut bytes = j.as_bytes().to_vec();
        // Claim the first record is enormous.
        bytes[40..44].copy_from_slice(&u32::MAX.to_le_bytes());
        let replay = ResultJournal::open(&bytes).unwrap();
        assert_eq!(
            replay.entries,
            sample_entries()[1..].to_vec(),
            "records beyond the wild length are recovered"
        );
        assert_eq!(replay.stats.quarantined_records, 1);
        assert!(replay.stats.quarantined_bytes > 0);
    }

    #[test]
    fn faultless_fault_media_matches_vec_media_byte_for_byte() {
        use pinning_resilience::media::{FaultMedia, MediaFaultPlan};
        let legacy = journal();
        let mut hostile =
            ResultJournal::create_on(FaultMedia::new(MediaFaultPlan::none(42)), [0xAB; 32])
                .unwrap();
        for e in sample_entries() {
            hostile.try_append(&e).unwrap();
        }
        hostile.media_mut().crash();
        assert_eq!(
            hostile.media_mut().read_back(),
            legacy.as_bytes(),
            "a fault-free FaultMedia journal is byte-identical to VecMedia"
        );
    }

    #[test]
    fn nospace_surfaces_as_structured_media_error() {
        use pinning_resilience::media::{FaultMedia, MediaFaultPlan};
        let mut j =
            ResultJournal::create_on(FaultMedia::new(MediaFaultPlan::tight(3, 120)), [7; 32])
                .unwrap();
        let mut refused = 0;
        for e in sample_entries() {
            if j.try_append(&e) == Err(MediaError::NoSpace) {
                refused += 1;
            }
        }
        assert!(refused > 0, "120 bytes cannot hold the sample journal");
        // Whatever was committed before ENOSPC still scrubs cleanly.
        let replay = ResultJournal::open(&j.media_mut().read_back()).unwrap();
        assert!(replay.entries.len() < sample_entries().len());
    }

    #[test]
    fn empty_journal_is_valid() {
        let j = ResultJournal::create([1; 32]);
        assert!(j.is_empty());
        let replay = ResultJournal::open(j.as_bytes()).unwrap();
        assert!(replay.entries.is_empty());
        assert!(!replay.truncated());
    }
}
