//! Cache entry metadata.
//!
//! An entry tracks everything the consistency policies need to decide
//! validity: when the cached copy was last known to match the origin
//! (`last_validated`), the origin's `Last-Modified` stamp for the copy,
//! any server-assigned expiry, and whether the entry has been *marked
//! invalid but retained* — the key optimization of §3/§4.1 (invalid copies
//! stay resident so a later `If-Modified-Since` can revive them without a
//! body transfer).

use simcore::SimTime;

/// Validity state of a resident cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryState {
    /// Usable without contacting the origin.
    Valid,
    /// Resident but must be revalidated before use (timed out, or an
    /// invalidation notice arrived).
    Invalid,
}

/// Metadata for one cached object. Bodies are synthetic; `size` stands in
/// for the entity bytes.
///
/// Every field but one is what a real cache knows. `superseded_at` is
/// ground truth kept for measurement: the engine stamps it from the
/// origin's scripted history when a body arrives, so that classifying a
/// serve as stale is a comparison, not a search. No `Policy` reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryMeta {
    /// Entity size in bytes.
    pub size: u64,
    /// Origin modification time of the cached copy (`Last-Modified`).
    pub last_modified: SimTime,
    /// The first instant the origin held a newer version than this copy:
    /// [`SimTime::MAX`] when it never does, or when there is no history
    /// to ask. A serve at `now` is stale exactly when `now >=
    /// superseded_at`: versions strictly increase and the copy's
    /// `last_modified` is one of them, at or before `now`, so the version
    /// live at `now` differs from the copy's exactly when the first
    /// version after it was written by `now`. A `304` keeps it — the
    /// version is the same — and every new body sets it again.
    pub superseded_at: SimTime,
    /// Last instant the origin confirmed (or delivered) this copy. The
    /// Alex protocol's "time since last validation" measures from here.
    pub last_validated: SimTime,
    /// Server-assigned absolute expiry, if any (`Expires` / fixed TTL).
    pub expires: Option<SimTime>,
    /// Current validity state.
    pub state: EntryState,
}

// Three 4-byte instants and an 8-byte `Option<SimTime>` beside the size:
// the entry is 32 bytes.
const _: () = assert!(core::mem::size_of::<EntryMeta>() == 32);

impl EntryMeta {
    /// A freshly fetched entry: validated now, valid, no expiry assigned,
    /// and not known to be superseded.
    pub fn fresh(size: u64, last_modified: SimTime, now: SimTime) -> Self {
        EntryMeta {
            size,
            last_modified,
            superseded_at: SimTime::MAX,
            last_validated: now,
            expires: None,
            state: EntryState::Valid,
        }
    }

    /// Record a successful revalidation (`304 Not Modified`) at `now`.
    pub fn revalidate(&mut self, now: SimTime) {
        self.last_validated = now;
        self.state = EntryState::Valid;
    }

    /// Mark the entry invalid-but-retained.
    pub fn mark_invalid(&mut self) {
        self.state = EntryState::Invalid;
    }

    /// Whether the entry may serve requests without revalidation.
    pub fn is_valid(&self) -> bool {
        self.state == EntryState::Valid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn fresh_entry_is_valid_and_stamped() {
        let e = EntryMeta::fresh(1000, t(50), t(100));
        assert!(e.is_valid());
        assert_eq!(e.superseded_at, SimTime::MAX);
        assert_eq!(e.last_validated, t(100));
        assert_eq!(e.last_modified, t(50));
        assert_eq!(e.expires, None);
    }

    #[test]
    fn validation_clock_resets_on_revalidate() {
        let mut e = EntryMeta::fresh(1, t(0), t(100));
        e.superseded_at = t(200);
        e.mark_invalid();
        assert!(!e.is_valid());
        e.revalidate(t(300));
        assert!(e.is_valid());
        assert_eq!(e.last_validated, t(300));
        // Revalidation does not touch the body stamps.
        assert_eq!(e.superseded_at, t(200));
        assert_eq!(e.last_modified, t(0));
    }
}
