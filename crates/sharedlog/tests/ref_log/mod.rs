//! A reference shared log: the sequential semantics of Figure 3's API
//! written as plainly as possible, for `reference_log.rs` to hold
//! [`hm_sharedlog::LogService`] against.
//!
//! Every stream keeps every seqnum it was ever given plus how many of them
//! trims removed from its front; every record keeps its payload, its bytes
//! and how many stream entries still name it. No shards, no batches, no
//! caches, no slab: reads scan, and the clock is a counter. Only one
//! operation runs at a time, so a reference step is the effect of one
//! awaited call on the service.

use std::collections::BTreeMap;

use hm_common::{SeqNum, Tag};
use hm_sharedlog::{CondAppendOutcome, RECORD_META_BYTES};

/// One tag's sub-stream.
#[derive(Default)]
struct RefStream {
    /// Every seqnum appended under the tag, oldest first, trimmed or not.
    entries: Vec<SeqNum>,
    /// How many of `entries` trims removed (always a prefix).
    trimmed: usize,
}

impl RefStream {
    fn live(&self) -> &[SeqNum] {
        &self.entries[self.trimmed..]
    }
}

/// One live record.
struct RefRecord {
    payload: String,
    bytes: usize,
    /// Untrimmed stream entries naming the record.
    entries: usize,
}

/// The reference log.
pub struct RefLog {
    streams: BTreeMap<Tag, RefStream>,
    records: BTreeMap<SeqNum, RefRecord>,
    next: SeqNum,
}

impl RefLog {
    /// An empty log whose first record is seqnum 1.
    pub fn new() -> RefLog {
        RefLog {
            streams: BTreeMap::new(),
            records: BTreeMap::new(),
            next: SeqNum(1),
        }
    }

    /// The seqnum the next append receives.
    pub fn head(&self) -> SeqNum {
        self.next
    }

    /// Appends a record under every tag, once per occurrence.
    pub fn append(&mut self, tags: &[Tag], payload: String) -> SeqNum {
        let sn = self.next;
        self.next = SeqNum(sn.0 + 1);
        for &tag in tags {
            self.streams.entry(tag).or_default().entries.push(sn);
        }
        let bytes = payload.len() + RECORD_META_BYTES;
        let entries = tags.len();
        self.records.insert(
            sn,
            RefRecord {
                payload,
                bytes,
                entries,
            },
        );
        sn
    }

    /// Appends only if `cond_tag`'s stream has exactly `cond_pos` entries,
    /// trimmed ones included; otherwise names the entry at `cond_pos`
    /// (zero when there is none, or it was trimmed).
    pub fn cond_append(
        &mut self,
        tags: &[Tag],
        payload: String,
        cond_tag: Tag,
        cond_pos: usize,
    ) -> CondAppendOutcome {
        let stream = self.streams.get(&cond_tag);
        let len = stream.map_or(0, |s| s.entries.len());
        if len == cond_pos {
            return CondAppendOutcome::Appended(self.append(tags, payload));
        }
        let winner = stream
            .filter(|s| cond_pos >= s.trimmed)
            .and_then(|s| s.entries.get(cond_pos).copied());
        CondAppendOutcome::Conflict(winner.unwrap_or(SeqNum::ZERO))
    }

    /// The newest live entry of `tag` at or below `max`.
    pub fn read_prev(&self, tag: Tag, max: SeqNum) -> Option<(SeqNum, String)> {
        let sn = self.live(tag).iter().rev().find(|&&sn| sn <= max)?;
        Some(self.record(*sn))
    }

    /// The oldest live entry of `tag` at or above `min`.
    pub fn read_next(&self, tag: Tag, min: SeqNum) -> Option<(SeqNum, String)> {
        let sn = self.live(tag).iter().find(|&&sn| sn >= min)?;
        Some(self.record(*sn))
    }

    /// Removes every entry of `tag` at or below `upto`; a record dies with
    /// the last entry naming it.
    pub fn trim(&mut self, tag: Tag, upto: SeqNum) {
        let Some(stream) = self.streams.get_mut(&tag) else {
            return;
        };
        while let Some(&sn) = stream.live().first().filter(|&&sn| sn <= upto) {
            stream.trimmed += 1;
            let record = self
                .records
                .get_mut(&sn)
                .expect("a live entry names a live record");
            record.entries -= 1;
            if record.entries == 0 {
                self.records.remove(&sn);
            }
        }
    }

    /// Every live record of `tag`, oldest first, and how many entries its
    /// stream has trimmed.
    pub fn replay(&self, tag: Tag) -> (Vec<(SeqNum, String)>, u64) {
        let records = self.live(tag).iter().map(|&sn| self.record(sn)).collect();
        let trimmed = self.streams.get(&tag).map_or(0, |s| s.trimmed);
        (records, trimmed as u64)
    }

    /// The live entries of `tag`, oldest first.
    pub fn live(&self, tag: Tag) -> &[SeqNum] {
        self.streams.get(&tag).map_or(&[], RefStream::live)
    }

    /// Entries of `tag` that trims removed, oldest first.
    pub fn trimmed(&self, tag: Tag) -> &[SeqNum] {
        self.streams
            .get(&tag)
            .map_or(&[], |s| &s.entries[..s.trimmed])
    }

    /// Entries `tag`'s stream has had, trimmed ones included.
    pub fn len_total(&self, tag: Tag) -> usize {
        self.streams.get(&tag).map_or(0, |s| s.entries.len())
    }

    /// Whether the record at `sn` is not yet reclaimed.
    pub fn is_live(&self, sn: SeqNum) -> bool {
        self.records.contains_key(&sn)
    }

    /// Records not yet reclaimed.
    pub fn live_records(&self) -> usize {
        self.records.len()
    }

    /// Bytes of the records not yet reclaimed.
    pub fn current_bytes(&self) -> usize {
        self.records.values().map(|r| r.bytes).sum()
    }

    fn record(&self, sn: SeqNum) -> (SeqNum, String) {
        (sn, self.records[&sn].payload.clone())
    }
}
