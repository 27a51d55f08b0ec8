//! [`PageMap`]: one cache shard's directory from page id to slot.
//!
//! Page ids are dense by contract — a pager hands them out from 0 up and
//! reuses freed ones — so a shard's directory is a `Vec` indexed by id,
//! not a hash map: a lookup is one bounds check and one load. The buffer
//! pool's one LRU is a single shard (the slot is the id); the
//! committed-image [`NodeCache`](crate::nodecache::NodeCache) splits the
//! id space: the shard is the id's low `log2(shards)` bits and the slot
//! is the rest, `id >> bits`, so each shard's directory is dense too.
//!
//! A lookup never grows the directory: an id past its end is simply
//! absent. Only [`insert`](PageMap::insert) grows it, and its callers
//! insert a page only once it exists — after its bytes were read and
//! verified, or for a write to a page the pager has allocated — so a
//! corrupt page id read out of a node can never set the directory's
//! size.

use crate::pager::PageId;

/// Marks a directory slot with no entry.
const EMPTY: u32 = u32::MAX;

/// A dense page-id → slot-index directory for one cache shard.
#[derive(Debug)]
pub(crate) struct PageMap {
    /// `slots[id >> shift]` is the slot holding page `id`, or `EMPTY`.
    slots: Vec<u32>,
    /// `log2` of the shard count: the id bits that chose the shard.
    shift: u32,
    /// Entries present.
    len: usize,
}

impl PageMap {
    /// An empty directory for one of `shards` shards (a power of two).
    pub(crate) fn new(shards: usize) -> Self {
        debug_assert!(shards.is_power_of_two());
        Self {
            slots: Vec::new(),
            shift: shards.trailing_zeros(),
            len: 0,
        }
    }

    /// The shard of `shards` (a power of two) that page `id` belongs to.
    #[inline]
    pub(crate) fn shard_of(id: PageId, shards: usize) -> usize {
        (id.0 & (shards as u64 - 1)) as usize
    }

    /// Directory position of `id`; saturates, so an id no `Vec` could
    /// reach is simply past the end.
    #[inline]
    fn pos(&self, id: PageId) -> usize {
        usize::try_from(id.0 >> self.shift).unwrap_or(usize::MAX)
    }

    /// The slot holding page `id`, if any.
    #[inline]
    pub(crate) fn get(&self, id: PageId) -> Option<usize> {
        match self.slots.get(self.pos(id)) {
            Some(&slot) if slot != EMPTY => Some(slot as usize),
            _ => None,
        }
    }

    /// Whether inserting `id` would fit without growing the directory.
    #[inline]
    pub(crate) fn covers(&self, id: PageId) -> bool {
        self.pos(id) < self.slots.len()
    }

    /// Records that page `id` lives in `slot`, growing the directory to
    /// reach it. The caller vouches that `id` exists (module docs).
    pub(crate) fn insert(&mut self, id: PageId, slot: usize) {
        let slot = u32::try_from(slot)
            .ok()
            .filter(|&s| s != EMPTY)
            .expect("a shard holds fewer than u32::MAX slots");
        let pos = self.pos(id);
        if pos >= self.slots.len() {
            self.slots.resize(pos + 1, EMPTY);
        }
        if self.slots[pos] == EMPTY {
            self.len += 1;
        }
        self.slots[pos] = slot;
    }

    /// Removes page `id`, returning the slot it held.
    pub(crate) fn remove(&mut self, id: PageId) -> Option<usize> {
        let pos = self.pos(id);
        let slot = self.get(id)?;
        self.slots[pos] = EMPTY;
        self.len -= 1;
        Some(slot)
    }

    /// Entries present.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_of_one_shard_pack_densely() {
        let shards = 4;
        let mut m = PageMap::new(shards);
        let mine: Vec<PageId> = (0..40u64)
            .map(PageId)
            .filter(|&id| PageMap::shard_of(id, shards) == 3)
            .collect();
        for (slot, &id) in mine.iter().enumerate() {
            assert!(m.get(id).is_none());
            m.insert(id, slot);
        }
        assert_eq!(m.len(), mine.len());
        assert_eq!(m.slots.len(), mine.len(), "one directory word per id");
        for (slot, &id) in mine.iter().enumerate() {
            assert_eq!(m.get(id), Some(slot));
        }
        assert_eq!(m.remove(mine[2]), Some(2));
        assert_eq!(m.remove(mine[2]), None);
        assert_eq!(m.get(mine[2]), None);
        assert_eq!(m.len(), mine.len() - 1);
        m.insert(mine[2], 7);
        m.insert(mine[2], 8);
        assert_eq!((m.get(mine[2]), m.len()), (Some(8), mine.len()));
    }

    #[test]
    fn lookups_past_the_end_never_grow_it() {
        let mut m = PageMap::new(1);
        m.insert(PageId(2), 0);
        for id in [PageId(3), PageId(1 << 40), PageId::NULL] {
            assert!(!m.covers(id));
            assert_eq!(m.get(id), None);
            assert_eq!(m.remove(id), None);
        }
        assert!(m.covers(PageId(0)) && m.covers(PageId(2)));
        assert_eq!(m.slots.len(), 3);
    }
}
