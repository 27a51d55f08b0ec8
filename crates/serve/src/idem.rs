//! Durable idempotency tokens: a committed token and the result it
//! produced, kept as a `Meta` entry in the store's superblock catalog.
//!
//! The entry rides the catalog's page-0 image, so it becomes
//! crash-atomic with the data it guards at the next
//! `SharedStore::commit` — a token is never durable without its writes,
//! nor the writes without the token.

use boxagg_common::error::Result;
use boxagg_pagestore::{PageId, RootEntry, RootKind, SharedStore};

/// Catalog-name prefix for durable idempotency tokens.
const IDEM_PREFIX: &str = "idem/";

/// Catalog name a token is recorded under: fixed-width hex so names
/// sort stably and never collide with index roots.
fn idem_root_name(token: u64) -> String {
    format!("{IDEM_PREFIX}{token:016x}")
}

/// Records `token` in `store`'s catalog with the `result` it produced.
///
/// Retention is bounded: once more than `retain` tokens are recorded,
/// the oldest (by admission order) are evicted. A client retrying
/// within a window of `retain` commits is deduplicated; older retries
/// re-apply, which the protocol layer prevents by capping client retry
/// lifetimes well below the window.
pub(crate) fn record(store: &SharedStore, token: u64, result: u64, retain: usize) -> Result<()> {
    let name = idem_root_name(token);
    // Admission order lives in the entry's `root` field (the page id is
    // never dereferenced for Meta entries): one more than the highest
    // sequence currently recorded.
    let mut tokens: Vec<(String, u64)> = Vec::new();
    let mut next_seq = 1u64;
    for (n, e) in store.roots()? {
        if n.starts_with(IDEM_PREFIX) {
            next_seq = next_seq.max(e.root.0 + 1);
            if n != name {
                // A re-recorded token is replaced in place, not
                // double-counted against the retention window.
                tokens.push((n, e.root.0));
            }
        }
    }
    store.set_root(
        &name,
        RootEntry {
            root: PageId(next_seq),
            len: result,
            dims: 0,
            max_value_size: 0,
            kind: RootKind::Meta,
            bounds: Vec::new(),
        },
    )?;
    // Evict the oldest entries beyond the retention window (the one
    // just written is newest by construction).
    if tokens.len() + 1 > retain.max(1) {
        tokens.sort_by_key(|&(_, seq)| seq);
        let evict = tokens.len() + 1 - retain.max(1);
        for (n, _) in tokens.into_iter().take(evict) {
            store.remove_root(&n)?;
        }
    }
    Ok(())
}

/// Looks up a recorded token; `Some(result)` when the token was
/// committed within the retention window.
pub(crate) fn lookup(store: &SharedStore, token: u64) -> Result<Option<u64>> {
    Ok(store.root(&idem_root_name(token))?.map(|e| e.len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use boxagg_common::tempdir as tempfile;
    use boxagg_pagestore::{Backing, StoreConfig};

    #[test]
    fn idempotency_tokens_record_replay_and_evict_oldest_first() {
        let s = SharedStore::open(&StoreConfig::small(2048, 8).with_wal(true)).unwrap();
        assert_eq!(lookup(&s, 42).unwrap(), None);
        record(&s, 42, 1000, 4).unwrap();
        record(&s, 43, 1001, 4).unwrap();
        assert_eq!(lookup(&s, 42).unwrap(), Some(1000));
        assert_eq!(lookup(&s, 43).unwrap(), Some(1001));

        // Re-recording replaces in place and refreshes admission
        // order: 43 is now the oldest entry.
        record(&s, 42, 1002, 4).unwrap();
        assert_eq!(lookup(&s, 42).unwrap(), Some(1002));

        for t in 44..48u64 {
            record(&s, t, t * 10, 4).unwrap();
        }
        assert_eq!(lookup(&s, 43).unwrap(), None, "oldest evicted");
        assert_eq!(lookup(&s, 42).unwrap(), None, "second-oldest evicted");
        for t in 44..48u64 {
            assert_eq!(lookup(&s, t).unwrap(), Some(t * 10));
        }
        assert_eq!(
            s.roots()
                .unwrap()
                .iter()
                .filter(|(n, _)| n.starts_with(IDEM_PREFIX))
                .count(),
            4,
            "retention window holds"
        );
        s.validate().unwrap();
    }

    #[test]
    fn idempotency_tokens_are_crash_atomic_with_their_commit() {
        let dir = tempfile::tempdir().unwrap();
        let cfg = StoreConfig {
            page_size: 2048,
            buffer_pages: 4,
            backing: Backing::File(dir.path().join("store.db")),
            node_cache_pages: 4,
            wal: true,
        };
        let s = SharedStore::open(&cfg).unwrap();
        let a = s.allocate().unwrap();
        s.write_page(a, &[1; 8]).unwrap();
        record(&s, 7, 51, 16).unwrap();
        s.commit().unwrap();

        // Recorded after the commit: the token rides the *next*
        // transaction, so dropping without commit loses both the token
        // and the page write together.
        let b = s.allocate().unwrap();
        s.write_page(b, &[2; 8]).unwrap();
        record(&s, 8, 52, 16).unwrap();
        drop(s); // simulated crash: uncommitted transaction discarded

        let s = SharedStore::open(&cfg).unwrap();
        assert_eq!(
            lookup(&s, 7).unwrap(),
            Some(51),
            "committed token survives reopen"
        );
        assert_eq!(
            lookup(&s, 8).unwrap(),
            None,
            "uncommitted token vanished with its writes"
        );
        assert_eq!(s.with_page(a, |d| d[0]).unwrap(), 1);
        s.validate().unwrap();
    }
}
