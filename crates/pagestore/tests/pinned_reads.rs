//! The committed-image node cache under pinned reads: a seeded,
//! single-threaded schedule against a model (no wall clock), and a
//! two-thread run where a committer flips epochs under a looping
//! pinned reader.
//!
//! The invariant: a pinned `read_node` returns the decode of exactly
//! the bytes its epoch committed — whichever pin, commit or injected
//! commit failure touched the cache before it — and decodes nothing on
//! a repeat unless a later commit superseded the page for that pin.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use boxagg_common::error::Error;
use boxagg_common::rng::StdRng;
use boxagg_pagestore::fault::is_injected;
use boxagg_pagestore::{
    FaultHandle, FaultPager, FaultSpec, MemPager, OpFilter, PageId, RootEntry, RootKind,
    SharedStore, StoreConfig, StoreSnapshot,
};

const PAGE_SIZE: usize = 256;
/// Payload bytes a page's content is judged by.
const TAG: usize = 8;
const MAX_PAGES: usize = 14;
const MAX_PINS: usize = 5;
const ROOT: &str = "r";

fn tag_of(payload: &[u8]) -> boxagg_common::error::Result<Vec<u8>> {
    Ok(payload[..TAG].to_vec())
}

fn root_entry(len: u64) -> RootEntry {
    RootEntry {
        root: PageId(1),
        len,
        dims: 1,
        max_value_size: 8,
        kind: RootKind::BaTree,
        bounds: vec![(0.0, 1.0)],
    }
}

/// What one commit epoch froze.
#[derive(Clone, Default)]
struct Committed {
    pages: BTreeMap<PageId, Vec<u8>>,
    root_len: Option<u64>,
}

struct Pin {
    snap: StoreSnapshot,
    sees: Committed,
}

/// Which commit phase a step armed a fault for.
#[derive(Clone, Copy)]
enum Phase {
    Log,
    PreImage,
    /// The pre-image read succeeds but returns rotted bytes.
    RottenPreImage,
    Apply,
}

#[derive(Default)]
struct Tally {
    failed_in: [u64; 4],
    max_pins: usize,
    superseded_reads: u64,
    warm_reads: u64,
}

struct Schedule {
    store: SharedStore,
    faults: FaultHandle,
    rng: StdRng,
    /// Current bytes of every allocated, un-freed page we wrote.
    live: BTreeMap<PageId, Vec<u8>>,
    live_root: Option<u64>,
    /// Pages (and page 0) written since the last fully successful
    /// commit and not freed since: the next transaction.
    dirty: BTreeSet<PageId>,
    /// Latest committed state — what a pin taken now sees.
    committed: Committed,
    /// Epoch whose flip last changed each page's committed image.
    flipped_at: BTreeMap<PageId, u64>,
    pins: Vec<Pin>,
    node_reads: u64,
    tally: Tally,
}

impl Schedule {
    fn new(seed: u64) -> Self {
        let (pager, faults) = FaultPager::new(Box::new(MemPager::new(PAGE_SIZE)));
        // A buffer far smaller than the page set, so clean frames are
        // evicted and committed images are found on disk, in a dirty
        // frame's base, and in clean frames; node caches that hold
        // everything, so a repeat read decodes only when superseded.
        let cfg = StoreConfig::small(PAGE_SIZE, 3)
            .with_wal(true)
            .with_node_cache(4 * MAX_PAGES);
        let store = SharedStore::open_with_pager(Box::new(pager), &cfg).expect("open");
        Self {
            store,
            faults,
            rng: StdRng::seed_from_u64(seed),
            live: BTreeMap::new(),
            live_root: None,
            dirty: BTreeSet::new(),
            committed: Committed::default(),
            flipped_at: BTreeMap::new(),
            pins: Vec::new(),
            node_reads: 0,
            tally: Tally::default(),
        }
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> Option<T> {
        (!from.is_empty()).then(|| from[self.rng.gen_range(0..from.len())])
    }

    fn fresh_bytes(&mut self) -> Vec<u8> {
        self.rng.next_u64().to_le_bytes().to_vec()
    }

    fn write(&mut self, id: PageId) {
        let bytes = self.fresh_bytes();
        self.store.write_page(id, &bytes).expect("write_page");
        self.live.insert(id, bytes);
        self.dirty.insert(id);
    }

    fn step_write(&mut self) {
        let ids: Vec<PageId> = self.live.keys().copied().collect();
        let id = if ids.len() < MAX_PAGES && (ids.is_empty() || self.rng.gen_range(0..3) == 0) {
            self.store.allocate().expect("allocate")
        } else {
            self.pick(&ids).expect("a live page")
        };
        self.write(id);
    }

    fn step_free(&mut self) {
        let ids: Vec<PageId> = self.live.keys().copied().collect();
        let Some(id) = self.pick(&ids) else { return };
        self.store.free(id).expect("free");
        self.live.remove(&id);
        self.dirty.remove(&id);
        if self.rng.gen_range(0..2) == 0 {
            // The id comes straight back with new contents.
            let again = self.store.allocate().expect("re-allocate");
            assert_eq!(again, id, "freed page is recycled first");
            self.write(id);
        }
    }

    fn step_set_root(&mut self) {
        let len = self.rng.next_u64() >> 8;
        self.store
            .set_root(ROOT, root_entry(len))
            .expect("set_root");
        self.live_root = Some(len);
        self.dirty.insert(PageId(0));
    }

    /// One `commit()` call; the model follows the epoch, not the result
    /// (an apply-phase failure has already published its transaction).
    fn commit_once(&mut self) -> bool {
        let before = self.store.commit_epoch();
        let result = self.store.commit();
        self.faults.disarm();
        let after = self.store.commit_epoch();
        if after > before {
            assert_eq!(after, before + 1);
            for &id in &self.dirty {
                self.flipped_at.insert(id, after);
            }
            self.committed = Committed {
                pages: self.live.clone(),
                root_len: self.live_root,
            };
        }
        match result {
            Ok(()) => {
                self.dirty.clear();
                true
            }
            Err(e) => {
                // A rotted read is injected too; it surfaces through
                // the pool's checksum, typed.
                let rot = matches!(e, Error::Corruption { .. });
                assert!(is_injected(&e) || rot, "only injected failures: {e}");
                assert!(!rot || after == before, "a rotten pre-image flipped");
                false
            }
        }
    }

    fn step_commit(&mut self) {
        let phase = match self.rng.gen_range(0..7) {
            0 => Some(Phase::Log),
            1 => Some(Phase::PreImage),
            2 => Some(Phase::RottenPreImage),
            3 => Some(Phase::Apply),
            _ => None,
        };
        let nth = 1 + self.rng.gen_range(0..3) as u64;
        match phase {
            Some(Phase::Log) => self
                .faults
                .arm(FaultSpec::error_at(OpFilter::WalAppends, nth)),
            // The flip's only pager reads fetch pre-images off disk.
            Some(Phase::PreImage) => self.faults.arm(FaultSpec::error_at(OpFilter::Reads, 1)),
            // …and if one comes back rotted, it must not be retained
            // for the pins: the flip fails as if the read had.
            Some(Phase::RottenPreImage) => self.faults.arm(FaultSpec::rot_read_at(1)),
            Some(Phase::Apply) => self.faults.arm(FaultSpec::error_at(OpFilter::Writes, nth)),
            None => {}
        }
        if self.commit_once() {
            return;
        }
        self.tally.failed_in[phase.expect("unarmed commits succeed") as usize] += 1;
        // The failed commit left every pin intact and the cache valid;
        // the retry (nothing freed in between — a transaction that
        // failed while being applied lives on in the log and in its
        // dirty frames' bases, not yet on disk) must go through.
        self.check_everything();
        assert!(self.commit_once(), "retry without faults");
    }

    fn step_pin(&mut self) {
        if self.pins.len() == MAX_PINS {
            return self.step_unpin();
        }
        let snap = self.store.snapshot().expect("snapshot");
        assert_eq!(snap.epoch(), self.store.commit_epoch());
        self.pins.push(Pin {
            snap,
            sees: self.committed.clone(),
        });
        self.tally.max_pins = self.tally.max_pins.max(self.pins.len());
    }

    fn step_unpin(&mut self) {
        if !self.pins.is_empty() {
            let i = self.rng.gen_range(0..self.pins.len());
            self.pins.swap_remove(i);
        }
    }

    /// A single pinned read, so cache state also evolves between the
    /// exhaustive checks in an order the checks themselves do not have.
    fn step_read(&mut self) {
        if self.pins.is_empty() {
            return;
        }
        let p = self.rng.gen_range(0..self.pins.len());
        let ids: Vec<PageId> = self.pins[p].sees.pages.keys().copied().collect();
        let Some(id) = self.pick(&ids) else { return };
        let pin = &self.pins[p];
        assert_eq!(
            *pin.snap.read_node(id, tag_of).expect("read"),
            pin.sees.pages[&id]
        );
        self.node_reads += 1;
    }

    /// Every live pin, every page it can see: bytes, decoded node and
    /// decode count against the model; then the structural validators.
    fn check_everything(&mut self) {
        for pin in &self.pins {
            let epoch = pin.snap.epoch();
            for (&id, want) in &pin.sees.pages {
                let bytes = pin
                    .snap
                    .with_page(id, |d| d[..TAG].to_vec())
                    .expect("with_page");
                assert_eq!(&bytes, want, "bytes of {id:?} at epoch {epoch}");
                let first = pin.snap.read_node(id, tag_of).expect("read_node");
                let (_, before) = pin.snap.node_reads();
                let second = pin.snap.read_node(id, tag_of).expect("read_node again");
                let (_, after) = pin.snap.node_reads();
                self.node_reads += 2;
                assert_eq!(&*first, want, "node of {id:?} at epoch {epoch}");
                assert_eq!(&*second, want, "repeat node of {id:?} at epoch {epoch}");
                let superseded = self.flipped_at.get(&id).is_some_and(|&at| at > epoch);
                if superseded {
                    assert_eq!(after - before, 1, "superseded {id:?} must not be cached");
                    self.tally.superseded_reads += 1;
                } else {
                    assert_eq!(after - before, 0, "repeat read of {id:?} decoded");
                    self.tally.warm_reads += 1;
                }
            }
            let root = pin.snap.root(ROOT).expect("pinned root");
            self.node_reads += 1;
            assert_eq!(root.map(|e| e.len), pin.sees.root_len, "root at {epoch}");
        }
        self.store.validate().expect("validate");
    }

    fn run(mut self, steps: usize) -> Tally {
        self.store.reset_stats();
        for _ in 0..steps {
            match self.rng.gen_range(0..16) {
                0..=4 => self.step_write(),
                5 => self.step_free(),
                6 => self.step_set_root(),
                7..=9 => self.step_commit(),
                10..=12 => self.step_pin(),
                13 => self.step_unpin(),
                _ => self.step_read(),
            }
            self.check_everything();
        }
        // Pinned reads are the only node reads here, and every one of
        // them is exactly one hit or one miss in the store's counters.
        let st = self.store.stats();
        assert_eq!(st.decode_hits + st.decode_misses, self.node_reads);
        self.pins.clear();
        self.store
            .validate()
            .expect("validate after the last unpin");
        self.tally
    }
}

#[test]
fn seeded_schedules_of_pins_commits_and_faults_match_the_model() {
    let mut total = Tally::default();
    for seed in 0..96u64 {
        let t = Schedule::new(0x5EED_0000 + seed).run(90);
        for (sum, n) in total.failed_in.iter_mut().zip(t.failed_in) {
            *sum += n;
        }
        total.max_pins = total.max_pins.max(t.max_pins);
        total.superseded_reads += t.superseded_reads;
        total.warm_reads += t.warm_reads;
    }
    // The schedules reached what they are for.
    assert!(total.max_pins >= 3, "never three epochs pinned at once");
    let phases = ["log", "pre-image", "rotten pre-image", "apply"];
    for (phase, n) in phases.iter().zip(total.failed_in) {
        assert!(n > 0, "no commit ever failed in its {phase} phase");
    }
    assert!(total.superseded_reads > 0 && total.warm_reads > 0);
}

/// A pin of epoch `e` reads every page after a pin of `e + 1` cached
/// its own decodes of them: the older pin must still be served `e`'s
/// tags, decoded from the retained images. A hit path that took a
/// cached node without checking the reader's epoch would hand it
/// `e + 1`'s — by construction, not by timing.
#[test]
fn an_older_pin_never_takes_the_newer_epochs_cached_node() {
    const PAGES: usize = 8;
    let cfg = StoreConfig::small(PAGE_SIZE, 4)
        .with_wal(true)
        .with_node_cache(64);
    let store = SharedStore::open(&cfg).expect("open");
    let ids: Vec<PageId> = (0..PAGES)
        .map(|_| store.allocate().expect("allocate"))
        .collect();
    let commit_tag = |tag: u64| {
        for &id in &ids {
            store
                .write_page(id, &tag.to_le_bytes())
                .expect("write_page");
        }
        store.commit().expect("commit");
    };
    commit_tag(1);
    let old = store.snapshot().expect("pin e");
    for &id in &ids {
        assert_eq!(
            *old.read_node(id, tag_of).expect("read"),
            1u64.to_le_bytes()
        );
    }
    commit_tag(2);
    let new = store.snapshot().expect("pin e + 1");
    assert_eq!(new.epoch(), old.epoch() + 1);
    for &id in &ids {
        assert_eq!(
            *new.read_node(id, tag_of).expect("read"),
            2u64.to_le_bytes()
        );
    }
    assert_eq!(
        new.node_reads(),
        (PAGES as u64, PAGES as u64),
        "e + 1 cached"
    );

    let (_, decoded) = old.node_reads();
    for &id in &ids {
        let node = old.read_node(id, tag_of).expect("read through the old pin");
        assert_eq!(*node, 1u64.to_le_bytes(), "{id:?} at epoch {}", old.epoch());
    }
    assert_eq!(
        old.node_reads().1 - decoded,
        PAGES as u64,
        "every superseded page decoded from its retained image"
    );
    for &id in &ids {
        assert_eq!(
            *new.read_node(id, tag_of).expect("read"),
            2u64.to_le_bytes()
        );
    }
    assert_eq!(
        new.node_reads(),
        (2 * PAGES as u64, PAGES as u64),
        "e + 1 hits"
    );
    drop((old, new));
    store.validate().expect("validate");
}

/// A committer rewrites every page and commits, round after round,
/// until the first reader is gone; that reader holds each of its pins
/// until two flips have passed it, so every pin is read before, across
/// and after a flip — by construction, not by timing. A second reader
/// keeps pinning the newest epoch and reading every page, so the cache
/// fills with each new epoch's decodes while the first reader's pin is
/// still an epoch behind. All pages carry the round that wrote them, so
/// a node from any other epoch — cached by another pin, or decoded past
/// the flip — would show as a tag that disagrees with the pin's own
/// epoch. And every pinned read is one decode hit or one miss, exactly:
/// a hit discarded because a flip landed between its two epoch loads is
/// counted once, by the read it falls back to.
#[test]
fn a_pinned_reader_never_sees_a_later_epochs_node_while_a_committer_flips() {
    const PAGES: usize = 8;
    const PINS: u32 = 24;
    let cfg = StoreConfig::small(PAGE_SIZE, 4)
        .with_wal(true)
        .with_node_cache(64);
    let store = SharedStore::open(&cfg).expect("open");
    let ids: Vec<PageId> = (0..PAGES)
        .map(|_| store.allocate().expect("allocate"))
        .collect();
    let write_round = |round: u64| {
        for &id in &ids {
            store
                .write_page(id, &round.to_le_bytes())
                .expect("write_page");
        }
        store.commit().expect("commit");
    };
    write_round(0);
    let base_epoch = store.commit_epoch();
    store.reset_stats();
    let reader_gone = AtomicBool::new(false);
    let start = Barrier::new(3);
    // Reads every page through one fresh pin of the newest epoch;
    // returns the node reads it served.
    let newest_pass = || {
        let snap = store.snapshot().expect("snapshot");
        let want = (snap.epoch() - base_epoch).to_le_bytes();
        for &id in &ids {
            let node = snap.read_node(id, tag_of).expect("newest read");
            assert_eq!(*node, want, "{id:?} at newest epoch {}", snap.epoch());
        }
        snap.node_reads().0
    };

    let (rounds, reads) = std::thread::scope(|scope| {
        let committer = scope.spawn(|| {
            start.wait();
            let mut round = 0u64;
            while !reader_gone.load(Ordering::SeqCst) {
                round += 1;
                write_round(round);
            }
            round
        });
        let follower = scope.spawn(|| {
            start.wait();
            let mut reads = 0;
            while !reader_gone.load(Ordering::SeqCst) {
                reads += newest_pass();
            }
            reads
        });
        let lagging = scope.spawn(|| {
            // Set on the way out, by return or by a failed assertion:
            // the committer and the follower must stop either way.
            struct Gone<'a>(&'a AtomicBool);
            impl Drop for Gone<'_> {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::SeqCst);
                }
            }
            let _gone = Gone(&reader_gone);
            start.wait();
            let mut reads = 0;
            for _ in 0..PINS {
                let snap = store.snapshot().expect("snapshot");
                let want = (snap.epoch() - base_epoch).to_le_bytes();
                loop {
                    for &id in &ids {
                        let node = snap.read_node(id, tag_of).expect("pinned read");
                        assert_eq!(*node, want, "{id:?} at epoch {}", snap.epoch());
                    }
                    if store.commit_epoch() >= snap.epoch() + 2 {
                        break;
                    }
                }
                reads += snap.node_reads().0;
            }
            reads
        });
        let reads = lagging.join().expect("lagging reader") + follower.join().expect("follower");
        (committer.join().expect("committer"), reads)
    });
    assert!(rounds >= 2 * u64::from(PINS) - 1, "two flips per pin");
    let last = store.snapshot().expect("snapshot");
    for &id in &ids {
        assert_eq!(
            *last.read_node(id, tag_of).expect("read"),
            rounds.to_le_bytes()
        );
    }
    let reads = reads + last.node_reads().0;
    drop(last);
    let st = store.stats();
    assert_eq!(
        st.decode_hits + st.decode_misses,
        reads,
        "each pinned read is exactly one hit or one miss"
    );
    store.validate().expect("validate");
}
