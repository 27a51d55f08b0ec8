//! Fixture for the two ways blocking I/O ends up in front of readers.
//!
//! `log_commit` is the pre-handle commit shape — log append and fsync
//! while the pager lock is held, so every cache-miss reader queued on
//! that lock waits out the disk sync. The log's one handle ranks below
//! the pager, so reaching for it there is an R7 ordering violation.
//! `flush_shard` syncs the data file under a shard lock: R8.

pub const WAL_IO: u32 = 5;
pub const SHARD: u32 = 7;
pub const PAGER: u32 = 8;

struct Pager {
    n: u64,
}

impl Pager {
    fn sync(&mut self) -> u64 {
        self.n
    }
}

struct Wal {
    n: u64,
}

impl Wal {
    fn append(&mut self, rec: &[u8]) -> u64 {
        self.n + rec.len() as u64
    }

    fn sync(&mut self) -> u64 {
        self.n
    }
}

struct Pool {
    shard: RankedMutex<u64>,
    pager: RankedMutex<Pager>,
    log: RankedMutex<Wal>,
}

impl Pool {
    fn new() -> Pool {
        Pool {
            shard: RankedMutex::new(SHARD, "buffer shard", 0),
            pager: RankedMutex::new(PAGER, "pager", Pager { n: 0 }),
            log: RankedMutex::new(WAL_IO, "wal io", Wal { n: 0 }),
        }
    }

    fn log_commit(&self) -> u64 {
        let _pager = self.pager.acquire();
        let mut log = self.log.acquire();
        let appended = log.append(&[1, 2, 3]);
        appended + log.sync()
    }

    fn flush_shard(&self) -> u64 {
        let _shard = self.shard.acquire();
        self.pager.acquire().sync()
    }
}
