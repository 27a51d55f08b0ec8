//! Good twin of `bad_hot_lock_io.rs`: log I/O on the log handle under
//! its own lock, taken with neither a shard nor the pager held. The
//! pager's own `sync` under the pager lock is allowed — only a *shard*
//! lock makes the data-sync family hot.

pub const WAL_IO: u32 = 5;
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
    pager: RankedMutex<Pager>,
    log: RankedMutex<Wal>,
}

impl Pool {
    fn new() -> Pool {
        Pool {
            pager: RankedMutex::new(PAGER, "pager", Pager { n: 0 }),
            log: RankedMutex::new(WAL_IO, "wal io", Wal { n: 0 }),
        }
    }

    fn log_commit(&self) -> u64 {
        let mut log = self.log.acquire();
        let appended = log.append(&[1, 2, 3]);
        appended + log.sync()
    }

    fn flush(&self) -> u64 {
        self.pager.acquire().sync()
    }
}
