//! Robustness tests for the serving layer: connection caps, deadlines
//! (including slowloris starvation), typed-frame-before-close
//! discipline, concurrent commits, write batches many times the buffer,
//! and retry-safe writes under injected connection death.

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use boxagg_common::error::{Error, Result};
use boxagg_common::geom::Rect;
use boxagg_common::rng::StdRng;
use boxagg_core::catalog::{open_corner_engine, SnapshotBoxSum};
use boxagg_core::engine::SimpleBoxSum;
use boxagg_pagestore::wal::WalFile;
use boxagg_pagestore::{
    Backing, FaultHandle, FaultPager, FaultSpec, FilePager, MemPager, OpFilter, PageId, Pager,
    SharedStore, StoreConfig,
};
use boxagg_serve::proto::{self, code, frame, read_frame, Request, Response};
use boxagg_serve::{
    Client, ServeConfig, ServerHandle, StreamFaultHandle, StreamFaultSpec, StreamOpFilter,
};

fn rand01(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

fn rand_rect(rng: &mut StdRng, dim: usize, side: f64) -> Rect {
    let low: Vec<f64> = (0..dim).map(|_| rand01(rng) * (1.0 - side)).collect();
    let bounds: Vec<(f64, f64)> = low.iter().map(|&l| (l, l + rand01(rng) * side)).collect();
    Rect::from_bounds(&bounds)
}

/// Builds a committed 2-d store with `n` objects.
fn seeded_store(n: usize, seed: u64) -> (SharedStore, Rect) {
    let store = SharedStore::open(&StoreConfig::small(2048, 256).with_wal(true))
        .expect("open memory WAL store");
    seed_store(store, n, seed)
}

fn seed_store(store: SharedStore, n: usize, seed: u64) -> (SharedStore, Rect) {
    let space = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
    let mut engine = SimpleBoxSum::batree_in(space, store.clone()).expect("create engine");
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..n {
        let r = rand_rect(&mut rng, 2, 0.3);
        engine.insert(&r, (i % 9) as f64 - 3.0).expect("insert");
    }
    boxagg_core::catalog::persist_corner_engine(&engine, &space).expect("persist");
    store.commit().expect("commit");
    (store, space)
}

/// `inner` behind a [`FaultPager`] whose every `ops` operation passes
/// the handle's gate: while a test holds the gate closed, whoever
/// reaches one parks there. The gate starts open.
fn gated(inner: Box<dyn Pager>, ops: OpFilter) -> (FaultPager, FaultHandle) {
    let (pager, gate) = FaultPager::new(inner);
    gate.arm(FaultSpec {
        sticky: true,
        ..FaultSpec::park_at(ops, 1)
    });
    (pager, gate)
}

/// A pager whose next `read_page` panics once the test arms it: a bug
/// somewhere under a request handler, as the server would meet it.
struct PanickingPager {
    inner: Box<dyn Pager>,
    armed: Arc<AtomicBool>,
}

impl Pager for PanickingPager {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }
    fn allocate(&mut self) -> Result<PageId> {
        self.inner.allocate()
    }
    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        assert!(
            !self.armed.swap(false, Ordering::SeqCst),
            "injected: this read_page panics"
        );
        self.inner.read_page(id, buf)
    }
    fn write_page(&mut self, id: PageId, data: &[u8]) -> Result<()> {
        self.inner.write_page(id, data)
    }
    fn sync(&mut self) -> Result<()> {
        self.inner.sync()
    }
    fn wal(&mut self) -> Result<Box<dyn WalFile>> {
        self.inner.wal()
    }
}

/// A seeded memory store whose commits park in their data sync; the
/// gate starts open.
fn commit_gated_store(n: usize, seed: u64) -> (SharedStore, FaultHandle) {
    let (pager, gate) = gated(Box::new(MemPager::new(2048)), OpFilter::Syncs);
    let cfg = StoreConfig::small(2048, 256).with_wal(true);
    let store = SharedStore::open_with_pager(Box::new(pager), &cfg).expect("open gated store");
    (seed_store(store, n, seed).0, gate)
}

/// A server over a gated store with one commit parked in its data
/// sync: the write lock is held until the gate opens. Returns the
/// thread that will hear that commit's answer.
fn server_with_a_commit_in_progress(
    n: usize,
    seed: u64,
) -> (ServerHandle, FaultHandle, std::thread::JoinHandle<u64>) {
    let (store, gate) = commit_gated_store(n, seed);
    let server =
        ServerHandle::bind(store, "127.0.0.1:0", ServeConfig::default()).expect("bind server");
    let mut committer = Client::connect(server.local_addr()).expect("connect");
    gate.close_gate();
    let commit = std::thread::spawn(move || committer.commit().expect("gated commit"));
    assert!(gate.wait_parked(), "nobody ever reached the gated op");
    (server, gate, commit)
}

/// Satellite 1: the accept loop refuses connections past
/// `max_connections` with one typed `OVERLOADED` frame, and recovers
/// the moment a slot frees.
#[test]
fn connection_limit_refuses_with_a_typed_overloaded_frame() {
    let (store, _space) = seeded_store(20, 5);
    let server = ServerHandle::bind(
        store,
        "127.0.0.1:0",
        ServeConfig {
            max_connections: 2,
            ..ServeConfig::default()
        },
    )
    .expect("bind server");
    let addr = server.local_addr();

    let c1 = Client::connect(addr).expect("first connection");
    let _c2 = Client::connect(addr).expect("second connection");

    let err = Client::connect(addr).expect_err("third connection must be refused");
    assert!(
        matches!(err, Error::Overloaded { .. }),
        "refusal must be a typed OVERLOADED, got: {err}"
    );
    assert!(server.stats().refused_conns >= 1);

    // Freeing one slot re-admits: the handler notices the closed peer
    // within its poll interval.
    drop(c1);
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut admitted = None;
    while Instant::now() < deadline {
        match Client::connect(addr) {
            Ok(c) => {
                admitted = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    let mut c = admitted.expect("a slot freed but the server kept refusing");
    let whole = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
    c.box_sum(&whole).expect("re-admitted connection serves");
    server.shutdown();
}

/// A handler that panics takes its own connection down and nothing
/// else: the slot it held comes back, so a server capped at one
/// connection admits the next one and answers it correctly. Two frames
/// and no decodes kept, so the served read has to go to the pager,
/// which panics under it.
#[test]
fn a_panicking_handler_gives_its_connection_slot_back() {
    let dir = boxagg_common::tempdir::tempdir().expect("tempdir");
    let path = dir.path().join("panic.pages");
    let cfg = StoreConfig {
        page_size: 2048,
        buffer_pages: 2,
        backing: Backing::File(path.clone()),
        node_cache_pages: 0,
        wal: true,
    };
    seed_store(SharedStore::open(&cfg).expect("create store"), 200, 0xBAD);
    let armed = Arc::new(AtomicBool::new(false));
    let pager = PanickingPager {
        inner: Box::new(FilePager::open(&path, cfg.page_size).expect("reopen file")),
        armed: Arc::clone(&armed),
    };
    let store = SharedStore::open_with_pager(Box::new(pager), &cfg).expect("reopen store");
    let whole = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
    let serial = {
        let engine = SnapshotBoxSum::open(store.snapshot().expect("snapshot")).expect("open");
        engine.query(&whole).expect("serial answer")
    };

    let server = ServerHandle::bind(
        store,
        "127.0.0.1:0",
        ServeConfig {
            max_connections: 1,
            ..ServeConfig::default()
        },
    )
    .expect("bind server");
    let addr = server.local_addr();

    let mut doomed = Client::connect(addr).expect("the one connection");
    armed.store(true, Ordering::SeqCst);
    doomed
        .box_sum(&whole)
        .expect_err("the handler panicked under this read");
    assert!(!armed.load(Ordering::SeqCst), "the read never missed");

    // The dead handler's socket closes a moment before its slot is
    // released, so the first attempts may still be refused.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut next = loop {
        match Client::connect(addr) {
            Ok(client) => break client,
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "the panicked handler's slot never came back: {e}"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    // (`validate_ok` is not asked for: the pool was filling a frame
    // when its pager panicked, and counts that frame as leaked.)
    let got = next.box_sum(&whole).expect("the server keeps answering");
    assert_eq!(got.to_bits(), serial.to_bits());
    server.shutdown();
}

/// Satellite 2: a connection killed before its reply can be written
/// leaves the read counted exactly once — the traversal happened, the
/// counters were published before the reply — and its neighbours'
/// answers stay bit-identical to in-process.
#[test]
fn a_connection_killed_before_its_reply_is_counted_exactly_once() {
    let (store, _space) = seeded_store(300, 0xDEAD);
    let mut rng = StdRng::seed_from_u64(9);
    let queries: Vec<Rect> = (0..3).map(|_| rand_rect(&mut rng, 2, 0.5)).collect();

    // In-process answers and node accesses for all three.
    let mut serial = Vec::new();
    let mut serial_accesses = 0;
    for q in &queries {
        let snap = Arc::new(store.snapshot().expect("snapshot"));
        let engine = SnapshotBoxSum::open(&snap).expect("open");
        serial.push(engine.query(q).expect("serial query"));
        serial_accesses += snap.node_reads().0;
    }

    let server =
        ServerHandle::bind(store, "127.0.0.1:0", ServeConfig::default()).expect("bind server");
    let addr = server.local_addr();

    let barrier = Arc::new(Barrier::new(3));
    let mut handles = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let q = *q;
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            if i == 2 {
                // This socket dies right after the request is written:
                // the server computes the answer but the reply lands on
                // a killed connection.
                let handle = StreamFaultHandle::new();
                let mut client = Client::connect_faulted(addr, handle.clone()).expect("connect");
                barrier.wait();
                handle.arm(StreamFaultSpec::kill_at(StreamOpFilter::Reads, 1));
                let err = client.box_sum(&q).expect_err("reply read was killed");
                assert!(err.to_string().contains("injected fault"), "{err}");
                None
            } else {
                let mut client = Client::connect(addr).expect("connect");
                barrier.wait();
                Some((i, client.box_sum(&q).expect("healthy answer")))
            }
        }));
    }
    for h in handles {
        if let Some((i, got)) = h.join().expect("client thread") {
            assert_eq!(
                got.to_bits(),
                serial[i].to_bits(),
                "connection {i} diverged from in-process"
            );
        }
    }

    // The killed client gave up at its first read; its request may
    // still be running. Wait for its traversal to be published, then
    // pin the counters: all three accounted exactly once, dead reply
    // or not.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().node_accesses < serial_accesses && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = server.stats();
    assert_eq!(stats.queries, 3, "every traversal counts once");
    assert_eq!(stats.groups, 3, "one per executed read");
    assert_eq!(
        stats.node_accesses, serial_accesses,
        "the dead connection's traversal is in the counters, once"
    );
    assert!(stats.validate_ok);
    server.shutdown();
}

/// The tentpole's slowloris charter: a peer trickling a frame one byte
/// at a time cannot hold a worker past `read_deadline` — the server
/// answers a typed `DEADLINE_EXCEEDED` frame on the starved read and
/// frees the worker, long before the trickle would have completed.
#[test]
fn slowloris_cannot_hold_a_worker_past_the_read_deadline() {
    let (store, _space) = seeded_store(20, 2);
    let read_deadline = Duration::from_millis(400);
    let server = ServerHandle::bind(
        store,
        "127.0.0.1:0",
        ServeConfig {
            read_deadline,
            ..ServeConfig::default()
        },
    )
    .expect("bind server");
    let addr = server.local_addr();

    let mut stream = std::net::TcpStream::connect(addr).expect("connect raw");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let hello = read_frame(&mut stream)
        .expect("hello frame")
        .expect("hello body");
    assert!(matches!(
        proto::decode_response(&hello).expect("decode hello"),
        Response::Hello(_)
    ));

    // Trickle the first bytes of a perfectly valid frame, one byte per
    // 150 ms — at this rate the whole frame would take seconds, far
    // past the 400 ms budget.
    let full = frame(&proto::encode_request(&Request::Stats));
    let t0 = Instant::now();
    for byte in &full[..3] {
        stream.write_all(&[*byte]).expect("trickle byte");
        std::thread::sleep(Duration::from_millis(150));
    }

    // The server must already have cut us off with a typed frame.
    let body = read_frame(&mut stream)
        .expect("typed frame, not a raw hangup")
        .expect("typed frame before close");
    match proto::decode_response(&body).expect("decodable frame") {
        Response::Error { code: c, .. } => assert_eq!(
            c,
            code::DEADLINE_EXCEEDED,
            "a starved frame is a deadline violation, not protocol damage"
        ),
        other => panic!("expected an error frame, got {other:?}"),
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "worker held for {elapsed:?}, far past the {read_deadline:?} deadline"
    );

    // The worker is free again: a healthy client is served.
    let mut client = Client::connect(addr).expect("connect after slowloris");
    let whole = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
    client.box_sum(&whole).expect("healthy query");
    let stats = client.stats().expect("stats");
    assert!(stats.protocol_errors >= 1);
    assert!(stats.validate_ok);
    server.shutdown();
}

/// A served write batch many times the buffer commits whole: a no-steal
/// pool pins every page the batch dirties past its eight frames, no
/// write is turned away, and the committed corner trees are consistent
/// and answer bit for bit as an in-process engine over the same objects.
#[test]
fn a_write_batch_many_times_the_buffer_commits_whole() {
    const PAGE: usize = 1024;
    const OBJECTS: usize = 300;
    let dir = boxagg_common::tempdir::tempdir().expect("tempdir");
    let cfg = StoreConfig {
        page_size: PAGE,
        buffer_pages: 8,
        backing: Backing::File(dir.path().join("batch.pages")),
        node_cache_pages: 0,
        wal: true,
    };
    let (store, space) = seed_store(SharedStore::open(&cfg).expect("create store"), 0, 0);
    let reference_store =
        SharedStore::open(&StoreConfig::small(PAGE, 1 << 12).with_wal(true)).expect("open");
    let mut reference = SimpleBoxSum::batree_in(space, reference_store).expect("create engine");
    let server = ServerHandle::bind(store.clone(), "127.0.0.1:0", ServeConfig::default())
        .expect("bind server");

    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut rng = StdRng::seed_from_u64(0xB16);
    for i in 0..OBJECTS {
        let (r, v) = (rand_rect(&mut rng, 2, 0.3), (i % 7) as f64 + 0.5);
        assert_eq!(client.insert(&r, v).expect("served insert"), i as u64 + 1);
        reference.insert(&r, v).expect("reference insert");
    }
    assert_eq!(client.commit_durable().expect("commit"), OBJECTS as u64);
    let dirtied = store.stats().dirty_high_water;
    assert!(dirtied > 8 * 4, "the batch dirtied only {dirtied} pages");

    let queries: Vec<Rect> = (0..64)
        .map(|_| rand_rect(&mut rng, 2, 0.5))
        .chain([space])
        .collect();
    for q in &queries {
        let served = client.box_sum(q).expect("served box-sum");
        let local = reference.query(q).expect("reference box-sum");
        assert_eq!(served.to_bits(), local.to_bits(), "box {q:?}");
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.shed, 0);
    assert!(stats.validate_ok);
    server.shutdown();

    let (committed, _) = open_corner_engine(&store).expect("open the committed engine");
    assert_eq!(committed.len(), OBJECTS);
    for (mask, tree) in committed.indexes().iter().enumerate() {
        tree.check_consistency()
            .unwrap_or_else(|e| panic!("corner {mask}: {e}"));
    }
}

/// Satellite 5 (fixture): every way a connection can go wrong answers
/// a *typed* error frame before the server closes it — structural
/// damage, oversize frames, starved frames, and idle reaping alike.
#[test]
fn every_error_path_answers_a_typed_frame_before_closing() {
    let (store, _space) = seeded_store(20, 21);
    let server = ServerHandle::bind(
        store,
        "127.0.0.1:0",
        ServeConfig {
            read_deadline: Duration::from_millis(300),
            idle_timeout: Duration::from_millis(600),
            ..ServeConfig::default()
        },
    )
    .expect("bind server");
    let addr = server.local_addr();

    let valid = frame(&proto::encode_request(&Request::Stats));
    let mut corrupted = valid.clone();
    *corrupted.last_mut().expect("nonempty frame") ^= 0xFF;

    // (name, bytes to send, expected code on the final typed frame)
    let cases: Vec<(&str, Vec<u8>, u16)> = vec![
        ("pure garbage", vec![0xFF; 64], code::PROTOCOL),
        ("corrupted checksum", corrupted, code::PROTOCOL),
        (
            "oversize length prefix",
            vec![0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0],
            code::PROTOCOL,
        ),
        (
            "truncated frame then silence",
            valid[..5].to_vec(),
            code::DEADLINE_EXCEEDED,
        ),
        ("idle silence", Vec::new(), code::DEADLINE_EXCEEDED),
    ];

    for (name, bytes, want_code) in cases {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect raw");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set timeout");
        let hello = read_frame(&mut stream)
            .expect("hello frame")
            .expect("hello body");
        assert!(matches!(
            proto::decode_response(&hello).expect("decode hello"),
            Response::Hello(_)
        ));
        if !bytes.is_empty() {
            stream.write_all(&bytes).expect("send hostile bytes");
        }
        // Drain to EOF; the last decodable thing we see must be a
        // typed error frame with the expected code.
        let mut last_code = None;
        while let Ok(Some(body)) = read_frame(&mut stream) {
            if let Ok(Response::Error { code: c, .. }) = proto::decode_response(&body) {
                last_code = Some(c);
            }
        }
        assert_eq!(
            last_code,
            Some(want_code),
            "case {name:?}: expected a typed frame with code {want_code} before close"
        );
    }
    server.shutdown();
}

/// A commit whose deadline expires while it waits for the write lock
/// behind a commit in progress is dropped with a typed
/// `DEADLINE_EXCEEDED`, and the connection stays usable.
#[test]
fn queued_work_past_its_deadline_is_dropped_with_a_typed_frame() {
    let (server, gate, first_commit) = server_with_a_commit_in_progress(40, 31);

    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.set_deadline_ms(30);
    let queued = std::thread::spawn(move || {
        let err = client
            .commit()
            .expect_err("a 30 ms deadline behind a parked round must expire");
        (client, err)
    });
    std::thread::sleep(Duration::from_millis(150));
    gate.open_gate();
    assert_eq!(first_commit.join().expect("first committer"), 40);
    let (mut client, err) = queued.join().expect("queued committer");
    assert!(
        matches!(err, Error::DeadlineExceeded { .. }),
        "expired queued work must answer DEADLINE_EXCEEDED, got: {err}"
    );

    // Same connection, no deadline: served normally.
    client.set_deadline_ms(0);
    assert_eq!(client.commit().expect("undeadlined commit"), 40);
    let whole = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
    client.box_sum(&whole).expect("undeadlined query");
    let stats = client.stats().expect("stats");
    assert!(stats.expired >= 1, "the expiry must be counted");
    assert!(stats.validate_ok);
    server.shutdown();
}

/// A connect during a commit is greeted at once: the handshake reads
/// the published object count, not the engine behind the write lock.
#[test]
fn handshake_does_not_wait_for_a_commit() {
    let (store, gate) = commit_gated_store(25, 41);
    let server =
        ServerHandle::bind(store, "127.0.0.1:0", ServeConfig::default()).expect("bind server");
    let addr = server.local_addr();

    let mut writer = Client::connect(addr).expect("connect");
    let obj = Rect::from_bounds(&[(0.4, 0.5), (0.4, 0.5)]);
    assert_eq!(writer.insert(&obj, 3.0).expect("insert"), 26);
    gate.close_gate();
    let commit = std::thread::spawn(move || writer.commit().expect("gated commit"));
    assert!(gate.wait_parked(), "nobody ever reached the gated op");

    // The committer now holds the write lock and will until the gate
    // opens; a new connection must still hear Hello, with the count as
    // of the last applied write.
    let t0 = Instant::now();
    let greeted = Client::connect(addr).expect("connect during the commit");
    let waited = t0.elapsed();
    assert_eq!(greeted.hello().objects, 26);
    assert!(
        waited < Duration::from_secs(1),
        "handshake took {waited:?} behind a held write lock"
    );

    gate.open_gate();
    assert_eq!(commit.join().expect("committer"), 26);
    server.shutdown();
}

/// A write that out-waited its deadline on the write lock is refused
/// once it gets there — typed `DEADLINE_EXCEEDED`, nothing applied,
/// `(token, seq)` not recorded — so the client's retry under the same
/// identity applies it exactly once.
#[test]
fn a_write_that_outwaited_its_deadline_is_not_applied() {
    let (server, gate, first_commit) = server_with_a_commit_in_progress(30, 43);
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    client.set_deadline_ms(40);
    let obj = Rect::from_bounds(&[(0.2, 0.3), (0.6, 0.7)]);
    let blocked = std::thread::spawn(move || {
        let err = client
            .insert(&obj, 9.0)
            .expect_err("a 40 ms deadline behind a held write lock must expire");
        (client, err)
    });
    std::thread::sleep(Duration::from_millis(200));
    gate.open_gate();
    assert_eq!(first_commit.join().expect("first committer"), 30);
    let (mut client, err) = blocked.join().expect("blocked writer");
    assert!(
        matches!(err, Error::DeadlineExceeded { .. }),
        "a write past its deadline must answer DEADLINE_EXCEEDED, got: {err}"
    );
    assert_eq!(client.pending_writes(), 0);
    assert_eq!(Client::connect(addr).expect("probe").hello().objects, 30);
    let stats = client.stats().expect("stats");
    assert!(stats.expired >= 1, "the expiry must be counted");
    assert_eq!(stats.replays, 0);

    // The retry carries the same `(token, seq)`; had the refused op
    // been recorded it would be skipped as a replay and lost.
    let whole = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
    let before = client.box_sum(&whole).expect("sum before");
    client.set_deadline_ms(0);
    assert_eq!(client.insert(&obj, 9.0).expect("retry"), 31);
    assert_eq!(client.commit().expect("commit"), 31);
    let after = client.box_sum(&whole).expect("sum after");
    assert_eq!(after.to_bits(), (before + 9.0).to_bits());
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.replays, 0,
        "the retry was a first apply, not a replay"
    );
    assert!(stats.validate_ok);
    server.shutdown();
}

/// Tokened ops and commits are exactly-once under replay: re-sent
/// `(token, seq)` ops are skipped, a committed token answers its
/// original result from the durable record, and the aggregate proves
/// nothing was applied twice.
#[test]
fn replayed_ops_and_commits_are_exactly_once() {
    let (store, _space) = seeded_store(50, 77);
    let server =
        ServerHandle::bind(store, "127.0.0.1:0", ServeConfig::default()).expect("bind server");
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    let whole = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
    let before = client.box_sum(&whole).expect("baseline sum");

    client.set_next_token(0x77);
    let obj_a = Rect::from_bounds(&[(0.2, 0.3), (0.2, 0.3)]);
    let obj_b = Rect::from_bounds(&[(0.6, 0.7), (0.6, 0.7)]);
    assert_eq!(client.insert(&obj_a, 11.0).expect("insert a"), 51);
    // Replay the pended op mid-batch: the server must skip it.
    client.replay_pending().expect("replay before commit");
    assert_eq!(client.insert(&obj_b, 13.0).expect("insert b"), 52);
    client.replay_pending().expect("replay both");
    let committed = client.commit().expect("commit");
    assert_eq!(committed, 52);

    // A raw retry of the commit (same token) after the fact must be
    // answered from the durable record, not re-committed; a raw retry
    // of an op under the committed token must be skipped.
    let mut stream = std::net::TcpStream::connect(addr).expect("connect raw");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    read_frame(&mut stream)
        .expect("hello frame")
        .expect("hello body");
    for req in [
        Request::Commit { token: 0x77 },
        Request::Insert {
            rect: obj_a,
            value: 11.0,
            token: 0x77,
            seq: 1,
        },
    ] {
        proto::write_frame(&mut stream, &proto::encode_request(&req)).expect("send replay");
        let body = read_frame(&mut stream)
            .expect("reply frame")
            .expect("reply body");
        match proto::decode_response(&body).expect("decode reply") {
            Response::Ok { objects } => assert_eq!(objects, 52, "replay answered a fresh apply"),
            other => panic!("replay must answer Ok, got {other:?}"),
        }
    }

    // The aggregate is the ground truth: each object landed once.
    let after = client.box_sum(&whole).expect("sum after replays");
    assert_eq!(after.to_bits(), (before + 11.0 + 13.0).to_bits());
    let stats = client.stats().expect("stats");
    assert!(
        stats.replays >= 4,
        "replays were not detected: {}",
        stats.replays
    );
    assert!(stats.validate_ok);
    server.shutdown();
}

/// Several connections each insert under their own token, then all
/// commit at once: each commit runs on its own connection thread and
/// waits its turn for the write lock. Every commit answers `Ok`, every
/// object lands once, and a raw retry of each commit is answered from
/// its durable record.
#[test]
fn concurrent_commits_each_land_once_and_replay_from_their_records() {
    const K: u64 = 4;
    let (store, _space) = seeded_store(30, 0xC0C0);
    let server =
        ServerHandle::bind(store, "127.0.0.1:0", ServeConfig::default()).expect("bind server");
    let addr = server.local_addr();
    let whole = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
    let mut probe = Client::connect(addr).expect("connect");
    let before = probe.box_sum(&whole).expect("baseline sum");

    // Connection `i` inserts `i + 1` objects of value `i + 1` under
    // token `0x100 + i`.
    let barrier = Arc::new(Barrier::new(K as usize));
    let writers: Vec<_> = (0..K)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.set_next_token(0x100 + i);
                for j in 0..=i {
                    let lo = 0.1 * j as f64;
                    let obj = Rect::from_bounds(&[(lo, lo + 0.05), (0.5, 0.6)]);
                    client.insert(&obj, (i + 1) as f64).expect("insert");
                }
                barrier.wait();
                (0x100 + i, client.commit().expect("every commit answers Ok"))
            })
        })
        .collect();
    let committed: Vec<(u64, u64)> = writers
        .into_iter()
        .map(|h| h.join().expect("writer thread"))
        .collect();

    let batches: u64 = (1..=K).sum();
    assert_eq!(
        Client::connect(addr).expect("probe").hello().objects,
        30 + batches
    );
    let added: f64 = (1..=K).map(|i| (i * i) as f64).sum();
    let after = probe.box_sum(&whole).expect("sum after commits");
    assert_eq!(after.to_bits(), (before + added).to_bits());

    // A raw retry of each commit is answered from its durable record.
    let replays = probe.stats().expect("stats").replays;
    let mut stream = std::net::TcpStream::connect(addr).expect("connect raw");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    read_frame(&mut stream)
        .expect("hello frame")
        .expect("hello body");
    for &(token, objects) in &committed {
        let req = Request::Commit { token };
        proto::write_frame(&mut stream, &proto::encode_request(&req)).expect("send retry");
        let body = read_frame(&mut stream)
            .expect("reply frame")
            .expect("reply body");
        match proto::decode_response(&body).expect("decode reply") {
            Response::Ok { objects: got } => assert_eq!(got, objects, "token {token:#x}"),
            other => panic!("a retried commit must answer Ok, got {other:?}"),
        }
    }
    let stats = probe.stats().expect("stats");
    assert_eq!(stats.replays, replays + K, "one replay per token");
    assert_eq!(stats.commits, K);
    assert_eq!(stats.commits, stats.commit_rounds);
    assert!(stats.validate_ok);
    server.shutdown();
}

/// `commit_durable` rides out a connection killed between the commit
/// request and its reply: it reconnects, replays the pended ops (all
/// skipped), retries the tokened commit, and is answered from the
/// durable record — the batch lands exactly once.
#[test]
fn commit_durable_rides_through_a_killed_connection() {
    let (store, _space) = seeded_store(50, 99);
    let server =
        ServerHandle::bind(store, "127.0.0.1:0", ServeConfig::default()).expect("bind server");
    let addr = server.local_addr();

    let handle = StreamFaultHandle::new();
    let mut client = Client::connect_faulted(addr, handle.clone()).expect("connect");
    client.set_next_token(0x99);
    let whole = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
    let before = client.box_sum(&whole).expect("baseline sum");

    let obj_a = Rect::from_bounds(&[(0.3, 0.4), (0.3, 0.4)]);
    let obj_b = Rect::from_bounds(&[(0.5, 0.6), (0.5, 0.6)]);
    client.insert(&obj_a, 17.0).expect("insert a");
    client.insert(&obj_b, 19.0).expect("insert b");
    assert_eq!(client.pending_writes(), 2);

    // The commit request reaches the server, but the connection dies
    // before the reply: the next read on this socket is killed.
    handle.arm(StreamFaultSpec::kill_at(StreamOpFilter::Reads, 1));
    let n = client
        .commit_durable()
        .expect("commit_durable must survive the killed connection");
    assert_eq!(n, 52);
    assert_eq!(client.pending_writes(), 0, "batch released after success");

    // Exactly-once: the reconnect+replay+retry applied nothing twice.
    let after = client.box_sum(&whole).expect("sum after recovery");
    assert_eq!(after.to_bits(), (before + 17.0 + 19.0).to_bits());
    let stats = client.stats().expect("stats");
    assert!(stats.replays >= 1, "the retry was never deduplicated");
    assert!(stats.validate_ok);
    server.shutdown();
}

/// A read that misses the buffer is served while a commit waits on its
/// log fsync: the committing thread holds the log handle there, not
/// the pager lock the miss needs. Two frames and no decodes kept, so
/// every box-sum goes to the pager.
#[test]
fn a_cold_read_is_served_while_a_commit_waits_on_its_log_fsync() {
    let dir = boxagg_common::tempdir::tempdir().expect("tempdir");
    let path = dir.path().join("logsync.pages");
    let cfg = StoreConfig {
        page_size: 2048,
        buffer_pages: 2,
        backing: Backing::File(path.clone()),
        node_cache_pages: 0,
        wal: true,
    };
    seed_store(SharedStore::open(&cfg).expect("create store"), 200, 0x106);
    let (pager, gate) = gated(
        Box::new(FilePager::open(&path, cfg.page_size).expect("reopen file")),
        OpFilter::WalSyncs,
    );
    let store = SharedStore::open_with_pager(Box::new(pager), &cfg).expect("reopen gated store");
    let server = ServerHandle::bind(store.clone(), "127.0.0.1:0", ServeConfig::default())
        .expect("bind server");
    let addr = server.local_addr();
    let whole = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
    let mut reader = Client::connect(addr).expect("connect");
    let committed = reader.box_sum(&whole).expect("sum before");

    let mut writer = Client::connect(addr).expect("connect");
    let obj = Rect::from_bounds(&[(0.4, 0.5), (0.4, 0.5)]);
    assert_eq!(writer.insert(&obj, 3.0).expect("insert"), 201);
    gate.close_gate();
    let commit = std::thread::spawn(move || writer.commit().expect("gated commit"));
    assert!(gate.wait_parked(), "nobody ever reached the gated op");

    // The transaction is logged but not synced: not yet committed. The
    // read sees the last committed epoch, off the pager, and returns
    // with the committer still parked.
    let misses = store.stats().reads;
    let during = reader.box_sum(&whole).expect("read during the log fsync");
    assert!(
        gate.is_parked(),
        "the read only came back once the log fsync was let go"
    );
    assert!(
        store.stats().reads > misses,
        "the read never left the buffer"
    );
    assert_eq!(during.to_bits(), committed.to_bits());

    gate.open_gate();
    assert_eq!(commit.join().expect("committer"), 201);
    let after = reader.box_sum(&whole).expect("sum after");
    assert_eq!(after.to_bits(), (committed + 3.0).to_bits());
    assert!(server.stats().validate_ok);
    server.shutdown();
}

/// A read group that cannot open its engine answers with the failure's
/// own class: a checksum error on the catalog page is the server's
/// fault (`INTERNAL`, worth retrying), not the caller's
/// (`INVALID_ARGUMENT`). The page is damaged on disk behind a running
/// server whose two-frame buffer, with no decodes kept, has to
/// fetch it again for every group.
#[test]
fn a_failed_group_open_keeps_its_error_class() {
    const PAGE: usize = 2048;
    let dir = boxagg_common::tempdir::tempdir().expect("tempdir");
    let path = dir.path().join("serve.pages");
    let cfg = StoreConfig {
        page_size: PAGE,
        buffer_pages: 2,
        backing: Backing::File(path.clone()),
        node_cache_pages: 0,
        wal: true,
    };
    let space = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
    {
        let store = SharedStore::open(&cfg).expect("create file-backed WAL store");
        let mut engine = SimpleBoxSum::batree_in(space, store.clone()).expect("create engine");
        let mut rng = StdRng::seed_from_u64(77);
        for i in 0..60 {
            engine
                .insert(&rand_rect(&mut rng, 2, 0.3), (i % 5) as f64 + 1.0)
                .expect("insert");
        }
        boxagg_core::catalog::persist_corner_engine(&engine, &space).expect("persist");
        store.commit().expect("commit");
    }
    // Reopened, the pool holds only what it has fetched since.
    let store = SharedStore::open(&cfg).expect("reopen");
    let server =
        ServerHandle::bind(store, "127.0.0.1:0", ServeConfig::default()).expect("bind server");

    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect raw");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let hello = read_frame(&mut stream).expect("hello frame");
    assert!(hello.is_some());
    let mut ask = || {
        let inner = Rect::from_bounds(&[(0.25, 0.75), (0.25, 0.75)]);
        let body = proto::encode_request(&Request::BoxSum(inner));
        stream.write_all(&frame(&body)).expect("send query");
        let reply = read_frame(&mut stream).expect("reply frame").expect("body");
        proto::decode_response(&reply).expect("decode reply")
    };
    // An interior box reads all four corner roots, which push the
    // catalog page out of the buffer.
    let Response::Sum(before) = ask() else {
        panic!("healthy store must answer")
    };

    let flip_catalog_byte = || {
        let mut bytes = std::fs::read(&path).expect("read store file");
        bytes[17] ^= 0x01;
        std::fs::write(&path, &bytes).expect("write store file");
    };
    flip_catalog_byte();
    match ask() {
        Response::Error {
            code: c, message, ..
        } => {
            assert_eq!(c, code::INTERNAL, "wire code for: {message}");
            assert!(message.contains("checksum"), "got: {message}");
        }
        other => panic!("expected a typed error frame, got {other:?}"),
    }
    // The connection survives, and so does the server once the page is
    // whole again: a corrupt fetch never entered the buffer.
    flip_catalog_byte();
    let Response::Sum(after) = ask() else {
        panic!("repaired store must answer")
    };
    assert_eq!(after.to_bits(), before.to_bits());
    server.shutdown();
}
