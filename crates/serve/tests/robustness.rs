//! Robustness tests for the serving layer: connection caps, deadlines
//! (including slowloris starvation), overload shedding and dirty-page
//! backpressure, typed-frame-before-close discipline, and retry-safe
//! writes under injected connection death.

use std::io::Write;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use boxagg_common::error::Error;
use boxagg_common::geom::Rect;
use boxagg_common::rng::StdRng;
use boxagg_core::catalog::SnapshotBoxSum;
use boxagg_core::engine::SimpleBoxSum;
use boxagg_pagestore::{Backing, SharedStore, StoreConfig};
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
            threads: 4,
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

/// Satellite 2: a batch member whose connection dies before its reply
/// can be written must not skew the group's counters — the traversal
/// happened once, the counters say so once, and the surviving members'
/// answers stay bit-identical to serial.
#[test]
fn a_dead_member_reply_does_not_skew_group_counters() {
    let (store, _space) = seeded_store(300, 0xDEAD);
    let mut rng = StdRng::seed_from_u64(9);
    let queries: Vec<Rect> = (0..3).map(|_| rand_rect(&mut rng, 2, 0.5)).collect();

    // Serial answers for the two members that live to hear theirs.
    let mut serial = Vec::new();
    for q in &queries {
        let engine = SnapshotBoxSum::open(store.snapshot().expect("snapshot")).expect("open");
        serial.push(engine.query(q).expect("serial query"));
    }

    let server = ServerHandle::bind(
        store,
        "127.0.0.1:0",
        ServeConfig {
            batch_window: Duration::from_millis(300),
            threads: 8,
            ..ServeConfig::default()
        },
    )
    .expect("bind server");
    let addr = server.local_addr();

    let barrier = Arc::new(Barrier::new(3));
    let mut handles = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let q = *q;
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            if i == 2 {
                // This member's socket dies right after the request is
                // written: the server computes its answer but the reply
                // write lands on a killed connection.
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
                Some((i, client.box_sum(&q).expect("healthy member answer")))
            }
        }));
    }
    for h in handles {
        if let Some((i, got)) = h.join().expect("member thread") {
            assert_eq!(
                got.to_bits(),
                serial[i].to_bits(),
                "member {i} diverged from serial"
            );
        }
    }

    // Give the server a beat to finish the group's bookkeeping, then
    // pin the counters: all three traversals accounted exactly once,
    // in exactly one group, dead reply or not.
    std::thread::sleep(Duration::from_millis(100));
    let stats = server.stats();
    assert_eq!(stats.queries, 3, "every member's traversal counts once");
    assert_eq!(stats.groups, 1, "one admission window, one group");
    assert!(stats.node_accesses >= stats.node_decodes);
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
            threads: 4,
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

/// Satellite 3: the pagestore's dirty-page ceiling surfaces through
/// the network path as a typed `OVERLOADED` (never `INTERNAL`), the
/// refused write has no side effects, and the client's backoff retry
/// succeeds once the pressure lifts.
#[test]
fn dirty_page_backpressure_is_typed_overloaded_and_recovers_after_backoff() {
    let (store, _space) = seeded_store(60, 13);
    let server = ServerHandle::bind(
        store.clone(),
        "127.0.0.1:0",
        ServeConfig {
            retry_after: Duration::from_millis(1),
            threads: 4,
            ..ServeConfig::default()
        },
    )
    .expect("bind server");
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    client.set_backoff_seed(0x5EED);
    let obj_a = Rect::from_bounds(&[(0.1, 0.2), (0.1, 0.2)]);
    let obj_b = Rect::from_bounds(&[(0.7, 0.8), (0.7, 0.8)]);
    let n = client.insert(&obj_a, 5.0).expect("insert under no ceiling");
    assert_eq!(n, 61);

    // Clamp the ceiling at the current dirty count: every further
    // write must be refused up front.
    store.set_dirty_ceiling(store.dirty_pages().max(1));
    let err = client
        .insert(&obj_b, 7.0)
        .expect_err("write at the ceiling must be refused");
    assert!(
        matches!(err, Error::Overloaded { .. }),
        "backpressure must surface as typed OVERLOADED, got: {err}"
    );
    // The refusal was side-effect-free: the engine still holds 61.
    assert_eq!(Client::connect(addr).expect("probe").hello().objects, 61);

    // Lift the pressure while the client is mid-backoff: the retry
    // loop must land the write without the caller seeing any error.
    let lifter = {
        let store = store.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            store.set_dirty_ceiling(0);
        })
    };
    let n = client
        .insert(&obj_b, 7.0)
        .expect("backoff must ride out the pressure");
    assert_eq!(n, 62);
    lifter.join().expect("lifter thread");

    let n = client.commit().expect("commit");
    assert_eq!(n, 62);
    let stats = client.stats().expect("stats");
    assert!(stats.validate_ok);
    server.shutdown();
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
            threads: 4,
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

/// A request whose deadline expires while it waits in the admission
/// queue is dropped with a typed `DEADLINE_EXCEEDED` — no traversal is
/// spent on an answer nobody is waiting for — and the connection stays
/// usable.
#[test]
fn queued_work_past_its_deadline_is_dropped_with_a_typed_frame() {
    let (store, _space) = seeded_store(40, 31);
    let server = ServerHandle::bind(
        store,
        "127.0.0.1:0",
        ServeConfig {
            // A long admission window guarantees the tiny deadline
            // expires while the request sits in the forming group.
            batch_window: Duration::from_millis(400),
            threads: 4,
            ..ServeConfig::default()
        },
    )
    .expect("bind server");

    let mut client = Client::connect(server.local_addr()).expect("connect");
    let whole = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
    client.set_deadline_ms(30);
    let err = client
        .box_sum(&whole)
        .expect_err("30 ms deadline inside a 400 ms window must expire");
    assert!(
        matches!(err, Error::DeadlineExceeded { .. }),
        "expired queued work must answer DEADLINE_EXCEEDED, got: {err}"
    );

    // Same connection, no deadline: served normally.
    client.set_deadline_ms(0);
    client.box_sum(&whole).expect("undeadlined query");
    let stats = client.stats().expect("stats");
    assert!(stats.expired >= 1, "the expiry must be counted");
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
    client.set_backoff_seed(0xC0);
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

/// Under a burst that outruns the admission queue, singleton reads are
/// shed with typed `OVERLOADED` frames and every client still gets its
/// (bit-identical) answer through backoff — overload degrades latency,
/// never correctness.
#[test]
fn shed_reads_recover_through_client_backoff() {
    const CLIENTS: usize = 12;
    let (store, _space) = seeded_store(200, 0x0DD);
    let whole = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
    let serial = {
        let engine = SnapshotBoxSum::open(store.snapshot().expect("snapshot")).expect("open");
        engine.query(&whole).expect("serial answer")
    };

    let server = ServerHandle::bind(
        store,
        "127.0.0.1:0",
        ServeConfig {
            // Window zero keeps every read a singleton; queue_limit 2
            // makes singletons shed at depth 1 — the smallest burst
            // contention trips the policy.
            batch_window: Duration::ZERO,
            queue_limit: 2,
            retry_after: Duration::from_millis(1),
            threads: CLIENTS + 4,
            ..ServeConfig::default()
        },
    )
    .expect("bind server");
    let addr = server.local_addr();

    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|i| {
            let mut c = Client::connect(addr).expect("connect");
            c.set_backoff_seed(0x0DD ^ i as u64);
            c
        })
        .collect();

    // Concurrent bursts until shedding is observed (virtually always
    // the first round); every answer must come back correct.
    let mut shed_seen = false;
    for _round in 0..40 {
        let barrier = Arc::new(Barrier::new(CLIENTS));
        std::thread::scope(|scope| {
            for client in clients.iter_mut() {
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let got = client.box_sum(&whole).expect("burst query");
                    assert_eq!(got.to_bits(), serial.to_bits());
                });
            }
        });
        if server.stats().shed > 0 {
            shed_seen = true;
            break;
        }
    }
    assert!(shed_seen, "no burst ever tripped the shedding policy");
    assert!(server.stats().validate_ok);
    server.shutdown();
}

/// A read group that cannot open its engine answers with the failure's
/// own class: a checksum error on the catalog page is the server's
/// fault (`INTERNAL`, worth retrying), not the caller's
/// (`INVALID_ARGUMENT`). The page is damaged on disk behind a running
/// server whose two-frame buffer, with both node caches off, has to
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
        parallelism: 1,
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
