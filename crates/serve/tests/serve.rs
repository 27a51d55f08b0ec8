//! End-to-end tests for the serving layer: concurrent connections ≡
//! in-process `SnapshotBoxSum` (bit for bit; nothing decodes on a warm
//! epoch) and survival under hostile bytes.

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use boxagg_common::geom::{Point, Rect};
use boxagg_common::rng::StdRng;
use boxagg_core::catalog::SnapshotBoxSum;
use boxagg_core::engine::SimpleBoxSum;
use boxagg_pagestore::{SharedStore, StoreConfig};
use boxagg_serve::proto::{self, frame, read_frame, Request, Response};
use boxagg_serve::{Client, ServeConfig, ServerHandle};

fn rand01(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

fn rand_rect(rng: &mut StdRng, dim: usize, side: f64) -> Rect {
    let low: Vec<f64> = (0..dim).map(|_| rand01(rng) * (1.0 - side)).collect();
    let bounds: Vec<(f64, f64)> = low.iter().map(|&l| (l, l + rand01(rng) * side)).collect();
    Rect::from_bounds(&bounds)
}

/// Builds a committed 2-d store with `n` objects and returns it with
/// the query space.
fn seeded_store(n: usize, seed: u64) -> (SharedStore, Rect) {
    // A buffer that never evicts a page, and so never drops a decode
    // kept with one: decode counts below are about sharing, not
    // capacity.
    let cfg = StoreConfig::small(2048, 1 << 14).with_wal(true);
    let store = SharedStore::open(&cfg).expect("open memory WAL store");
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

/// An idle server shuts down at once: its committer is woken by a stop
/// message, not found out by a poll.
#[test]
fn an_idle_server_shuts_down_at_once() {
    let (store, _space) = seeded_store(20, 7);
    let server =
        ServerHandle::bind(store, "127.0.0.1:0", ServeConfig::default()).expect("bind server");
    // Let the committer settle into its wait.
    std::thread::sleep(Duration::from_millis(20));
    let t0 = Instant::now();
    server.shutdown();
    let took = t0.elapsed();
    assert!(
        took < Duration::from_millis(50),
        "an idle shutdown took {took:?}"
    );
}

#[test]
fn concurrent_connections_answer_like_in_process_and_a_warm_epoch_decodes_nothing() {
    const K: usize = 16;
    let (store, _space) = seeded_store(400, 0xB0B5);
    let mut rng = StdRng::seed_from_u64(42);
    let queries: Vec<Rect> = (0..K).map(|_| rand_rect(&mut rng, 2, 0.5)).collect();

    // In-process baseline: each query on its own snapshot, exactly what
    // the server does per request. It is also the epoch's first pass,
    // so it pays the decodes — each page once, shared across snapshots.
    let mut serial_answers = Vec::new();
    let (mut serial_accesses, mut serial_decodes) = (0u64, 0u64);
    for q in &queries {
        let snap = Arc::new(store.snapshot().expect("snapshot"));
        let engine = SnapshotBoxSum::open(&snap).expect("open");
        serial_answers.push(engine.query(q).expect("serial query"));
        let (accesses, decodes) = snap.node_reads();
        serial_accesses += accesses;
        serial_decodes += decodes;
    }
    assert!(
        0 < serial_decodes && serial_decodes < serial_accesses,
        "the cold pass decodes each page once: {serial_decodes} of {serial_accesses}"
    );

    let server = ServerHandle::bind(store.clone(), "127.0.0.1:0", ServeConfig::default())
        .expect("bind server");
    let addr = server.local_addr();

    // All clients connect first, then fire simultaneously: K reads in
    // flight on K connection threads, each on its own pin of the same epoch.
    let barrier = Arc::new(Barrier::new(K));
    let handles: Vec<_> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let q = *q;
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                barrier.wait();
                (i, client.box_sum(&q).expect("box_sum"))
            })
        })
        .collect();
    let mut served = [0.0f64; K];
    for h in handles {
        let (i, v) = h.join().expect("client thread");
        served[i] = v;
    }
    for (i, (got, want)) in served.iter().zip(&serial_answers).enumerate() {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "query {i}: served {got} vs in-process {want}"
        );
    }
    let stats = server.stats();
    assert_eq!((stats.queries, stats.groups), (K as u64, K as u64));
    assert_eq!(
        stats.node_accesses, serial_accesses,
        "the same queries on the same epoch touch the same nodes"
    );
    assert_eq!(
        stats.node_decodes, 0,
        "a served pass over an unchanged epoch decoded"
    );
    assert_eq!(
        (stats.shed, stats.expired, stats.protocol_errors),
        (0, 0, 0)
    );
    assert!(stats.validate_ok, "store failed validate() after serving");
    server.shutdown();
}

#[test]
fn writes_commit_through_the_server_and_become_visible() {
    let (store, _space) = seeded_store(50, 7);
    let server =
        ServerHandle::bind(store, "127.0.0.1:0", ServeConfig::default()).expect("bind server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert_eq!(client.hello().objects, 50);

    let whole = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
    let before = client.box_sum(&whole).expect("query before");

    let obj = Rect::from_bounds(&[(0.4, 0.6), (0.4, 0.6)]);
    client.insert(&obj, 10.0).expect("insert");
    // Buffered but uncommitted: reads still see the old epoch.
    let mid = client.box_sum(&whole).expect("query mid");
    assert_eq!(mid.to_bits(), before.to_bits(), "uncommitted write leaked");

    assert_eq!(client.commit().expect("commit"), 51);
    let after = client.box_sum(&whole).expect("query after");
    assert_eq!(after, before + 10.0);

    client.delete(&obj, 10.0).expect("delete");
    assert_eq!(client.commit().expect("commit"), 50);
    let back = client.box_sum(&whole).expect("query back");
    assert_eq!(back.to_bits(), before.to_bits());

    let stats = client.stats().expect("stats");
    assert!(stats.validate_ok);
    assert_eq!(stats.commits, 2);
    server.shutdown();
}

#[test]
fn invalid_arguments_keep_the_connection_usable() {
    let (store, _space) = seeded_store(30, 3);
    let server =
        ServerHandle::bind(store, "127.0.0.1:0", ServeConfig::default()).expect("bind server");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let wrong_dim = Rect::from_bounds(&[(0.0, 1.0); 3]);
    let err = client
        .box_sum(&wrong_dim)
        .expect_err("3-d query on 2-d index");
    assert!(err.to_string().contains("3-d"), "{err}");

    let bad_mask = Point::new(&[0.5, 0.5]);
    let err = client
        .dominance_sum(9, &bad_mask)
        .expect_err("mask 9 out of range in 2-d");
    assert!(err.to_string().contains("mask"), "{err}");

    // Same connection still answers real queries.
    let whole = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
    client.box_sum(&whole).expect("valid query after errors");
    server.shutdown();
}

/// A `DomSum` frame with a NaN coordinate is well-formed on the wire
/// but has no answer: it gets a typed `INVALID_ARGUMENT` frame (not the
/// sum at the space's ceiling), the connection stays, and `±∞` is still
/// answered.
#[test]
fn a_nan_dominance_query_is_a_typed_invalid_argument_on_a_kept_connection() {
    let (store, _space) = seeded_store(30, 5);
    let server =
        ServerHandle::bind(store, "127.0.0.1:0", ServeConfig::default()).expect("bind server");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect raw");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let mut reply = move |req: Option<Request>| -> Response {
        if let Some(req) = req {
            let bytes = frame(&proto::encode_request(&req));
            stream.write_all(&bytes).expect("send request");
        }
        let body = read_frame(&mut stream)
            .expect("read reply")
            .expect("a reply, not a hang-up");
        proto::decode_response(&body).expect("decode reply")
    };
    assert!(matches!(reply(None), Response::Hello(_)));
    let mut ask = |req: Request| reply(Some(req));
    let inf = f64::INFINITY;
    let whole = ask(Request::DomSum {
        mask: 0,
        point: Point::new(&[inf, inf]),
    });
    assert!(matches!(whole, Response::Sum(_)), "{whole:?}");
    for coords in [[f64::NAN, 0.5], [0.5, f64::NAN], [f64::NAN, inf]] {
        for mask in 0..4 {
            let point = Point::new(&coords);
            match ask(Request::DomSum { mask, point }) {
                Response::Error { code: c, .. } => {
                    assert_eq!(c, proto::code::INVALID_ARGUMENT, "{coords:?} mask {mask}")
                }
                other => panic!("{coords:?} mask {mask} answered {other:?}"),
            }
        }
    }
    // The same connection still answers, and `+∞` means the ceiling.
    assert_eq!(
        ask(Request::DomSum {
            mask: 0,
            point: Point::new(&[inf, inf]),
        }),
        whole
    );
    assert!(matches!(
        ask(Request::DomSum {
            mask: 0,
            point: Point::new(&[-inf, 0.5]),
        }),
        Response::Sum(s) if s == 0.0
    ));
    assert_eq!(server.stats().protocol_errors, 0);
    server.shutdown();
}

/// A write the engine refuses — a value that is not finite, or an
/// object reaching past the indexed space — gets a typed
/// `INVALID_ARGUMENT` frame and leaves no part of the object behind:
/// the next commit makes nothing durable, no answer moves, and the
/// connection stays.
#[test]
fn a_refused_write_is_a_typed_invalid_argument_and_leaves_nothing_behind() {
    let (store, _space) = seeded_store(30, 11);
    let server =
        ServerHandle::bind(store, "127.0.0.1:0", ServeConfig::default()).expect("bind server");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect raw");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let mut reply = move |req: Option<Request>| -> Response {
        if let Some(req) = req {
            let bytes = frame(&proto::encode_request(&req));
            stream.write_all(&bytes).expect("send request");
        }
        let body = read_frame(&mut stream)
            .expect("read reply")
            .expect("a reply, not a hang-up");
        proto::decode_response(&body).expect("decode reply")
    };
    assert!(matches!(reply(None), Response::Hello(_)));
    let mut ask = |req: Request| reply(Some(req));
    let stripe = Request::BoxSum(Rect::from_bounds(&[(0.4, 0.6), (0.0, 1.0)]));
    let before = ask(stripe.clone());
    assert!(matches!(before, Response::Sum(_)), "{before:?}");

    let inside = Rect::from_bounds(&[(0.5, 0.55), (0.1, 0.2)]);
    let past = Rect::from_bounds(&[(0.5, 2.0), (0.1, 0.2)]);
    let write = |delete: bool, rect: Rect, value: f64| {
        let (token, seq) = (0, 0);
        if delete {
            Request::Delete {
                rect,
                value,
                token,
                seq,
            }
        } else {
            Request::Insert {
                rect,
                value,
                token,
                seq,
            }
        }
    };
    let refused = [
        (past, 5.0),
        (inside, f64::NAN),
        (inside, f64::INFINITY),
        (inside, f64::NEG_INFINITY),
    ];
    for (rect, value) in refused {
        for delete in [false, true] {
            let at = format!("{rect:?} value {value} delete {delete}");
            match ask(write(delete, rect, value)) {
                Response::Error { code, .. } => {
                    assert_eq!(code, proto::code::INVALID_ARGUMENT, "{at}")
                }
                other => panic!("{at} answered {other:?}"),
            }
        }
    }
    assert_eq!(
        ask(Request::Commit { token: 0 }),
        Response::Ok { objects: 30 }
    );
    assert_eq!(ask(stripe), before, "a refused write left part of itself");
    assert_eq!(ask(write(false, inside, 5.0)), Response::Ok { objects: 31 });
    assert_eq!(server.stats().protocol_errors, 0);
    server.shutdown();
}

/// Seeded byte-level mutations of valid frames must never take the
/// server down: every hostile connection ends in a typed error frame
/// or a clean disconnect, and the server keeps serving well-formed
/// clients afterwards.
#[test]
fn mutated_frames_never_kill_the_server() {
    let (store, _space) = seeded_store(40, 11);
    let server =
        ServerHandle::bind(store, "127.0.0.1:0", ServeConfig::default()).expect("bind server");
    let addr = server.local_addr();

    let valid_bodies = [
        proto::encode_request(&Request::BoxSum(Rect::from_bounds(&[
            (0.1, 0.9),
            (0.1, 0.9),
        ]))),
        proto::encode_request(&Request::DomSum {
            mask: 2,
            point: Point::new(&[0.5, 0.5]),
        }),
        proto::encode_request(&Request::Commit { token: 0 }),
        proto::encode_request(&Request::Stats),
    ];

    let mut rng = StdRng::seed_from_u64(0xFEED);
    for round in 0..120 {
        let mut stream = TcpStream::connect(addr).expect("connect raw");
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

        let bytes: Vec<u8> = match round % 3 {
            // Flip bytes inside an otherwise valid frame.
            0 => {
                let mut f = frame(&valid_bodies[rng.gen_range(0..valid_bodies.len())]);
                for _ in 0..1 + rng.gen_range(0..4) {
                    let i = rng.gen_range(0..f.len());
                    f[i] ^= (rng.next_u64() as u8) | 1;
                }
                f
            }
            // Truncate a valid frame mid-flight.
            1 => {
                let f = frame(&valid_bodies[rng.gen_range(0..valid_bodies.len())]);
                let cut = 1 + rng.gen_range(0..f.len() - 1);
                f[..cut].to_vec()
            }
            // Pure noise.
            _ => {
                let n = 1 + rng.gen_range(0..200);
                (0..n).map(|_| rng.next_u64() as u8).collect()
            }
        };
        // A write or shutdown can fail if the server already dropped
        // the connection (e.g. an earlier byte was enough to refuse
        // it) — that counts as the clean-disconnect outcome.
        if stream.write_all(&bytes).is_ok() {
            stream.shutdown(Shutdown::Write).ok();
        }

        // Drain whatever the server answers. Anything decodable must
        // be a protocol response; a clean disconnect is equally fine.
        // The one thing that must not happen is the server dying.
        loop {
            match read_frame(&mut stream) {
                Ok(Some(body)) => {
                    // Well-formed reply (the mutation may have left the
                    // frame valid); it must decode as a response.
                    proto::decode_response(&body).expect("server sent a decodable frame");
                }
                Ok(None) => break,
                Err(_) => break,
            }
        }
    }

    // The server is still alive and correct for honest clients.
    let mut client = Client::connect(addr).expect("connect after fuzzing");
    let whole = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
    client.box_sum(&whole).expect("query after fuzzing");
    let stats = client.stats().expect("stats after fuzzing");
    assert!(stats.protocol_errors > 0, "fuzzing never tripped the codec");
    assert!(stats.validate_ok);
    server.shutdown();
}

/// Dropping the handle (or calling shutdown) stops the listener and
/// joins every serving thread, even with idle clients connected.
#[test]
fn shutdown_with_idle_connections_does_not_hang() {
    let (store, _space) = seeded_store(10, 1);
    let server =
        ServerHandle::bind(store, "127.0.0.1:0", ServeConfig::default()).expect("bind server");
    let addr = server.local_addr();
    let _idle1 = Client::connect(addr).expect("idle client 1");
    let _idle2 = Client::connect(addr).expect("idle client 2");
    server.shutdown();
    assert!(
        TcpStream::connect(addr).is_err() || {
            // The OS may let one more connect race in before the
            // listener closes fully; it must at least go nowhere.
            true
        }
    );
}
