//! The CLI commands, factored for testability: every command takes plain
//! arguments and returns its report as a `String`.

use std::path::Path;
use std::time::Duration;

use boxagg_batree::BATree;
use boxagg_common::error::{invalid_arg, Result};
use boxagg_common::geom::{Point, Rect};
use boxagg_common::traits::check_insert;
use boxagg_core::catalog::{
    corner_root_name, open_corner_engine, persist_corner_engine, OBJECTS_ROOT,
};
use boxagg_core::engine::SimpleBoxSum;
use boxagg_pagestore::pager::wal_path;
use boxagg_pagestore::{superblock, Backing, PageId, SharedStore, StoreConfig};
use boxagg_serve::{ServeConfig, ServerHandle};

/// Splits a comma-separated numeric spec, carrying the byte offset of
/// each field so malformed input — including trailing garbage after a
/// well-formed prefix — is rejected with a typed error naming where.
fn parse_fields(spec: &str, what: &str) -> Result<Vec<f64>> {
    let mut nums = Vec::new();
    let mut offset = 0usize;
    for tok in spec.split(',') {
        let lead = tok.len() - tok.trim_start().len();
        let trimmed = tok.trim();
        if trimmed.is_empty() {
            return Err(invalid_arg(format!(
                "{what} has an empty field at byte {offset}: {spec:?}"
            )));
        }
        let v = trimmed.parse::<f64>().map_err(|_| {
            invalid_arg(format!(
                "{what} has a malformed number {trimmed:?} at byte {}: {spec:?}",
                offset + lead
            ))
        })?;
        nums.push(v);
        offset += tok.len() + 1;
    }
    Ok(nums)
}

/// Parses `l1,h1,l2,h2,…` into a box.
pub fn parse_box(spec: &str) -> Result<Rect> {
    let nums = parse_fields(spec, "box spec")?;
    if nums.len() < 2 || !nums.len().is_multiple_of(2) {
        return Err(invalid_arg(
            "box spec needs an even number of coordinates: l1,h1,l2,h2,…",
        ));
    }
    let dim = nums.len() / 2;
    let low = Point::from_fn(dim, |i| nums[2 * i]);
    let high = Point::from_fn(dim, |i| nums[2 * i + 1]);
    if !(0..dim).all(|i| low.get(i) <= high.get(i)) {
        return Err(invalid_arg("box lows must not exceed highs"));
    }
    Ok(Rect::new(low, high))
}

/// Parses one CSV object line `l1,h1,…,ld,hd,value`.
pub fn parse_object(line: &str, dim: usize) -> Result<(Rect, f64)> {
    let nums = parse_fields(line, "object line")?;
    if nums.len() != 2 * dim + 1 {
        return Err(invalid_arg(format!(
            "object line needs {} fields (2·dim + value), got {}",
            2 * dim + 1,
            nums.len()
        )));
    }
    let low = Point::from_fn(dim, |i| nums[2 * i]);
    let high = Point::from_fn(dim, |i| nums[2 * i + 1]);
    if !(0..dim).all(|i| low.get(i) <= high.get(i)) {
        return Err(invalid_arg("object lows must not exceed highs"));
    }
    Ok((Rect::new(low, high), nums[2 * dim]))
}

/// Reads the page size recorded in the file's superblock prefix —
/// needed before the store can be opened at the right geometry. A
/// store of another format version is refused here already.
fn stored_page_size(pages: &Path) -> Result<usize> {
    superblock::stored_page_size(&std::fs::File::open(pages)?)?.ok_or_else(|| {
        invalid_arg(format!(
            "{} is not a boxagg store (no superblock)",
            pages.display()
        ))
    })
}

/// A page size of 0 yields a config [`StoreConfig::validate`] refuses,
/// not a division by zero.
fn store_config(pages: &Path, page_size: usize, buffer_mb: usize) -> StoreConfig {
    let buffer_pages = (buffer_mb * 1024 * 1024 / page_size.max(1)).max(1);
    StoreConfig {
        page_size,
        buffer_pages,
        backing: Backing::File(pages.to_path_buf()),
        node_cache_pages: buffer_pages,
        wal: true,
    }
}

fn open_engine(pages: &Path, buffer_mb: usize) -> Result<(SimpleBoxSum<BATree<f64>>, SharedStore)> {
    let page_size = stored_page_size(pages)?;
    let store = SharedStore::open(&store_config(pages, page_size, buffer_mb))?;
    let (engine, _space) = open_corner_engine(&store)
        .map_err(|_| invalid_arg(format!("{} holds no box-sum index", pages.display())))?;
    Ok((engine, store))
}

/// Opens the store without write access: page 0 is never formatted and
/// the WAL sidecar is never created or truncated, so inspecting an
/// index a server is actively serving is safe.
fn open_readonly(pages: &Path, buffer_mb: usize) -> Result<SharedStore> {
    let page_size = stored_page_size(pages)?;
    SharedStore::open_readonly(&store_config(pages, page_size, buffer_mb))
}

/// Publishes every corner tree's current root and length plus the
/// object count in the superblock, then commits the whole update —
/// index pages, page allocations and catalog — as one crash-atomic WAL
/// transaction.
fn persist(engine: &SimpleBoxSum<BATree<f64>>, store: &SharedStore) -> Result<()> {
    let space = *engine.indexes()[0].space();
    persist_corner_engine(engine, &space)?;
    store.commit()
}

/// `boxagg build INDEX --csv FILE --space l1,h1,…`: builds a fresh
/// file-backed index from a CSV of objects with one bulk load.
///
/// The space, the store config and every CSV line (parsed, finite,
/// inside the space) are checked first. The index is then built and
/// committed in a sibling `INDEX.building` with its own log, which
/// replaces the old index by rename only once it is complete: a build
/// refused or failed at any step removes the sibling and leaves the old
/// index untouched.
pub fn build(pages: &Path, csv: &Path, space_spec: &str, page_size: usize) -> Result<String> {
    let space = parse_box(space_spec)?;
    let dim = space.dim();
    let mut building = pages.as_os_str().to_os_string();
    building.push(".building");
    let building = std::path::PathBuf::from(building);
    let config = store_config(&building, page_size, 64);
    config.validate()?;
    let text = std::fs::read_to_string(csv)?;
    let mut objects = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let object = parse_object(line, dim).and_then(|(rect, value)| {
            check_insert(rect.low(), dim, &value)?;
            if !space.contains_rect(&rect) {
                return Err(invalid_arg(format!("object {rect:?} outside {space:?}")));
            }
            Ok((rect, value))
        });
        objects.push(
            object.map_err(|e| invalid_arg(format!("{}:{}: {e}", csv.display(), lineno + 1)))?,
        );
    }
    // A sibling left by a build that crashed is stale: `build` means
    // *create*, so nothing of it may be reopened.
    remove_store(&building)?;
    // The engine, and with it the store, is closed before the rename.
    let built = SimpleBoxSum::batree_bulk(space, config, &objects)
        .and_then(|engine| {
            let store = engine.indexes()[0].store().clone();
            persist(&engine, &store)?;
            Ok((store.live_pages(), store.size_bytes()))
        })
        .and_then(|size| replace_store(&building, pages).map(|()| size));
    let (live_pages, size_bytes) = built.inspect_err(|_| {
        // lint: allow(discarded-result) -- best-effort cleanup; the build error is what the caller must see
        let _ = remove_store(&building);
    })?;
    Ok(format!(
        "built {} with {} objects, {live_pages} pages ({:.1} MiB)",
        pages.display(),
        objects.len(),
        size_bytes as f64 / (1024.0 * 1024.0)
    ))
}

/// Removes a store's data file and its log, if they exist.
fn remove_store(pages: &Path) -> Result<()> {
    for file in [pages.to_path_buf(), wal_path(pages)] {
        match std::fs::remove_file(&file) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Moves the committed store at `from` over the one at `to`. The log
/// goes first, so the new pages never meet the old index's log; between
/// the two renames the old data file sits beside `from`'s log, which is
/// empty once its commit returned. The directory sync makes both
/// renames durable.
fn replace_store(from: &Path, to: &Path) -> Result<()> {
    std::fs::rename(wal_path(from), wal_path(to))?;
    std::fs::rename(from, to)?;
    let dir = match to.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()?;
    Ok(())
}

/// `boxagg query INDEX --box l1,h1,…`: the total value of objects
/// intersecting the box. Opens the store read-only — querying never
/// formats pages or touches the WAL, so it is safe against an index
/// another process is serving or rebuilding.
pub fn query(pages: &Path, box_spec: &str) -> Result<String> {
    let q = parse_box(box_spec)?;
    let store = open_readonly(pages, 16)?;
    let (engine, _space) = open_corner_engine(&store)
        .map_err(|_| invalid_arg(format!("{} holds no box-sum index", pages.display())))?;
    let dim = engine.dim();
    if q.dim() != dim {
        return Err(invalid_arg(format!(
            "query is {}-d but the index is {dim}-d",
            q.dim(),
        )));
    }
    let sum = engine.query(&q)?;
    let ios = store.stats().total();
    Ok(format!("sum = {sum}\n({ios} I/Os)"))
}

/// `boxagg insert INDEX --object l1,h1,…,value`: adds one object.
pub fn insert(pages: &Path, object_spec: &str) -> Result<String> {
    let (mut engine, store) = open_engine(pages, 16)?;
    let (rect, value) = parse_object(object_spec, engine.dim())?;
    engine.insert(&rect, value)?;
    persist(&engine, &store)?;
    Ok(format!(
        "inserted; index now holds {} objects",
        engine.len()
    ))
}

/// `boxagg delete INDEX --object l1,h1,…,value`: removes one object
/// (by negation; the spec must match the original insertion).
pub fn delete(pages: &Path, object_spec: &str) -> Result<String> {
    let (mut engine, store) = open_engine(pages, 16)?;
    let (rect, value) = parse_object(object_spec, engine.dim())?;
    engine.delete(&rect, value)?;
    persist(&engine, &store)?;
    Ok(format!("deleted; index now holds {} objects", engine.len()))
}

/// `boxagg info INDEX`: superblock-catalog and size report. Read-only,
/// like [`query`].
pub fn info(pages: &Path) -> Result<String> {
    let store = open_readonly(pages, 16)?;
    let page_size = store.page_size();
    let meta = store
        .root(OBJECTS_ROOT)?
        .ok_or_else(|| invalid_arg(format!("{} holds no box-sum index", pages.display())))?;
    let dim = meta.dims as usize;
    let space = Rect::from_bounds(&meta.bounds);
    let roots: Vec<PageId> = (0..(1usize << dim))
        .map(|mask| {
            store
                .root(&corner_root_name(mask))?
                .map(|e| e.root)
                .ok_or_else(|| invalid_arg(format!("missing corner tree {mask}")))
        })
        .collect::<Result<_>>()?;
    let bytes = std::fs::metadata(pages)?.len();
    let mut s = String::new();
    s.push_str(&format!("index:     {}\n", pages.display()));
    s.push_str(&format!("format:    v{}\n", superblock::VERSION));
    s.push_str(&format!("dimension: {dim}\n"));
    s.push_str(&format!("objects:   {}\n", meta.len));
    s.push_str(&format!("space:     {space:?}\n"));
    s.push_str(&format!("page size: {page_size} B\n"));
    s.push_str(&format!(
        "file size: {} pages ({:.1} MiB)\n",
        bytes / page_size as u64,
        bytes as f64 / (1024.0 * 1024.0)
    ));
    s.push_str(&format!("corner tree roots: {roots:?}"));
    Ok(s)
}

/// `boxagg serve INDEX --listen ADDR`: starts the network query
/// service and returns its handle (the caller decides how long to
/// serve). Each read is answered inline on a snapshot pinned to the
/// last committed epoch; each commit runs on its own connection
/// thread. The robustness knobs — per-frame read deadline, idle reap,
/// connection cap — pass straight into [`ServeConfig`]; `0` keeps each
/// one's default.
pub fn serve(
    pages: &Path,
    listen: &str,
    read_deadline_ms: u64,
    idle_timeout_ms: u64,
    max_connections: usize,
) -> Result<ServerHandle> {
    let page_size = stored_page_size(pages)?;
    let store = SharedStore::open(&store_config(pages, page_size, 64))?;
    let defaults = ServeConfig::default();
    ServerHandle::bind(
        store,
        listen,
        ServeConfig {
            read_deadline: if read_deadline_ms == 0 {
                defaults.read_deadline
            } else {
                Duration::from_millis(read_deadline_ms)
            },
            idle_timeout: if idle_timeout_ms == 0 {
                defaults.idle_timeout
            } else {
                Duration::from_millis(idle_timeout_ms)
            },
            max_connections: if max_connections == 0 {
                defaults.max_connections
            } else {
                max_connections
            },
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use boxagg_common::tempdir as tempfile;

    fn write_csv(dir: &Path, rows: &[&str]) -> std::path::PathBuf {
        let p = dir.join("objects.csv");
        std::fs::write(&p, rows.join("\n")).unwrap();
        p
    }

    #[test]
    fn parse_box_specs() {
        let r = parse_box("0,1,2.5,3").unwrap();
        assert_eq!(r, Rect::from_bounds(&[(0.0, 1.0), (2.5, 3.0)]));
        assert!(parse_box("0,1,2").is_err());
        assert!(parse_box("1,0").is_err());
        assert!(parse_box("a,b").is_err());
        assert!(parse_box("").is_err());
    }

    #[test]
    fn parse_object_lines() {
        let (r, v) = parse_object("0, 1, 0, 2, 7.5", 2).unwrap();
        assert_eq!(r, Rect::from_bounds(&[(0.0, 1.0), (0.0, 2.0)]));
        assert_eq!(v, 7.5);
        assert!(parse_object("0,1,5", 2).is_err());
    }

    #[test]
    fn parsers_reject_trailing_garbage_naming_the_offset() {
        // A well-formed prefix followed by junk must not silently
        // parse; the error names where the junk starts.
        let err = parse_box("0,1,2,3,junk").unwrap_err();
        assert!(err.to_string().contains("byte 8"), "{err}");
        assert!(err.to_string().contains("junk"), "{err}");

        let err = parse_box("0,1,2,3,").unwrap_err();
        assert!(err.to_string().contains("byte 8"), "{err}");

        let err = parse_object("0,0,1,1,5.0,junk", 2).unwrap_err();
        assert!(err.to_string().contains("byte 12"), "{err}");
        assert!(err.to_string().contains("junk"), "{err}");

        let err = parse_object("0,0,1,1,5.0 junk", 2).unwrap_err();
        assert!(err.to_string().contains("byte 8"), "{err}");

        // Garbage in the middle names its own offset too.
        let err = parse_box("0,1,x,3").unwrap_err();
        assert!(err.to_string().contains("byte 4"), "{err}");
    }

    #[test]
    fn build_query_insert_delete_cycle() {
        let dir = tempfile::tempdir().unwrap();
        let pages = dir.path().join("idx.pages");
        let csv = write_csv(
            dir.path(),
            &[
                "# parcels",
                "10,30,10,25,120",
                "25,50,20,40,340",
                "70,90,65,80,90",
                "",
            ],
        );
        let out = build(&pages, &csv, "0,100,0,100", 1024).unwrap();
        assert!(out.contains("3 objects"), "{out}");

        let out = query(&pages, "20,60,15,50").unwrap();
        assert!(out.starts_with("sum = 460"), "{out}");

        // Insert another object intersecting the query box and re-query.
        let out = insert(&pages, "55,58,16,18,40").unwrap();
        assert!(out.contains("4 objects"), "{out}");
        let out = query(&pages, "20,60,15,50").unwrap();
        assert!(out.starts_with("sum = 500"), "{out}");

        // Delete it again.
        delete(&pages, "55,58,16,18,40").unwrap();
        let out = query(&pages, "20,60,15,50").unwrap();
        assert!(out.starts_with("sum = 460"), "{out}");

        let out = info(&pages).unwrap();
        assert!(out.contains("format:    v3"), "{out}");
        assert!(out.contains("dimension: 2"), "{out}");
        assert!(out.contains("objects:   3"), "{out}");
    }

    #[test]
    fn rebuild_replaces_existing_index() {
        let dir = tempfile::tempdir().unwrap();
        let pages = dir.path().join("idx.pages");
        let csv1 = write_csv(dir.path(), &["10,30,10,25,120", "25,50,20,40,340"]);
        let out = build(&pages, &csv1, "0,100,0,100", 1024).unwrap();
        assert!(out.contains("2 objects"), "{out}");

        // Rebuilding the same path must replace the old index, not
        // stack a second set of trees into it — and a different
        // --page-size must work rather than fail on geometry.
        let csv2 = write_csv(dir.path(), &["70,90,65,80,90"]);
        let out = build(&pages, &csv2, "0,100,0,100", 2048).unwrap();
        assert!(out.contains("1 objects"), "{out}");

        let out = query(&pages, "0,100,0,100").unwrap();
        assert!(out.starts_with("sum = 90"), "{out}");
        let out = info(&pages).unwrap();
        assert!(out.contains("objects:   1"), "{out}");
    }

    #[test]
    fn build_rejects_bad_csv() {
        let dir = tempfile::tempdir().unwrap();
        let pages = dir.path().join("idx.pages");
        let csv = write_csv(dir.path(), &["1,2,3"]);
        let err = build(&pages, &csv, "0,10,0,10", 1024).unwrap_err();
        assert!(err.to_string().contains(":1:"), "{err}");
    }

    #[test]
    fn non_finite_values_are_refused_and_leave_the_index_as_it_was() {
        let dir = tempfile::tempdir().unwrap();
        let pages = dir.path().join("idx.pages");
        let csv = write_csv(dir.path(), &["10,30,10,25,120", "25,50,20,40,NaN"]);
        let err = build(&pages, &csv, "0,100,0,100", 1024).unwrap_err();
        assert!(err.to_string().contains("not finite"), "{err}");

        let csv = write_csv(dir.path(), &["10,30,10,25,120"]);
        build(&pages, &csv, "0,100,0,100", 1024).unwrap();
        for spec in [
            "40,60,40,60,NaN",
            "40,60,40,60,inf",
            "40,60,40,60,-inf",
            "50,200,10,20,5",
        ] {
            assert!(insert(&pages, spec).is_err(), "insert {spec}");
            assert!(delete(&pages, spec).is_err(), "delete {spec}");
        }
        assert!(
            parse_object("NaN,1,0,1,5", 2).is_err(),
            "refused, not a panic"
        );
        let out = query(&pages, "0,100,0,100").unwrap();
        assert!(out.starts_with("sum = 120\n"), "{out}");
        let out = info(&pages).unwrap();
        assert!(out.contains("objects:   1"), "{out}");
    }

    #[test]
    fn a_refused_rebuild_leaves_the_old_index_in_place() {
        let dir = tempfile::tempdir().unwrap();
        let pages = dir.path().join("idx.pages");
        let good = write_csv(dir.path(), &["10,30,10,25,120", "25,50,20,40,340"]);
        build(&pages, &good, "0,100,0,100", 1024).unwrap();
        let intact = |what: &str| {
            let out = query(&pages, "0,100,0,100").unwrap_or_else(|e| panic!("{what}: {e}"));
            assert!(out.starts_with("sum = 460\n"), "{what}: {out}");
            let out = info(&pages).unwrap();
            assert!(out.contains("objects:   2"), "{what}: {out}");
        };
        let missing = dir.path().join("missing.csv");
        let err = build(&pages, &missing, "0,100,0,100", 1024).unwrap_err();
        assert!(err.to_string().contains("No such file"), "{err}");
        intact("missing CSV");
        for (rows, line, want) in [
            (
                &["10,30,10,25,120", "10,30,x,25,1"][..],
                ":2:",
                "malformed number",
            ),
            (
                &["10,30,10,25,120", "25,50,20,40,NaN"][..],
                ":2:",
                "value NaN is not finite",
            ),
            (&["10,30,10,25,inf"][..], ":1:", "value inf is not finite"),
            (
                &["50,200,10,20,5"][..],
                ":1:",
                "outside [(0, 0) .. (100, 100)]",
            ),
        ] {
            let csv = write_csv(dir.path(), rows);
            let err = build(&pages, &csv, "0,100,0,100", 1024).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(line) && msg.contains(want), "{rows:?}: {msg}");
            intact(want);
        }
        // Page sizes the store refuses, and one the trees' records do
        // not fit: typed errors, not panics, and nothing removed.
        let good = write_csv(dir.path(), &["10,30,10,25,120", "25,50,20,40,340"]);
        for (page_size, want) in [
            (0, "page size 0 is below"),
            (32, "page size 32 is below"),
            (64, "record of 66 bytes cannot fit"),
        ] {
            let err = build(&pages, &good, "0,100,0,100", page_size).unwrap_err();
            assert!(
                err.to_string().contains(want),
                "--page-size {page_size}: {err}"
            );
            intact(want);
        }
    }

    /// Every file in `dir` whose name ends in `.building` or
    /// `.building.wal`.
    fn building_files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".building") || n.ends_with(".building.wal"))
            .collect();
        names.sort();
        names
    }

    #[test]
    fn a_rebuild_leaves_no_sibling_and_clears_a_stale_one() {
        let dir = tempfile::tempdir().unwrap();
        let pages = dir.path().join("idx.pages");
        let good = write_csv(dir.path(), &["10,30,10,25,120", "25,50,20,40,340"]);
        build(&pages, &good, "0,100,0,100", 1024).unwrap();
        assert!(building_files(dir.path()).is_empty());
        // Refused by the CSV, by the config, and by the load itself.
        let bad = write_csv(dir.path(), &["10,30,10,25,NaN"]);
        assert!(build(&pages, &bad, "0,100,0,100", 1024).is_err());
        for page_size in [32, 64] {
            assert!(build(&pages, &good, "0,100,0,100", page_size).is_err());
        }
        assert!(
            building_files(dir.path()).is_empty(),
            "a refused rebuild left {:?}",
            building_files(dir.path())
        );
        // A crashed build's sibling pair: garbage the next build must
        // not reopen, recover or stack onto.
        std::fs::write(dir.path().join("idx.pages.building"), [0xAB; 3000]).unwrap();
        std::fs::write(dir.path().join("idx.pages.building.wal"), [0xCD; 77]).unwrap();
        let one = write_csv(dir.path(), &["70,90,65,80,90"]);
        build(&pages, &one, "0,100,0,100", 1024).unwrap();
        assert!(building_files(dir.path()).is_empty());
        let out = query(&pages, "0,100,0,100").unwrap();
        assert!(out.starts_with("sum = 90\n"), "{out}");
        let out = info(&pages).unwrap();
        assert!(out.contains("objects:   1"), "{out}");
        // The rebuilt index's log is its own, and empty.
        assert_eq!(std::fs::read(wal_path(&pages)).unwrap(), b"");
    }

    #[test]
    fn query_and_info_leave_the_store_bytes_untouched() {
        let dir = tempfile::tempdir().unwrap();
        let pages = dir.path().join("idx.pages");
        let csv = write_csv(dir.path(), &["10,30,10,25,120", "25,50,20,40,340"]);
        build(&pages, &csv, "0,100,0,100", 1024).unwrap();

        let wal = boxagg_pagestore::pager::wal_path(&pages);
        let pages_before = std::fs::read(&pages).unwrap();
        let wal_before = std::fs::read(&wal).unwrap();

        query(&pages, "0,100,0,100").unwrap();
        info(&pages).unwrap();

        // Read-only commands must not format pages, replay the WAL
        // into the file, or truncate the sidecar — an index another
        // process is serving stays byte-identical.
        assert_eq!(std::fs::read(&pages).unwrap(), pages_before);
        assert_eq!(std::fs::read(&wal).unwrap(), wal_before);
    }

    #[test]
    fn serve_round_trips_queries_and_commits_over_tcp() {
        let dir = tempfile::tempdir().unwrap();
        let pages = dir.path().join("idx.pages");
        let csv = write_csv(dir.path(), &["10,30,10,25,120", "25,50,20,40,340"]);
        build(&pages, &csv, "0,100,0,100", 1024).unwrap();

        let server = serve(&pages, "127.0.0.1:0", 0, 0, 0).unwrap();
        let mut client = boxagg_serve::Client::connect(server.local_addr()).unwrap();
        assert_eq!(client.hello().objects, 2);
        let sum = client
            .box_sum(&Rect::from_bounds(&[(0.0, 100.0), (0.0, 100.0)]))
            .unwrap();
        assert_eq!(sum, 460.0);

        client
            .insert(&Rect::from_bounds(&[(1.0, 2.0), (1.0, 2.0)]), 40.0)
            .unwrap();
        client.commit().unwrap();
        server.shutdown();

        // The committed write is durable: the CLI sees it offline.
        let out = query(&pages, "0,100,0,100").unwrap();
        assert!(out.starts_with("sum = 500"), "{out}");
        let out = info(&pages).unwrap();
        assert!(out.contains("objects:   3"), "{out}");
    }

    #[test]
    fn larger_build_survives_reopen_with_many_splits() {
        let dir = tempfile::tempdir().unwrap();
        let pages = dir.path().join("big.pages");
        let mut rows = Vec::new();
        let mut s = 9u64;
        let mut rnd = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64) / ((1u64 << 53) as f64)
        };
        let mut objects = Vec::new();
        for i in 0..800 {
            let x = rnd() * 90.0;
            let y = rnd() * 90.0;
            let w = rnd() * 5.0;
            let h = rnd() * 5.0;
            let v = (i % 9 + 1) as f64;
            rows.push(format!("{x},{},{y},{},{v}", x + w, y + h));
            objects.push((Rect::from_bounds(&[(x, x + w), (y, y + h)]), v));
        }
        let row_refs: Vec<&str> = rows.iter().map(|r| r.as_str()).collect();
        let csv = write_csv(dir.path(), &row_refs);
        build(&pages, &csv, "0,100,0,100", 1024).unwrap();

        let check = |objects: &[(Rect, f64)]| {
            for (qlow, qhigh) in [(10.0, 40.0), (0.0, 100.0), (55.0, 56.0)] {
                let spec = format!("{qlow},{qhigh},{qlow},{qhigh}");
                let out = query(&pages, &spec).unwrap();
                let got: f64 = out
                    .lines()
                    .next()
                    .unwrap()
                    .trim_start_matches("sum = ")
                    .parse()
                    .unwrap();
                let q = Rect::from_bounds(&[(qlow, qhigh), (qlow, qhigh)]);
                let want: f64 = objects
                    .iter()
                    .filter(|(r, _)| r.intersects(&q))
                    .map(|(_, v)| v)
                    .sum();
                assert!((got - want).abs() < 1e-6, "{got} vs {want}");
            }
        };
        check(&objects);

        // A border whose entries nearly fill its leaves keeps full
        // leaves after a bulk load (it takes as few leaves as packing
        // full would), so the first insert into the reopened file
        // splits one: the split's new pages grow the file.
        let bytes = || std::fs::metadata(&pages).unwrap().len();
        let before = bytes();
        let out = insert(&pages, "20,30,20,30,7").unwrap();
        assert!(out.contains("801 objects"), "{out}");
        assert!(bytes() > before, "a split allocates pages");
        objects.push((Rect::from_bounds(&[(20.0, 30.0), (20.0, 30.0)]), 7.0));
        check(&objects);
    }
}
