//! End-to-end tests over real sockets: serving tiers, admission
//! control, deadlines, and — the contract the subsystem exists for —
//! graceful drain under concurrent load.

use dtm_harness::json::Json;
use dtm_harness::{Ledger, ResultCache, SweepRunner, SweepSpec};
use dtm_serve::server::ShutdownReport;
use dtm_serve::{Client, Request, Response, ResultSource, Server, ServerConfig, SimRequest};
use dtm_workloads::TraceLibrary;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "dtm-serve-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A quick cold request: unique seeds defeat the memo so the cell is
/// actually simulated.
fn cold_request(seed: u64) -> SimRequest {
    SimRequest {
        duration_s: Some(0.005),
        seed: Some(seed),
        ..SimRequest::standard("workload1", "dvfs/dist/sensor")
    }
}

#[test]
fn simulate_round_trip_and_serving_tiers() {
    let cache_dir = tmpdir("tiers");
    let mut cfg = ServerConfig::fast_test();
    cfg.workers = 2;
    cfg.cache = Some(dtm_harness::ResultCache::new(&cache_dir));
    let server = Server::spawn(cfg).unwrap();
    let addr = server.addr();

    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();

    let req = cold_request(1);
    let first = match client.simulate(req.clone()).unwrap() {
        Response::Result(r) => r,
        other => panic!("expected result, got {other:?}"),
    };
    assert_eq!(first.source, ResultSource::Simulated);
    assert!(first.result.instructions > 0.0);
    assert_eq!(first.result.cores, 4);

    // Same cell again: served from the in-memory memo, identical result.
    let second = match client.simulate(req.clone()).unwrap() {
        Response::Result(r) => r,
        other => panic!("expected result, got {other:?}"),
    };
    assert_eq!(second.source, ResultSource::Memo);
    assert_eq!(second.key, first.key);
    assert_eq!(second.result, first.result);

    // Metrics surface the request flow.
    let metrics = client.metrics().unwrap();
    assert!(metrics.contains("dtm_serve_accepted_total 2"));
    assert!(metrics.contains("dtm_serve_completed_total 2"));
    assert!(metrics.contains("dtm_serve_request_latency_ns"));

    let report = server.shutdown();
    assert!(report.fully_drained());
    assert_eq!(report.completed, 2);

    // A fresh server over the same cache directory serves the cell from
    // disk — the keyspace is shared across processes and with the sweep
    // harness.
    let mut cfg2 = ServerConfig::fast_test();
    cfg2.workers = 1;
    cfg2.cache = Some(dtm_harness::ResultCache::new(&cache_dir));
    let server2 = Server::spawn(cfg2).unwrap();
    let mut client2 = Client::connect(server2.addr()).unwrap();
    let third = match client2.simulate(req).unwrap() {
        Response::Result(r) => r,
        other => panic!("expected result, got {other:?}"),
    };
    assert_eq!(third.source, ResultSource::Disk);
    assert_eq!(third.key, first.key);
    assert_eq!(third.result, first.result);
    assert!(server2.shutdown().fully_drained());

    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn served_cells_write_the_sweeps_cache_entry_and_ledger_row() {
    let served_dir = tmpdir("served-cell");
    let swept_dir = tmpdir("swept-cell");
    let mut cfg = ServerConfig::fast_test();
    cfg.workers = 1;
    cfg.cache = Some(ResultCache::new(served_dir.join("cache")));
    cfg.ledger = Some(Ledger::open(served_dir.join("ledger.jsonl")));
    let (base_sim, tracegen) = (cfg.base_sim.clone(), cfg.tracegen.clone());
    let server = Server::spawn(cfg).unwrap();
    let req = cold_request(7);
    let served = match Client::connect(server.addr())
        .unwrap()
        .simulate(req.clone())
        .unwrap()
    {
        Response::Result(r) => r,
        other => panic!("expected result, got {other:?}"),
    };
    assert_eq!(served.source, ResultSource::Simulated);
    assert!(server.shutdown().fully_drained());

    // The same cell as a one-cell sweep, its variant named `serve`.
    let cell = req.resolve(&base_sim).unwrap();
    assert_eq!(cell.variant.name, "serve");
    let spec = SweepSpec::new(vec![cell.workload])
        .policies([cell.policy])
        .variant(cell.variant);
    let swept = SweepRunner::bare_shared(Arc::new(TraceLibrary::new(tracegen)))
        .with_cache(Some(ResultCache::new(swept_dir.join("cache"))))
        .with_ledger(Some(Ledger::open(swept_dir.join("ledger.jsonl"))))
        .run(spec)
        .unwrap();
    assert_eq!(swept.outcomes()[0].key, served.key);
    assert_eq!(swept.outcomes()[0].result, served.result);

    let entry = |dir: &Path| std::fs::read(dir.join(format!("cache/{}.json", served.key))).unwrap();
    assert_eq!(
        String::from_utf8(entry(&served_dir)).unwrap(),
        String::from_utf8(entry(&swept_dir)).unwrap(),
        "a served cell's cache entry has the sweep's bytes"
    );
    // One row each, equal but for when, how long and on which worker.
    let row = |dir: &Path| {
        let text = std::fs::read_to_string(dir.join("ledger.jsonl")).unwrap();
        let rows: Vec<&str> = text.lines().collect();
        assert_eq!(rows.len(), 1, "{text}");
        let Json::Obj(mut pairs) = Json::parse(rows[0]).unwrap() else {
            panic!("a row is an object: {text}")
        };
        pairs.retain(|(k, _)| !matches!(k.as_str(), "ts" | "wall_s" | "queue_s" | "worker"));
        Json::Obj(pairs).emit()
    };
    assert_eq!(row(&served_dir), row(&swept_dir));
    let _ = std::fs::remove_dir_all(&served_dir);
    let _ = std::fs::remove_dir_all(&swept_dir);
}

#[test]
fn bad_requests_get_descriptive_errors_not_hangups() {
    let server = Server::spawn(ServerConfig::fast_test()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Unknown workload.
    let resp = client
        .simulate(SimRequest::standard("workload99", "dvfs/dist/sensor"))
        .unwrap();
    match resp {
        Response::Error { message } => assert!(message.contains("workload99")),
        other => panic!("expected error, got {other:?}"),
    }

    // Unparsable policy.
    let resp = client
        .simulate(SimRequest::standard("workload1", "overclock"))
        .unwrap();
    assert!(matches!(resp, Response::Error { .. }));

    // A syntactically broken frame still gets an error response and the
    // connection stays usable.
    let resp = client.call(&Request::Ping).unwrap();
    match resp {
        Response::Pong { info: Some(info) } => {
            assert_eq!(info.version, env!("CARGO_PKG_VERSION"));
            assert!(info.workers >= 1);
        }
        other => panic!("expected pong with capabilities, got {other:?}"),
    }

    assert!(server.shutdown().fully_drained());
}

#[test]
fn expired_deadlines_are_answered_with_timeout() {
    let mut cfg = ServerConfig::fast_test();
    cfg.workers = 1; // serialize: the first job occupies the only worker
    let server = Server::spawn(cfg).unwrap();
    let addr = server.addr();

    // Occupy the worker with a cold simulation…
    let blocker = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.simulate(cold_request(100)).unwrap()
    });
    std::thread::sleep(Duration::from_millis(10));

    // …then queue a request whose deadline will certainly lapse while
    // the worker is busy.
    let mut client = Client::connect(addr).unwrap();
    let req = SimRequest {
        deadline_ms: Some(1),
        ..cold_request(101)
    };
    let resp = client.simulate(req).unwrap();
    match resp {
        Response::Timeout { waited_ms } => assert!(waited_ms >= 1),
        // If the blocker finished implausibly fast the request may
        // still be served; accept that but flag it loudly.
        Response::Result(_) => eprintln!("warning: deadline test raced (worker too fast)"),
        other => panic!("expected timeout, got {other:?}"),
    }
    assert!(matches!(blocker.join().unwrap(), Response::Result(_)));

    let report = server.shutdown();
    assert!(report.fully_drained(), "report: {report:?}");
}

/// Polls `done` every millisecond until it holds, failing after 60 s.
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let start = std::time::Instant::now();
    while !done() {
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn admission_control_rejects_rather_than_buffers() {
    let mut cfg = ServerConfig::fast_test();
    cfg.workers = 1;
    cfg.queue_capacity = 1;
    let server = Server::spawn(cfg).unwrap();
    let addr = server.addr();
    let accepted = || server.stats().accepted.get();

    // Occupy the one worker with a cell 40 times the burst's…
    let t1 = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        let long = SimRequest {
            duration_s: Some(0.2),
            ..cold_request(200)
        };
        c.simulate(long).unwrap()
    });
    wait_until("the long cell's admission", || accepted() == 1);
    // …then fill the 1-slot queue. Until the worker has taken the long
    // cell off the queue, admission control refuses this request, so
    // it retries until admitted and counts the refusals.
    let t2 = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        let mut refused = 0;
        loop {
            match c.simulate(cold_request(201)).unwrap() {
                Response::Overloaded { .. } => refused += 1,
                answer => return (answer, refused),
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    wait_until("the queued cell's admission", || accepted() == 2);

    // The worker is on the long cell and the queue is full: a burst
    // is rejected, not buffered.
    let mut overflow = Client::connect(addr).unwrap();
    let mut rejections = 0;
    for seed in 300..310 {
        if let Response::Overloaded { .. } = overflow.simulate(cold_request(seed)).unwrap() {
            rejections += 1;
        }
    }
    assert!(
        rejections > 0,
        "a 1-deep queue behind a busy worker must reject part of a 10-burst"
    );
    assert!(matches!(t1.join().unwrap(), Response::Result(_)));
    let (answer, refused) = t2.join().unwrap();
    assert!(matches!(answer, Response::Result(_)));

    let report = server.shutdown();
    assert!(report.fully_drained(), "report: {report:?}");
    assert_eq!(report.rejected, rejections + refused);
}

/// The acceptance test for graceful drain: initiate shutdown while
/// concurrent clients are mid-flood and verify the accounting identity
/// — every response decodes (zero torn frames) and the number of
/// result/timeout responses received by clients equals the number of
/// requests the server admitted.
#[test]
fn shutdown_under_load_drains_every_accepted_request() {
    let mut cfg = ServerConfig::fast_test();
    cfg.workers = 2;
    cfg.queue_capacity = 32;
    let server = Server::spawn(cfg).unwrap();
    let addr = server.addr();

    const CLIENTS: u64 = 6;
    const PER_CLIENT: u64 = 50;

    #[derive(Default)]
    struct ClientTally {
        results: u64,
        timeouts: u64,
        overloaded: u64,
        errors: u64,
        disconnects: u64,
    }

    let flood: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut tally = ClientTally::default();
                let mut client = match Client::connect(addr) {
                    Ok(cl) => cl,
                    Err(_) => return tally,
                };
                for i in 0..PER_CLIENT {
                    // Unique seed per request: every admitted request is
                    // a real simulation competing for the workers.
                    match client.simulate(cold_request(1000 + c * PER_CLIENT + i)) {
                        Ok(Response::Result(_)) => tally.results += 1,
                        Ok(Response::Timeout { .. }) => tally.timeouts += 1,
                        Ok(Response::Overloaded { .. }) => tally.overloaded += 1,
                        Ok(_) => tally.errors += 1,
                        Err(_) => {
                            // Hung up mid-drain before this request was
                            // admitted; nothing owed to us.
                            tally.disconnects += 1;
                            break;
                        }
                    }
                }
                tally
            })
        })
        .collect();

    // Let the flood establish in-flight and queued work, then pull the
    // plug while requests are still arriving.
    std::thread::sleep(Duration::from_millis(60));
    let report: ShutdownReport = server.shutdown();

    let mut received = ClientTally::default();
    for t in flood {
        let tally = t.join().unwrap();
        received.results += tally.results;
        received.timeouts += tally.timeouts;
        received.overloaded += tally.overloaded;
        received.errors += tally.errors;
        received.disconnects += tally.disconnects;
    }

    assert_eq!(received.errors, 0, "no malformed or error responses");
    assert!(
        report.accepted > 0,
        "the flood must have had admitted work in flight"
    );
    // The drain identity, measured on the client side of the wire:
    // every admitted request produced exactly one result-or-timeout
    // response that reached its client intact.
    assert_eq!(
        received.results + received.timeouts,
        report.accepted,
        "responses received must equal requests admitted (report: {report:?})"
    );
    assert_eq!(received.overloaded, report.rejected);
    assert!(report.fully_drained(), "report: {report:?}");
}

/// The shutdown verb flips the handle-visible flag; the binary turns
/// that into a drain (exercised end-to-end by the CI smoke job).
#[test]
fn shutdown_verb_is_visible_on_the_handle() {
    let server = Server::spawn(ServerConfig::fast_test()).unwrap();
    assert!(!server.shutdown_requested());
    let mut client = Client::connect(server.addr()).unwrap();
    client.shutdown().unwrap();
    assert!(server.shutdown_requested());
    assert!(server.shutdown().fully_drained());
}

/// Each file of a trace store: its name, bytes and modification time.
fn store_listing(dir: &Path) -> Vec<(String, Vec<u8>, std::time::SystemTime)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let modified = e.metadata().unwrap().modified().unwrap();
            let bytes = std::fs::read(e.path()).unwrap();
            (e.file_name().into_string().unwrap(), bytes, modified)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn a_second_server_loads_the_trace_store_the_first_filled() {
    let store = tmpdir("trace-store");
    let requests = [
        cold_request(1),
        SimRequest {
            workload: None,
            benchmarks: Some(["gzip", "mcf", "ammp", "art"].map(Into::into).into()),
            ..cold_request(2)
        },
    ];
    // The results of one server over `store`, spelled exactly (`{:?}`
    // keeps every bit of an `f64`).
    let serve = || {
        let mut cfg = ServerConfig::fast_test();
        cfg.trace_store = Some(store.clone());
        let server = Server::spawn(cfg).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let results: Vec<String> = requests
            .iter()
            .map(|req| match client.simulate(req.clone()).unwrap() {
                Response::Result(r) => {
                    assert_eq!(r.source, ResultSource::Simulated);
                    format!("{:?}", r.result)
                }
                other => panic!("expected result, got {other:?}"),
            })
            .collect();
        assert!(server.shutdown().fully_drained());
        results
    };

    let first = serve();
    let filled = store_listing(&store);
    let names: Vec<&str> = filled.iter().map(|(name, ..)| name.as_str()).collect();
    assert_eq!(names.len(), 6, "one file per distinct benchmark: {names:?}");
    assert!(names.iter().all(|n| n.ends_with(".dtmtrace")), "{names:?}");

    assert_eq!(serve(), first, "traces from the store give the same bits");
    assert!(
        store_listing(&store) == filled,
        "the second server wrote to the store"
    );
    let _ = std::fs::remove_dir_all(&store);
}
