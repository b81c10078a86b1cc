//! `serve_mixed`: an in-process `dtm-serve` server at its paper-default
//! configuration, driven by one closed-loop client over the Table 8
//! cells: mostly memo hits on cells answered during setup, and one
//! fresh cell (a sensor seed not used before) in thirty.

use crate::inputs::{table8_cells, Cell, ServeOp, ServePlan};
use crate::spans::{Recorder, ROOT};
use crate::stats::{mean, median, Reservoir};
use crate::{Ctx, Outcome};
use dtm_harness::{cell_key, ResultCache};
use dtm_serve::{Client, Request, Response, ResultSource, Server, ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::io;
use std::time::{Duration, Instant};

/// Cells setup answers (and the timed loop then repeats as memo hits).
const REPEATED_CELLS: usize = 24;
/// Repeated cells when serving is only sampled for another workload.
const SAMPLE_REPEATED_CELLS: usize = 8;
/// Length of the sampled serving loop in another workload's traced run.
const SAMPLE_SECONDS: f64 = 2.0;
/// A request unanswered this long counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// A running server, the one client that drives it, and its request plan.
struct Service {
    handle: ServerHandle,
    client: Client,
    cells: Vec<Cell>,
    plan: ServePlan,
}

/// Whether `resp` is a result from the `want` tier carrying the cell's
/// pinned physics.
fn correct(ctx: &Ctx, cell: &Cell, want: ResultSource, resp: &io::Result<Response>) -> bool {
    let Ok(Response::Result(r)) = resp else {
        return false;
    };
    r.source == want
        && ctx
            .pinned
            .matches(&cell.workload.id, &cell.policy.wire_name(), &r.result)
}

/// Spawns the server at its paper defaults with one worker and a
/// result cache in a fresh directory; returns the spawn time (s).
fn spawn(ctx: &mut Ctx, repeated: usize) -> Result<(Service, f64), String> {
    let cfg = ServerConfig {
        workers: 1,
        cache: Some(ResultCache::new(ctx.scratch.fresh("serve"))),
        ..ServerConfig::default()
    };
    let t = Instant::now();
    let handle = Server::spawn(cfg).map_err(|e| format!("spawn: {e}"))?;
    let spawn_s = t.elapsed().as_secs_f64();
    let client = Client::connect(handle.addr())
        .and_then(|c| c.with_read_timeout(REQUEST_TIMEOUT))
        .map_err(|e| format!("connect: {e}"))?;
    let service = Service {
        handle,
        client,
        cells: table8_cells(),
        plan: ServePlan::new(ctx.seed, repeated),
    };
    Ok((service, spawn_s))
}

/// Answers the plan's repeated cells once: each first touch simulates,
/// and the timed loop then hits the memo.
fn pretouch(ctx: &Ctx, service: &mut Service, out: &mut Outcome) {
    for &cell in &service.plan.repeated {
        let op = ServeOp {
            cell,
            fresh_seed: None,
        };
        let resp = service.client.simulate(op.request(&service.cells));
        out.attempted += 1;
        let ok = correct(ctx, &service.cells[cell], ResultSource::Simulated, &resp);
        out.failed += u64::from(!ok);
    }
}

/// Drains the server and checks its accounting: every admitted request
/// answered (`accepted == completed + timeouts`), none refused, no
/// server-side errors.
fn finish(service: Service, out: &mut Outcome) -> (u64, u64) {
    let Service { handle, client, .. } = service;
    drop(client);
    let errors = handle.stats().errors.get();
    let report = handle.shutdown();
    let healthy = report.fully_drained() && report.rejected == 0 && report.timeouts == 0;
    out.attempted += 1;
    out.failed += u64::from(!healthy || errors != 0);
    if !healthy {
        eprintln!("perfbench: server did not drain cleanly: {report:?}");
    }
    (report.rejected, errors)
}

/// The untraced closed loop for `seconds`: a sample of the requests'
/// latencies (µs) as the client sees them.
fn closed_loop(
    ctx: &Ctx,
    service: &mut Service,
    out: &mut Outcome,
    seconds: Duration,
) -> Reservoir {
    let mut latency_us = Reservoir::new(ctx.seed);
    let start = Instant::now();
    while latency_us.seen() == 0 || start.elapsed() < seconds {
        let op = service.plan.next_op();
        let req = Request::Simulate(Box::new(op.request(&service.cells)));
        let t = Instant::now();
        let resp = service.client.call(&req);
        latency_us.push(t.elapsed().as_secs_f64() * 1e6);
        out.attempted += 1;
        out.failed += u64::from(!correct(ctx, &service.cells[op.cell], op.want(), &resp));
    }
    latency_us
}

/// Untraced `serve_mixed`.
pub fn mixed(ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let t = Instant::now();
    let (mut service, _) = spawn(ctx, REPEATED_CELLS)?;
    pretouch(ctx, &mut service, &mut out);
    let setup_s = t.elapsed().as_secs_f64();

    let start = Instant::now();
    let latency_us = closed_loop(ctx, &mut service, &mut out, ctx.seconds);
    let region_s = start.elapsed().as_secs_f64();
    finish(service, &mut out);
    out.e2e(setup_s, latency_us.seen() as f64, region_s, &latency_us)?;
    Ok(out)
}

/// Per-request times of the traced loop (ns).
#[derive(Default)]
struct Sums {
    serve: f64,
    harness: f64,
    core: f64,
    memo_wall: Vec<f64>,
    sim_wall: Vec<f64>,
    sim_queue: Vec<f64>,
    transport: Vec<f64>,
    latencies: Vec<f64>,
}

/// The traced serving section. Times `Server::spawn`, then each
/// request as the client sees it, and splits it with the server's own
/// `wall_us`/`queue_us` and client-side replays of the calls the
/// server makes inline (`Request::decode`, `SimRequest::resolve`,
/// `cell_key`, `Response::encode`) and the client's codec calls.
/// Whatever no call accounts for is transport. As the main part
/// (`sample == false`) it first runs the same loop untraced for half
/// the run, the reference for the tracing overhead.
pub fn traced(ctx: &mut Ctx, rec: &mut Recorder, sample: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let repeated = if sample {
        SAMPLE_REPEATED_CELLS
    } else {
        REPEATED_CELLS
    };
    let (mut service, spawn_s) = rec.time("serve.spawn", ROOT, 0, || spawn(ctx, repeated))?;
    pretouch(ctx, &mut service, &mut out);
    let info = service
        .client
        .ping_info()
        .map_err(|e| format!("ping: {e}"))?
        .ok_or("server sent no capability payload")?;
    let base_sim = crate::inputs::paper_sim();
    let tracegen = dtm_workloads::TraceGenConfig::default();

    let segment = if sample {
        Duration::from_secs_f64(SAMPLE_SECONDS)
    } else {
        ctx.seconds / 2
    };
    let untraced_us = if sample {
        Reservoir::new(ctx.seed)
    } else {
        closed_loop(ctx, &mut service, &mut out, segment)
    };

    // The traced loop keeps each exchange and replays the inline calls
    // after it, so the loop itself runs as tight as the untraced one.
    let root = rec.begin("bench.serve_loop", ROOT, 0);
    let mut answered = Vec::new();
    let start = Instant::now();
    while answered.is_empty() || start.elapsed() < segment {
        let op = service.plan.next_op();
        let sim_req = op.request(&service.cells);
        let req = Request::Simulate(Box::new(sim_req.clone()));
        let span = rec.begin("serve.request", root, answered.len() as u64);
        let resp = service.client.call(&req);
        rec.end(span);
        out.attempted += 1;
        out.failed += u64::from(!correct(ctx, &service.cells[op.cell], op.want(), &resp));
        if let Ok(resp @ Response::Result(_)) = resp {
            answered.push((span, sim_req, req, resp));
        }
    }
    rec.end(root);

    let mut s = Sums::default();
    for (rid, (span, sim_req, req, resp)) in answered.iter().enumerate() {
        let rid = rid as u64;
        let Response::Result(r) = resp else {
            unreachable!("only results are kept")
        };
        let bytes = rec.replay("serve.request_encode", rid, || req.encode());
        let mut codec = rec.last_ns();
        let _ = rec.replay("serve.request_decode", rid, || Request::decode(&bytes));
        codec += rec.last_ns();
        let resolved = rec
            .replay("serve.resolve", rid, || sim_req.resolve(&base_sim))
            .map_err(|e| format!("resolve: {e}"))?;
        let resolve = rec.last_ns();
        let v = &resolved.variant;
        let key = rec.replay("harness.cell_key", rid, || {
            cell_key(
                &resolved.workload,
                resolved.policy,
                &v.sim,
                &v.dtm,
                &v.faults,
                &tracegen,
                &info.version,
            )
        });
        let key_ns = rec.last_ns();
        out.failed += u64::from(key.hex() != r.key);
        let payload = rec.replay("serve.response_encode", rid, || resp.encode());
        codec += rec.last_ns();
        let _ = rec.replay("serve.response_decode", rid, || Response::decode(&payload));
        codec += rec.last_ns();

        let n = rec.span(*span).dur_ns() as f64;
        let wall = r.wall_us as f64 * 1e3;
        let queue = r.queue_us as f64 * 1e3;
        s.latencies.push(n);
        s.harness += key_ns;
        s.serve += codec + resolve;
        match r.source {
            ResultSource::Simulated => {
                s.sim_wall.push(wall);
                s.sim_queue.push(queue);
                s.serve += queue;
                s.core += wall - queue;
            }
            ResultSource::Memo | ResultSource::Disk => {
                s.memo_wall.push(wall);
                s.serve += wall;
            }
        }
        s.transport.push(n - wall - codec - resolve - key_ns);
    }
    let (rejected, errors) = finish(service, &mut out);

    out.metric("serve.spawn_s", spawn_s, "s");
    let us = |name: &str| mean(&rec.durations(name)) / 1e3;
    out.metric("serve.resolve_us", us("serve.resolve"), "us");
    out.metric("serve.request_encode_us", us("serve.request_encode"), "us");
    out.metric("serve.request_decode_us", us("serve.request_decode"), "us");
    out.metric(
        "serve.response_encode_us",
        us("serve.response_encode"),
        "us",
    );
    out.metric(
        "serve.response_decode_us",
        us("serve.response_decode"),
        "us",
    );
    out.metric("serve.server_wall_us.memo", mean(&s.memo_wall) / 1e3, "us");
    out.metric("serve.server_wall_us.sim", mean(&s.sim_wall) / 1e3, "us");
    out.metric("serve.queue_us", mean(&s.sim_queue) / 1e3, "us");
    out.metric("serve.transport_us", mean(&s.transport) / 1e3, "us");
    out.metric(
        "serve.memo_share",
        s.memo_wall.len() as f64 / s.latencies.len() as f64,
        "ratio",
    );
    out.metric("serve.rejected", rejected as f64, "count");
    out.metric("serve.errors", errors as f64, "count");
    if !sample {
        let layers = BTreeMap::from([("serve", s.serve), ("harness", s.harness), ("core", s.core)]);
        let overhead = median(&s.latencies) / 1e3 / median(untraced_us.samples()) - 1.0;
        out.reconcile(&layers, s.latencies.iter().sum(), overhead);
    }
    Ok(out)
}
