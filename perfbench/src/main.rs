//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <table8_cold|table8_warm|serve_mixed> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --pin-digest
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` is a separate run that times every call the
//! workload makes into a layer and reconciles them against end-to-end
//! time. The last line of stdout is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; any failed operation makes the
//! exit code 1. See README.md for the workloads and metrics.

mod env;
mod inputs;
mod layers;
mod oracle;
mod serve;
mod spans;
mod stats;
mod table8;

use dtm_harness::json::Json;
use spans::Recorder;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run reports, with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.trace_load_us", "us"),
    ("workloads.trace_gen_ms", "ms"),
    ("workloads.trace_decodes", "count"),
    ("thermal.batch_ns_per_lane_step", "ns"),
    ("thermal.scalar_ns_per_step", "ns"),
    ("core.build_ms", "ms"),
    ("core.lockstep_ns_per_lane_step", "ns"),
    ("core.scalar_ns_per_step", "ns"),
    ("core.batches", "count"),
    ("core.lane_steps", "count"),
    ("core.lane_occupancy", "ratio"),
    ("harness.cell_key_us", "us"),
    ("harness.cache_load_us", "us"),
    ("harness.json_parse_us", "us"),
    ("harness.result_decode_us", "us"),
    ("harness.cache_store_us", "us"),
    ("harness.result_encode_us", "us"),
    ("harness.runner_residue_ms", "ms"),
    ("harness.cache_hit_ratio", "ratio"),
    ("serve.spawn_s", "s"),
    ("serve.resolve_us", "us"),
    ("serve.request_encode_us", "us"),
    ("serve.request_decode_us", "us"),
    ("serve.response_encode_us", "us"),
    ("serve.response_decode_us", "us"),
    ("serve.server_wall_us.memo", "us"),
    ("serve.server_wall_us.sim", "us"),
    ("serve.queue_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.memo_share", "ratio"),
    ("serve.rejected", "count"),
    ("serve.errors", "count"),
    ("recon.e2e_ms", "ms"),
    ("recon.workloads_share", "ratio"),
    ("recon.core_share", "ratio"),
    ("recon.harness_share", "ratio"),
    ("recon.serve_share", "ratio"),
    ("recon.residue_ms", "ms"),
    ("recon.residue_share", "ratio"),
    ("recon.trace_overhead", "ratio"),
];

/// The workloads `--workload` accepts. `BENCHMARK.json` lists the two
/// table8 ones; `serve_mixed` runs by hand (see README.md for why).
pub const WORKLOADS: &[&str] = &["table8_cold", "table8_warm", "serve_mixed"];

/// What every workload runs with.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    /// The prepared trace cache of this build.
    pub traces: PathBuf,
    pub pinned: oracle::Pinned,
    pub scratch: env::Scratch,
}

/// Operation counts and metrics of one run (or one part of a run).
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The end-to-end metrics of a timed region that answered `cells`
    /// cells in `region_s` seconds, with a sample of per-operation
    /// latencies.
    pub fn e2e(
        &mut self,
        setup_s: f64,
        cells: f64,
        region_s: f64,
        latency_us: &stats::Reservoir,
    ) -> Result<(), String> {
        let sample = latency_us.samples();
        if sample.is_empty() {
            return Err("the timed region completed no operation".into());
        }
        self.metric("setup_s", setup_s, "s");
        self.metric("cells_per_s", cells / region_s, "1/s");
        self.metric("latency_p50_us", stats::quantile(sample, 0.5), "us");
        self.metric("latency_p99_us", stats::quantile(sample, 0.99), "us");
        Ok(())
    }

    /// The reconciliation of a traced main part: each layer's self
    /// time (ns) as a share of end-to-end time, what none of them
    /// accounts for, and the tracing overhead (traced over untraced
    /// end-to-end time, minus one). The shares and the residue share
    /// add up to one. Shares, not times: a layer the workload never
    /// reaches reads exactly zero.
    pub fn reconcile(&mut self, layers: &BTreeMap<&str, f64>, e2e_ns: f64, overhead: f64) {
        let mut accounted = 0.0;
        for layer in ["workloads", "core", "harness", "serve"] {
            let ns = layers.get(layer).copied().unwrap_or(0.0);
            accounted += ns;
            self.metric(&format!("recon.{layer}_share"), ns / e2e_ns, "ratio");
        }
        self.metric("recon.e2e_ms", e2e_ns / 1e6, "ms");
        self.metric("recon.residue_ms", (e2e_ns - accounted) / 1e6, "ms");
        self.metric(
            "recon.residue_share",
            (e2e_ns - accounted) / e2e_ns,
            "ratio",
        );
        self.metric("recon.trace_overhead", overhead, "ratio");
    }

    fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <table8_cold|table8_warm|serve_mixed> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --pin-digest";

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--pin-digest"] {
        return Ok(None);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range (0, 600]"));
    }
    Ok(Some(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    }))
}

fn run(args: &Args) -> Result<(Outcome, Option<Recorder>), String> {
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs_f64(args.seconds),
        pinned: oracle::Pinned::load()?,
        traces: env::prepare_traces()?,
        scratch: env::Scratch::create()?,
    };
    if !args.trace {
        let mut out = match args.workload.as_str() {
            "table8_cold" => table8::cold(&mut ctx)?,
            "table8_warm" => table8::warm(&mut ctx)?,
            _ => serve::mixed(&mut ctx)?,
        };
        out.metric("peak_rss_mb", env::peak_rss_mb()?, "MiB");
        return Ok((out, None));
    }
    // The workload's own part runs first and at full size; the other
    // layers are sampled after it so every traced run reports them all.
    let mut rec = Recorder::new();
    let mut out = match args.workload.as_str() {
        "table8_cold" => table8::traced(&mut ctx, &mut rec, table8::Role::Cold)?,
        "table8_warm" => table8::traced(&mut ctx, &mut rec, table8::Role::Warm)?,
        _ => serve::traced(&mut ctx, &mut rec, false)?,
    };
    if args.workload == "serve_mixed" {
        out.absorb(table8::traced(&mut ctx, &mut rec, table8::Role::Sample)?);
    } else {
        out.absorb(serve::traced(&mut ctx, &mut rec, true)?);
    }
    out.absorb(layers::sample(&ctx, &mut rec)?);
    Ok((out, Some(rec)))
}

/// Checks that `metrics` are exactly `want`, with the same units, all finite.
fn check_metric_set(metrics: &[(String, f64, &str)], want: &[(&str, &str)]) -> Result<(), String> {
    let mut got: Vec<(&str, &str)> = metrics.iter().map(|(n, _, u)| (n.as_str(), *u)).collect();
    let mut want = want.to_vec();
    got.sort_unstable();
    want.sort_unstable();
    if got != want {
        return Err(format!("metric set mismatch: got {got:?}"));
    }
    match metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        Some((name, v, _)) => Err(format!("metric {name} is {v}")),
        None => Ok(()),
    }
}

fn pin_digest() -> Result<(), String> {
    let traces = env::prepare_traces()?;
    let lib = env::load_traces(&traces);
    let spec = dtm_harness::SweepSpec::standard(inputs::CELL_DURATION_S)
        .policies(dtm_core::PolicySpec::all());
    let results = dtm_harness::SweepRunner::bare_shared(lib)
        .run(spec)
        .map_err(|e| e.to_string())?;
    let spec = results.spec();
    let rows: Vec<(String, String, u64)> = results
        .outcomes()
        .iter()
        .map(|o| {
            (
                spec.workload_axis()[o.index.workload].id.clone(),
                spec.policy_axis()[o.index.policy].wire_name(),
                oracle::physics_digest(&o.result),
            )
        })
        .collect();
    print!("{}", oracle::render(&rows));
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            if let Err(e) = pin_digest() {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
            return;
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (out, rec) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let want = if args.trace { PER_LAYER } else { END_TO_END };
    if let Err(e) = check_metric_set(&out.metrics, want) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    let fingerprint = env::fingerprint();
    if let Some(rec) = rec {
        let path = PathBuf::from(env::WORK_ROOT)
            .join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        match std::fs::write(&path, rec.chrome_trace(fingerprint.clone())) {
            Ok(()) => println!("spans {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    for (name, value, unit) in &out.metrics {
        println!("{name:<32} {value:>16.4} {unit}");
    }
    println!("fingerprint {}", fingerprint.emit());
    let metrics = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let m = Json::Obj(vec![
                ("value".into(), Json::f64(*value)),
                ("unit".into(), Json::str(*unit)),
            ]);
            (name.clone(), m)
        })
        .collect();
    let correct = out.failed == 0;
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::u64(out.attempted)),
        ("failed".into(), Json::u64(out.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.emit());
    if !correct {
        eprintln!(
            "perfbench: {} of {} operations failed",
            out.failed, out.attempted
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &Json, with_unit: bool) -> Vec<(String, String)> {
        list.as_arr()
            .expect("array")
            .iter()
            .map(|m| {
                let name = m.field("name").and_then(Json::as_str).expect("name");
                let unit = if with_unit {
                    m.field("unit").and_then(Json::as_str).expect("unit")
                } else {
                    ""
                };
                (name.to_string(), unit.to_string())
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_runs_report() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let spec = Json::parse(&text).expect("valid JSON");
        assert_eq!(
            names(spec.field("end_to_end").unwrap(), true),
            owned(END_TO_END)
        );
        assert_eq!(
            names(spec.field("per_layer").unwrap(), true),
            owned(PER_LAYER)
        );
        for (workload, _) in names(spec.field("workloads").unwrap(), false) {
            assert!(WORKLOADS.contains(&workload.as_str()), "{workload}");
        }
    }

    #[test]
    fn metric_set_check_rejects_missing_and_non_finite_metrics() {
        let ok: Vec<(String, f64, &str)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), 1.0, *u))
            .collect();
        assert!(check_metric_set(&ok, END_TO_END).is_ok());
        assert!(check_metric_set(&ok[1..], END_TO_END).is_err());
        let mut nan = ok.clone();
        nan[0].1 = f64::NAN;
        assert!(check_metric_set(&nan, END_TO_END).is_err());
    }
}
