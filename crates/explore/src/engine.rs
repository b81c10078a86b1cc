//! The exploration engine: drives strategies against the sweep
//! harness, memoizes every evaluation, journals fresh ones, and
//! maintains the Pareto archive.
//!
//! Determinism contract: given the same seed, space, workloads, and
//! strategy roster, the engine asks for the same evaluations in the
//! same order and produces a byte-identical report artifact — whether
//! the scores come from live simulation, the harness result cache, or
//! a journal left by an interrupted run. Resume is therefore just
//! "run it again": journaled evaluations are served from the memo
//! without touching a backend, and the journal grows only by whatever
//! the interrupted run never reached.

use std::collections::HashMap;
use std::path::Path;

use dtm_core::{PolicySpec, SimError};
use dtm_harness::codec::JsonCodec;
use dtm_harness::json::Json;
use dtm_harness::{SweepRunner, SweepSpec, Table};
use dtm_obs::ObsHandle;
use dtm_workloads::Workload;

use crate::journal::{eval_key, Journal, JournalRow};
use crate::pareto::{Entry, ParetoFront};
use crate::score::Score;
use crate::space::{Point, SearchSpace};
use crate::strategy::{Ask, Strategy};

/// One evaluated anchor: a policy at the paper-default knob values —
/// the fixed-grid incumbent exploration has to beat.
#[derive(Debug, Clone)]
pub struct Anchor {
    /// The anchored policy.
    pub policy: PolicySpec,
    /// The anchor's point (default knob values).
    pub point: Point,
    /// Its full-fidelity score.
    pub score: Score,
}

/// Per-generation accounting for console reporting. Fresh/memo splits
/// depend on what a previous run already journaled, so none of this
/// enters the deterministic artifact.
#[derive(Debug, Clone)]
pub struct GenSummary {
    /// Engine generation counter.
    pub gen: u32,
    /// Strategy that drove the generation.
    pub strategy: &'static str,
    /// Candidates asked.
    pub asks: usize,
    /// Evaluations simulated (or cache-served) this run.
    pub fresh: usize,
    /// Evaluations served from the journal/memo.
    pub memo_hits: usize,
    /// Archive size after the generation.
    pub front_len: usize,
    /// Best guidance scalar seen in the generation.
    pub best_scalar: f64,
}

/// The exploration engine.
pub struct Explorer<'a> {
    runner: &'a SweepRunner,
    space: SearchSpace,
    workloads: Vec<Workload>,
    journal: Journal,
    memo: HashMap<String, Score>,
    front: ParetoFront,
    anchors: Vec<Anchor>,
    summaries: Vec<GenSummary>,
    seed: u64,
    generation: u32,
    asks_processed: usize,
    fresh: usize,
    memo_hits: usize,
    obs: ObsHandle,
}

impl<'a> Explorer<'a> {
    /// Builds an engine over `runner`, resuming from whatever journal
    /// already exists at `journal_path`.
    ///
    /// # Errors
    ///
    /// Fails if an existing journal is unreadable or corrupt (a resume
    /// should stop loudly, not silently re-simulate history).
    pub fn new(
        runner: &'a SweepRunner,
        space: SearchSpace,
        workloads: Vec<Workload>,
        journal_path: impl AsRef<Path>,
        seed: u64,
        obs: &ObsHandle,
    ) -> Result<Self, SimError> {
        assert!(!workloads.is_empty(), "need at least one workload");
        let memo = Journal::load(journal_path.as_ref()).map_err(SimError::BadInput)?;
        Ok(Explorer {
            runner,
            space,
            workloads,
            journal: Journal::open(journal_path.as_ref()),
            memo,
            front: ParetoFront::new(),
            anchors: Vec::new(),
            summaries: Vec::new(),
            seed,
            generation: 0,
            asks_processed: 0,
            fresh: 0,
            memo_hits: 0,
            obs: obs.clone(),
        })
    }

    /// The search space.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// Number of distinct evaluations ever scored (journal + this run).
    pub fn evaluations(&self) -> usize {
        self.memo.len()
    }

    /// Evaluations simulated (or cache-served) by this run.
    pub fn fresh(&self) -> usize {
        self.fresh
    }

    /// Evaluations served from the journal/memo by this run.
    pub fn memo_hits(&self) -> usize {
        self.memo_hits
    }

    /// The Pareto archive.
    pub fn front(&self) -> &ParetoFront {
        &self.front
    }

    /// Per-generation accounting, in order.
    pub fn summaries(&self) -> &[GenSummary] {
        &self.summaries
    }

    fn clamp_fidelity(&self, f: Option<usize>) -> usize {
        f.unwrap_or(self.workloads.len())
            .clamp(1, self.workloads.len())
    }

    /// Scores a batch of asks, serving memoized evaluations for free
    /// and batching the rest through the harness backend grouped by
    /// (policy, fidelity) so each group is one sweep over a shared
    /// workload prefix.
    fn evaluate(
        &mut self,
        strategy: &'static str,
        asks: &[Ask],
    ) -> Result<Vec<(Ask, Score)>, SimError> {
        // Resolve every ask to its concrete identity first.
        let resolved: Vec<(Point, usize, String)> = asks
            .iter()
            .map(|a| {
                let p = self.space.point(a.policy, &a.t);
                let fid = self.clamp_fidelity(a.fidelity);
                let key = eval_key(&self.space.memo_key(&p), fid);
                (p, fid, key)
            })
            .collect();

        // Group the memo misses by (policy, fidelity), preserving
        // first-seen order and deduplicating repeated points.
        let mut groups: Vec<((usize, usize), Vec<usize>)> = Vec::new();
        let mut seen: Vec<&str> = Vec::new();
        for (i, (p, fid, key)) in resolved.iter().enumerate() {
            if self.memo.contains_key(key) || seen.contains(&key.as_str()) {
                continue;
            }
            seen.push(key);
            let gk = (p.policy, *fid);
            match groups.iter_mut().find(|(k, _)| *k == gk) {
                Some((_, members)) => members.push(i),
                None => groups.push((gk, vec![i])),
            }
        }

        // One sweep spec per group: the group's workload prefix crossed
        // with its policy, one named variant per distinct point.
        let specs: Vec<SweepSpec> = groups
            .iter()
            .map(|((policy, fid), members)| {
                let mut spec = SweepSpec::new(self.workloads[..*fid].to_vec())
                    .policies([self.space.policies[*policy]]);
                for (j, &i) in members.iter().enumerate() {
                    let variant = self.space.variant_for(&resolved[i].0);
                    spec = if j == 0 {
                        spec.variant(variant)
                    } else {
                        spec.add_variant(variant)
                    };
                }
                spec
            })
            .collect();

        let start = self.obs.now_ns();
        let batch = self.runner.run_batch(specs)?;
        for (((policy, _fid), members), results) in groups.iter().zip(&batch) {
            let policy_spec = self.space.policies[*policy];
            for &i in members {
                let (p, fid, key) = &resolved[i];
                let variant_name = self.space.memo_key(p);
                let runs = results.policy_runs_in(&variant_name, policy_spec);
                let score = Score::of_runs(&runs, self.space.dtm_for(p).threshold);
                self.journal.append(&JournalRow {
                    gen: u64::from(self.generation),
                    strategy: strategy.to_string(),
                    schedule: self.space.schedules[p.schedule].wire_name().to_string(),
                    key: key.clone(),
                    fidelity: *fid,
                    score,
                });
                self.memo.insert(key.clone(), score);
                self.fresh += 1;
            }
        }
        self.obs.record_span(
            "explore",
            strategy,
            start,
            self.obs.now_ns().saturating_sub(start),
        );
        self.obs
            .counter("dtm_explore_evals_total")
            .add(groups.iter().map(|(_, m)| m.len() as u64).sum());

        // Assemble results in ask order; full-fidelity evaluations feed
        // the archive (memo-served ones too — that is how a resumed run
        // reconstructs the same front without simulating).
        let full = self.workloads.len();
        let mut out = Vec::with_capacity(asks.len());
        for (a, (p, fid, key)) in asks.iter().zip(&resolved) {
            let score = self.memo[key];
            if *fid == full {
                self.front.insert(Entry {
                    point: p.clone(),
                    score,
                    gen: self.generation,
                });
            }
            out.push((a.clone(), score));
        }
        self.memo_hits += out.len() - seen.len();
        self.obs
            .counter("dtm_explore_memo_hits_total")
            .add((out.len() - seen.len()) as u64);
        self.asks_processed += out.len();
        Ok(out)
    }

    /// Evaluates the fixed-grid anchors — every candidate policy at the
    /// Table 3 default knob values under the fixed gain schedule, full
    /// fidelity — and archives them. The resulting incumbents are what
    /// the acceptance comparison (`baseline_dominated`) measures the
    /// front against. Anchors stay on the fixed arm even in adaptive
    /// spaces: they are the paper's grid, the thing exploration has to
    /// beat.
    ///
    /// # Errors
    ///
    /// Propagates backend failures.
    pub fn evaluate_anchors(&mut self) -> Result<&[Anchor], SimError> {
        let defaults = self.space.default_values();
        let t: Vec<f64> = {
            let p = Point {
                policy: 0,
                schedule: 0,
                values: defaults.clone(),
            };
            self.space.normalize(&p)
        };
        // Arms 0..policies.len() are exactly the fixed-schedule
        // policies (schedule axis keeps `Fixed` first).
        let asks: Vec<Ask> = (0..self.space.policies.len())
            .map(|policy| Ask {
                policy,
                t: t.clone(),
                fidelity: None,
            })
            .collect();
        let scored = self.evaluate("anchor", &asks)?;
        self.anchors = scored
            .into_iter()
            .map(|(a, score)| {
                let point = self.space.point(a.policy, &a.t);
                Anchor {
                    policy: self.space.policies[point.policy],
                    point,
                    score,
                }
            })
            .collect();
        Ok(&self.anchors)
    }

    /// Runs each strategy to exhaustion in roster order, stopping once
    /// `budget` asks have been processed. The budget gates *asks*, not
    /// simulations, so a resumed run makes identical stopping decisions
    /// even when everything is memo-served.
    ///
    /// # Errors
    ///
    /// Propagates backend failures; the journal retains everything
    /// scored before the failure.
    pub fn run(
        &mut self,
        strategies: &mut [Box<dyn Strategy>],
        budget: usize,
    ) -> Result<(), SimError> {
        for s in strategies.iter_mut() {
            loop {
                if self.asks_processed >= budget {
                    return Ok(());
                }
                let asks = s.ask();
                if asks.is_empty() {
                    break;
                }
                let fresh0 = self.fresh;
                let memo0 = self.memo_hits;
                let results = self.evaluate(s.name(), &asks)?;
                s.tell(&results);
                let best = results
                    .iter()
                    .map(|(_, sc)| sc.scalar())
                    .fold(f64::NEG_INFINITY, f64::max);
                self.summaries.push(GenSummary {
                    gen: self.generation,
                    strategy: s.name(),
                    asks: results.len(),
                    fresh: self.fresh - fresh0,
                    memo_hits: self.memo_hits - memo0,
                    front_len: self.front.len(),
                    best_scalar: best,
                });
                self.generation += 1;
            }
        }
        Ok(())
    }

    /// The deterministic end-of-run report.
    pub fn report(&self) -> ExploreReport {
        let baseline = self
            .anchors
            .iter()
            .max_by(|a, b| {
                a.score
                    .scalar()
                    .partial_cmp(&b.score.scalar())
                    .expect("finite scalars")
            })
            .cloned();
        let baseline_dominated = baseline
            .as_ref()
            .is_some_and(|b| self.front.dominates_on_headline(&b.score));
        ExploreReport {
            seed: self.seed,
            policies: self.space.policies.iter().map(|p| p.wire_name()).collect(),
            knobs: self.space.knobs.iter().map(|k| k.name).collect(),
            evaluations: self.memo.len(),
            generations: self.generation,
            anchors: self
                .anchors
                .iter()
                .map(|a| (self.space.memo_key(&a.point), a.score))
                .collect(),
            front: self
                .front
                .sorted()
                .into_iter()
                .map(|e| FrontRow {
                    key: self.space.memo_key(&e.point),
                    policy: self.space.policies[e.point.policy].name(),
                    values: self
                        .space
                        .knobs
                        .iter()
                        .zip(&e.point.values)
                        .map(|(k, &v)| (k.name, v))
                        .collect(),
                    gen: e.gen,
                    score: e.score,
                })
                .collect(),
            baseline: baseline.map(|b| (self.space.memo_key(&b.point), b.score)),
            baseline_dominated,
        }
    }
}

/// One row of the reported front.
#[derive(Debug, Clone)]
pub struct FrontRow {
    /// The point's memo key.
    pub key: String,
    /// Display name of the point's policy.
    pub policy: String,
    /// Knob name → concrete value.
    pub values: Vec<(&'static str, f64)>,
    /// Generation first archived.
    pub gen: u32,
    /// The objective vector.
    pub score: Score,
}

/// The deterministic exploration artifact: everything in here replays
/// bit-identically from the same seed, so two runs (or a run and its
/// resume) emit byte-identical JSON.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Base RNG seed of the run.
    pub seed: u64,
    /// Wire names of the policy axis.
    pub policies: Vec<String>,
    /// Knob names of the continuous axes.
    pub knobs: Vec<&'static str>,
    /// Distinct evaluations ever scored (journal length after the run).
    pub evaluations: usize,
    /// Engine generations driven.
    pub generations: u32,
    /// Fixed-grid anchors: (memo key, score).
    pub anchors: Vec<(String, Score)>,
    /// The Pareto front, in canonical order.
    pub front: Vec<FrontRow>,
    /// The scalar-best anchor the front is measured against.
    pub baseline: Option<(String, Score)>,
    /// Whether some front point strictly dominates the baseline on the
    /// (throughput, violation) headline plane.
    pub baseline_dominated: bool,
}

impl ExploreReport {
    /// Serializes the artifact (field order fixed; content fully
    /// deterministic — no wall-clock, no fresh/cached split).
    pub fn to_json(&self) -> Json {
        let score_pair = |(k, s): &(String, Score)| {
            Json::Obj(vec![
                ("key".into(), Json::str(k.clone())),
                ("score".into(), s.to_json()),
            ])
        };
        Json::Obj(vec![
            ("seed".into(), Json::u64(self.seed)),
            (
                "policies".into(),
                Json::Arr(self.policies.iter().map(Json::str).collect()),
            ),
            (
                "knobs".into(),
                Json::Arr(self.knobs.iter().map(|k| Json::str(*k)).collect()),
            ),
            ("evaluations".into(), Json::usize(self.evaluations)),
            ("generations".into(), Json::u64(u64::from(self.generations))),
            (
                "anchors".into(),
                Json::Arr(self.anchors.iter().map(score_pair).collect()),
            ),
            (
                "front".into(),
                Json::Arr(
                    self.front
                        .iter()
                        .map(|r| {
                            Json::Obj(vec![
                                ("key".into(), Json::str(&r.key)),
                                ("policy".into(), Json::str(&r.policy)),
                                (
                                    "values".into(),
                                    Json::Obj(
                                        r.values
                                            .iter()
                                            .map(|(k, v)| ((*k).into(), Json::f64(*v)))
                                            .collect(),
                                    ),
                                ),
                                ("gen".into(), Json::u64(u64::from(r.gen))),
                                ("score".into(), r.score.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "baseline".into(),
                self.baseline.as_ref().map_or(Json::Null, score_pair),
            ),
            (
                "baseline_dominated".into(),
                Json::Bool(self.baseline_dominated),
            ),
        ])
    }

    /// Renders the front as a console table.
    pub fn table(&self) -> Table {
        let mut t = Table::new([
            "policy",
            "BIPS",
            "violation s·°C",
            "energy J",
            "penalty s",
            "gen",
            "key",
        ])
        .with_title("Pareto front (throughput ↑, violation/energy/penalty ↓)");
        for r in &self.front {
            t.row([
                r.policy.clone(),
                format!("{:.3}", r.score.bips),
                format!("{:.4}", r.score.violation),
                format!("{:.1}", r.score.energy),
                format!("{:.4}", r.score.penalty),
                r.gen.to_string(),
                r.key.clone(),
            ]);
        }
        t
    }
}
