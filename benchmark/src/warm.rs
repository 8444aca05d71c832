//! `churn_warm`: groomsim epoch sequences replayed through the warm path,
//! plus the one-pair warm probe other workloads use.

use std::time::Instant;

use grooming::partition::EdgePartition;
use grooming::portfolio::DEFAULT_PORTFOLIO;
use grooming::solve::{
    DemandDelta, Instance, Plan, PortfolioSolver, SolveConfig, SolveContext, Solver,
};
use grooming_graph::ids::NodeId;
use grooming_sim::{AppliedEvent, Scenario};
use grooming_sonet::demand::{DemandPair, DemandSet};
use rand::Rng;

use crate::certify::{self, Quality};
use crate::corpus::{self, K};
use crate::layers::{self, Probe};
use crate::run::{self, Passes, Verdict};
use crate::serve::ServiceProbe;
use crate::stats::{self, Metrics};

/// What one recorded epoch does to the provisioned state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    /// An admitted arrival: the repaired plan is kept.
    Add,
    /// An arrival groomsim solved and then blocked on its wavelength
    /// budget: the repaired plan is dropped, the prior state stays.
    AddBlocked,
    /// A departure.
    Remove,
}

/// One epoch of a recording: the pair, what happens to it, and the SADM
/// count groomsim reported after it (for kept epochs).
#[derive(Clone, Copy, Debug)]
struct Epoch {
    pair: DemandPair,
    step: Step,
    sadms: u32,
}

/// A compact recording of one groomsim run: a dozen bytes per epoch
/// instead of the O(active) prior plan each epoch instance would hold.
pub struct Recording {
    nodes: usize,
    k: usize,
    rearrange_budget: Option<usize>,
    epochs: Vec<Epoch>,
    pub sim_ms: f64,
    pub sim_epochs: u64,
}

/// The two recorded scenarios: a 24-node ring at k = 8 offered 185.5
/// Erlangs and a 5×5 metro mesh at k = 8 offered 108 Erlangs, each near
/// its 1% blocking load, 40 000 ticks of arrivals.
pub fn scenarios(seed: u64) -> [Scenario; 2] {
    let mut ring = Scenario::ring(24, 8).with_offered_erlangs(185.5);
    let mut mesh = Scenario::mesh(5, 8).with_offered_erlangs(108.0);
    for (i, s) in [&mut ring, &mut mesh].into_iter().enumerate() {
        s.horizon = 40_000;
        s.master_seed = corpus::derive(seed, 6, i as u64);
    }
    [ring, mesh]
}

/// Runs `scenario` through groomsim and keeps its epochs compactly. The
/// event list and the trace agree line for line; a blocked arrival is an
/// epoch unless the mesh link check refused it before any solve.
pub fn record(scenario: &Scenario) -> Recording {
    let t = Instant::now();
    let out = grooming_sim::run(scenario);
    let sim_ms = stats::ms_since(t);
    let mut epochs = Vec::with_capacity(out.report.epochs as usize);
    for (event, line) in out.applied.iter().zip(out.trace.lines()) {
        let sadms = line
            .split_whitespace()
            .find_map(|f| f.strip_prefix("sadms="))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let (pair, step) = match *event {
            AppliedEvent::Admitted { pair, .. } => (pair, Step::Add),
            AppliedEvent::Departed { pair, .. } => (pair, Step::Remove),
            AppliedEvent::Blocked { .. } if line.ends_with("blocked links") => continue,
            AppliedEvent::Blocked { pair, .. } => (pair, Step::AddBlocked),
        };
        epochs.push(Epoch { pair, step, sadms });
    }
    assert_eq!(
        epochs.len() as u64,
        out.report.epochs,
        "every groomsim epoch is recorded once"
    );
    Recording {
        nodes: scenario.family.num_nodes(),
        k: scenario.k,
        rearrange_budget: scenario.rearrange_budget,
        epochs,
        sim_ms,
        sim_epochs: out.report.epochs,
    }
}

/// The solver groomsim runs its epochs through (warm starts ignore the
/// lineup; the context carries the rearrangement budget).
fn solver() -> PortfolioSolver<'static> {
    PortfolioSolver {
        portfolio: &DEFAULT_PORTFOLIO,
        restarts: 0,
        jobs: 1,
        master_seed: Some(0),
    }
}

fn context(rearrange_budget: Option<usize>) -> SolveContext {
    #[allow(clippy::field_reassign_with_default)]
    let config = {
        let mut config = SolveConfig::default();
        config.rearrange_budget = rearrange_budget;
        config
    };
    SolveContext::seeded(0).with_config(config)
}

/// Replays one recording, timing each `Solver::solve`. With `check`, each
/// epoch is certified and its SADM count compared with groomsim's. With
/// `snapshot_every`, the provisioned state after every that many epochs
/// is returned.
fn replay(
    rec: &Recording,
    ctx: &mut SolveContext,
    mut on_epoch: impl FnMut(usize, f64, &Plan),
    mut check: Option<(&mut Verdict, &mut Quality)>,
    snapshot_every: Option<usize>,
) -> Vec<(DemandSet, EdgePartition)> {
    let mut snapshots = Vec::new();
    let solver = solver();
    let mut demands = DemandSet::new(rec.nodes);
    let mut prior = EdgePartition::new(Vec::new());
    let mut prior_sadms = 0u64;
    for (i, e) in rec.epochs.iter().enumerate() {
        let delta = match e.step {
            Step::Add | Step::AddBlocked => DemandDelta::new(vec![e.pair], Vec::new()),
            Step::Remove => DemandDelta::new(Vec::new(), vec![e.pair]),
        };
        let post = check
            .as_ref()
            .map(|_| certify::apply_delta(&demands, &delta));
        let instance = Instance::reconfigure(demands, prior, delta, rec.k);
        let t = Instant::now();
        let solution = solver
            .solve(&instance, ctx)
            .expect("recorded epochs are valid warm starts");
        let ms = stats::ms_since(t);
        on_epoch(i, ms, &solution.plan);
        let Instance::Reconfigure {
            demands: before,
            prior: before_plan,
            ..
        } = instance
        else {
            unreachable!("built as a reconfigure instance")
        };
        if let (Some((verdict, quality)), Some(post)) = (check.as_mut(), post) {
            let added = usize::from(e.step != Step::Remove);
            let certified = post
                .and_then(|post| certify::warm(&post, prior_sadms, added, rec.k, &solution.plan));
            if let Some(q) = verdict.check(certified) {
                if e.step != Step::AddBlocked {
                    quality.add(q);
                    if q.sadms != u64::from(e.sadms) {
                        verdict.fail(format!(
                            "epoch {i} replays to {} SADMs, groomsim had {}",
                            q.sadms, e.sadms
                        ));
                    }
                }
            }
        }
        if e.step == Step::AddBlocked {
            demands = before;
            prior = before_plan;
        } else {
            let Plan::Reconfigure { outcome, .. } = solution.plan else {
                unreachable!("reconfigure instances yield reconfigure plans")
            };
            demands = match e.step {
                Step::Remove => {
                    certify::apply_delta(&before, &DemandDelta::new(Vec::new(), vec![e.pair]))
                        .expect("departures name provisioned pairs")
                }
                _ => {
                    let mut next = before;
                    next.add(e.pair.lo(), e.pair.hi());
                    next
                }
            };
            prior_sadms = outcome.report.sadm_total as u64;
            prior = outcome.partition;
        }
        if snapshot_every.is_some_and(|every| (i + 1) % every == 0) {
            snapshots.push((demands.clone(), prior.clone()));
        }
    }
    snapshots
}

/// Runs `churn_warm`.
pub fn run(seed: u64, seconds: f64, trace: bool) -> (Verdict, Metrics) {
    let (recordings, setup_s) = run::repeated_setup(|| scenarios(seed).map(|s| record(&s)), drop);
    let mut verdict = Verdict::default();
    let ops: usize = recordings.iter().map(|r| r.epochs.len()).sum();
    let offsets = [0, recordings[0].epochs.len()];
    let mut contexts: Vec<SolveContext> = recordings
        .iter()
        .map(|r| context(r.rearrange_budget))
        .collect();

    // The certifying replay: every epoch checked, quality summed over the
    // kept epochs. It is not timed.
    let mut quality = Quality::default();
    for (rec, ctx) in recordings.iter().zip(&mut contexts) {
        replay(
            rec,
            ctx,
            |_, _, _| {},
            Some((&mut verdict, &mut quality)),
            None,
        );
    }

    let start = Instant::now();
    let mut passes = Passes::new(ops);
    let mut traced = Passes::new(ops);
    let mut probe = Probe::default();
    let mut n = 0;
    while run::more(start, seconds, n, 2) {
        let mut times = vec![0.0; ops];
        for (r, (rec, ctx)) in recordings.iter().zip(&mut contexts).enumerate() {
            replay(rec, ctx, |i, ms, _| times[offsets[r] + i] = ms, None, None);
        }
        passes.record_pass(&times);
        if trace {
            let mut traced_times = vec![0.0; ops];
            for (r, (rec, ctx)) in recordings.iter().zip(&mut contexts).enumerate() {
                replay(
                    rec,
                    ctx,
                    |i, ms, plan| {
                        traced_times[offsets[r] + i] = ms;
                        probe.sample("core.warm_us", ms);
                        if let Plan::Reconfigure {
                            parts_repaired,
                            sadms_moved,
                            ..
                        } = plan
                        {
                            probe.count("core.warm.parts_repaired", *parts_repaired);
                            probe.count("core.warm.sadms_moved", *sadms_moved);
                        }
                    },
                    None,
                    None,
                );
            }
            off_path_layers(&mut probe, &mut verdict, &recordings, seed);
            for rec in &recordings {
                probe.sample("sim.run_ms", rec.sim_ms);
                probe.count("sim.epochs", rec.sim_epochs);
            }
            traced.record_pass(&traced_times);
            probe.end_pass();
        }
        n += 1;
    }
    verdict.attempted = passes.attempted();
    if trace {
        probe.set(
            "trace.overhead_ratio",
            traced.latency().0 / passes.latency().0,
        );
        return (verdict, probe.metrics());
    }
    let metrics = run::end_to_end(setup_s, &passes, quality, "epoch");
    (verdict, metrics)
}

/// Snapshots of the recorded ring and mesh states at a few points, run
/// through the planning, routing and service layers this workload never
/// touches.
fn off_path_layers(probe: &mut Probe, verdict: &mut Verdict, recs: &[Recording], seed: u64) {
    let mut service = ServiceProbe::start();
    let mut batch = Vec::new();
    for (r, rec) in recs.iter().enumerate() {
        let states = snapshots(rec, 4);
        for (j, (demands, prior)) in states.into_iter().enumerate() {
            let g = demands.to_traffic_graph();
            if g.num_edges() == 0 {
                continue;
            }
            let master = corpus::derive(seed, 7, (r * 8 + j) as u64);
            layers::bound_layer(probe, &g);
            layers::portfolio_layers(probe, &g, master, &DEFAULT_PORTFOLIO);
            if r == 1 {
                let topology = Scenario::mesh(5, 8).family.build();
                layers::route_layer(probe, &topology, &demands, 4);
                let instance = Instance::mesh(topology.clone(), demands.clone(), K, 4);
                let plan = probe.time("core.mesh_solve_ms", || {
                    solver()
                        .solve(&instance, &mut SolveContext::seeded(master))
                        .expect("grid routes every pair")
                        .plan
                });
                verdict.check(certify::mesh(&topology, &demands, K, &plan));
                if let Plan::Mesh { blocked, .. } = &plan {
                    probe.count("core.mesh.blocked", blocked.len() as u64);
                }
            }
            let ring = Instance::ring(demands.clone(), K);
            let plan = solver()
                .solve(&ring, &mut SolveContext::seeded(master))
                .expect("ring demand sets solve")
                .plan;
            layers::assemble_layer(probe, &demands, &plan);
            let delta = DemandDelta::new(vec![DemandPair::new(NodeId(0), NodeId(1))], Vec::new());
            batch.push(Instance::reconfigure(demands, prior, delta, rec.k));
        }
    }
    for _ in 0..2 {
        service.request(probe, verdict, batch.clone(), None, true);
    }
    service.finish(probe, verdict);
}

/// The provisioned state at `count` evenly spaced epochs.
fn snapshots(rec: &Recording, count: usize) -> Vec<(DemandSet, EdgePartition)> {
    let every = (rec.epochs.len() / (count + 1)).max(1);
    let mut states = replay(
        rec,
        &mut context(rec.rearrange_budget),
        |_, _, _| {},
        None,
        Some(every),
    );
    states.truncate(count);
    states
}

/// A warm start on a solved plan: one provisioned pair withdrawn and one
/// new pair added, certified against the never-worse invariant.
pub fn one_pair_probe(
    probe: &mut Probe,
    verdict: &mut Verdict,
    demands: &DemandSet,
    plan: &Plan,
    seed: u64,
) {
    let Some(prior) = plan.partition() else {
        return;
    };
    if demands.is_empty() {
        return;
    }
    let mut rng = corpus::rng(seed, 8, 0);
    let n = demands.num_nodes() as u32;
    let a = rng.gen_range(0..n);
    let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
    let removed = demands.pairs()[rng.gen_range(0..demands.len())];
    let delta = DemandDelta::new(vec![DemandPair::new(NodeId(a), NodeId(b))], vec![removed]);
    let post = certify::apply_delta(demands, &delta);
    let instance = Instance::reconfigure(demands.clone(), prior.clone(), delta, K);
    let t = Instant::now();
    let solution = solver()
        .solve(&instance, &mut context(None))
        .expect("a one-pair delta on a valid plan is a valid warm start");
    probe.sample("core.warm_us", stats::ms_since(t));
    let certified =
        post.and_then(|post| certify::warm(&post, plan.sadm_cost() as u64, 1, K, &solution.plan));
    verdict.check(certified);
    if let Plan::Reconfigure {
        parts_repaired,
        sadms_moved,
        ..
    } = solution.plan
    {
        probe.count("core.warm.parts_repaired", parts_repaired);
        probe.count("core.warm.sadms_moved", sadms_moved);
    }
}
