//! `plan_portfolio` and `plan_scale`: cold plans over a fixed corpus, one
//! plan at a time on one thread.

use std::time::Instant;

use grooming::algorithm::Algorithm;
use grooming::portfolio::DEFAULT_PORTFOLIO;
use grooming::solve::{Instance, Plan, PortfolioSolver, SolveContext, Solver};
use grooming_graph::spanning::TreeStrategy;
use grooming_graph::topology::Topology;
use grooming_sim::Scenario;

use crate::certify::{self, Quality};
use crate::corpus::{self, Item, K};
use crate::layers::{self, Probe, OFF_PATH_ENTRIES};
use crate::run::{self, Passes, Verdict};
use crate::serve::ServiceProbe;
use crate::stats::{self, Metrics};
use crate::warm;

/// Which planning workload, and so which solver.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The default portfolio, as groomd and the CLI run it without `algo=`.
    Portfolio,
    /// The `SpanTEulerRefined` override planners use at scale.
    Scale,
}

/// The solve seed of corpus item `i`: the context seed for the refined
/// override, the explicit master for the portfolio.
fn item_seed(seed: u64, i: usize) -> u64 {
    corpus::derive(seed, 5, i as u64)
}

fn solve(kind: Kind, instance: &Instance, seed: u64) -> Plan {
    let mut ctx = SolveContext::seeded(seed);
    let solution = match kind {
        Kind::Portfolio => PortfolioSolver {
            portfolio: &DEFAULT_PORTFOLIO,
            restarts: 0,
            jobs: 1,
            master_seed: Some(seed),
        }
        .solve(instance, &mut ctx),
        Kind::Scale => Algorithm::SpanTEulerRefined(TreeStrategy::Bfs).solve(instance, &mut ctx),
    }
    .expect("corpus instances always solve");
    assert!(!solution.timed_out, "no item carries a deadline");
    solution.plan
}

fn certify_item(item: &Item, plan: &Plan) -> Result<Quality, String> {
    match item {
        Item::Upsr { graph } => certify::upsr(graph, K, plan),
        Item::Ring { demands } => certify::ring(demands, K, plan),
        Item::Mesh {
            topology, demands, ..
        } => certify::mesh(topology, demands, K, plan),
    }
}

/// Runs one planning workload and returns its verdict and metrics.
pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool) -> (Verdict, Metrics) {
    let (items, setup_s) = run::repeated_setup(
        || match kind {
            Kind::Portfolio => corpus::portfolio_corpus(seed),
            Kind::Scale => corpus::scale_corpus(seed),
        },
        drop,
    );
    let instances: Vec<Instance> = items.iter().map(Item::instance).collect();
    let seeds: Vec<u64> = (0..items.len()).map(|i| item_seed(seed, i)).collect();
    let mut verdict = Verdict::default();

    // The first pass keeps its plans for certification; every later pass
    // must reproduce their costs exactly.
    let mut plans: Vec<Option<Plan>> = vec![None; items.len()];
    let mut costs: Vec<(usize, usize)> = vec![(0, 0); items.len()];
    let mut mismatch: Option<String> = None;
    let mut op = |i: usize| -> f64 {
        let t = Instant::now();
        let plan = solve(kind, &instances[i], seeds[i]);
        let ms = stats::ms_since(t);
        let got = (plan.sadm_cost(), plan.wavelengths());
        match &plans[i] {
            None => {
                costs[i] = got;
                plans[i] = Some(plan);
            }
            Some(_) if costs[i] != got && mismatch.is_none() => {
                mismatch = Some(format!(
                    "item {i} re-planned to {got:?}, first {:?}",
                    costs[i]
                ));
            }
            Some(_) => {}
        }
        ms
    };

    let start = Instant::now();
    let mut passes = Passes::new(items.len());
    let metrics = if trace {
        let mut traced = Passes::new(items.len());
        let mut probe = Probe::default();
        let mut n = 0;
        while run::more(start, seconds, n, 1) {
            passes.pass(&mut op);
            let mut pass_plans: Vec<Option<Plan>> = vec![None; items.len()];
            traced.pass(|i| {
                let t = Instant::now();
                let plan = solve(kind, &instances[i], seeds[i]);
                let ms = stats::ms_since(t);
                pass_plans[i] = Some(plan);
                ms
            });
            for (i, plan) in pass_plans.iter().enumerate() {
                let plan = plan.as_ref().expect("every item planned");
                let ms = traced.last(i);
                item_layers(
                    kind,
                    &mut probe,
                    &mut verdict,
                    &items[i],
                    plan,
                    seeds[i],
                    ms,
                );
            }
            off_path_layers(kind, &mut probe, &mut verdict, &items, seed);
            probe.end_pass();
            n += 1;
        }
        probe.set(
            "trace.overhead_ratio",
            traced.latency().0 / passes.latency().0,
        );
        probe.metrics()
    } else {
        let mut n = 0;
        while run::more(start, seconds, n, 2) {
            passes.pass(&mut op);
            n += 1;
        }
        Metrics::default()
    };
    if let Some(m) = mismatch {
        verdict.fail(m);
    }

    let mut quality = Quality::default();
    for (item, plan) in items.iter().zip(&plans) {
        let plan = plan.as_ref().expect("the first pass planned every item");
        if let Some(q) = verdict.check(certify_item(item, plan)) {
            quality.add(q);
        }
    }
    verdict.attempted = passes.attempted();
    let unit = "plan";
    let e2e = run::end_to_end(setup_s, &passes, quality, unit);
    (verdict, if trace { metrics } else { e2e })
}

/// The layers one corpus item passes through, each called directly on
/// the item; the decomposed plan must cost what the solve returned.
fn item_layers(
    kind: Kind,
    probe: &mut Probe,
    verdict: &mut Verdict,
    item: &Item,
    plan: &Plan,
    seed: u64,
    solve_ms: f64,
) {
    match item {
        Item::Upsr { .. } | Item::Ring { .. } => {
            let g = item.traffic_graph();
            layers::bound_layer(probe, &g);
            let cost = match kind {
                Kind::Portfolio => layers::portfolio_layers(probe, &g, seed, &DEFAULT_PORTFOLIO),
                Kind::Scale => layers::refined_layers(probe, &g, seed),
            };
            if cost != plan.sadm_cost() {
                verdict.fail(format!(
                    "layers taken apart cost {cost}, the solve returned {}",
                    plan.sadm_cost()
                ));
            }
            let demands = item.demand_set();
            layers::assemble_layer(probe, &demands, plan);
            warm::one_pair_probe(probe, verdict, &demands, plan, seed);
        }
        Item::Mesh {
            topology,
            demands,
            routes,
        } => {
            layers::route_layer(probe, topology, demands, *routes);
            probe.sample("core.mesh_solve_ms", solve_ms);
            if let Plan::Mesh { blocked, .. } = plan {
                probe.count("core.mesh.blocked", blocked.len() as u64);
            }
            // The constructions the refined override never runs, timed on
            // this item's demanded traffic.
            let g = item.traffic_graph();
            layers::portfolio_layers(probe, &g, seed, &OFF_PATH_ENTRIES);
            if let Plan::Mesh { carried, .. } = plan {
                warm::one_pair_probe(probe, verdict, carried, plan, seed);
            }
        }
    }
}

/// Layers this workload does not pass through, timed on small inputs
/// drawn from its own corpus: mesh routing of ring items over their ring
/// (`plan_portfolio`), a groomsim run, and the service path.
fn off_path_layers(
    kind: Kind,
    probe: &mut Probe,
    verdict: &mut Verdict,
    items: &[Item],
    seed: u64,
) {
    let rings: Vec<&Item> = items
        .iter()
        .filter(|i| matches!(i, Item::Ring { .. }))
        .take(4)
        .collect();
    if kind == Kind::Portfolio {
        for (i, item) in rings.iter().enumerate() {
            let Item::Ring { demands } = item else {
                continue;
            };
            let topology = Topology::ring(demands.num_nodes());
            layers::route_layer(probe, &topology, demands, 2);
            let instance = Instance::mesh(topology.clone(), demands.clone(), K, 2);
            let plan = probe.time("core.mesh_solve_ms", || {
                solve(Kind::Portfolio, &instance, item_seed(seed, 1000 + i))
            });
            verdict.check(certify::mesh(&topology, demands, K, &plan));
            if let Plan::Mesh { blocked, .. } = &plan {
                probe.count("core.mesh.blocked", blocked.len() as u64);
            }
        }
    }
    let scenario = match kind {
        Kind::Portfolio => Scenario::ring(32, K),
        Kind::Scale => Scenario::mesh(10, K),
    };
    let mut scenario = scenario.with_offered_erlangs(40.0);
    scenario.horizon = 20_000;
    scenario.master_seed = seed;
    let out = probe.time("sim.run_ms", || grooming_sim::run(&scenario));
    probe.count("sim.epochs", out.report.epochs);

    let batch: Vec<Instance> = match kind {
        Kind::Portfolio => rings.iter().map(|i| i.instance()).collect(),
        Kind::Scale => items
            .iter()
            .filter(|i| matches!(i, Item::Mesh { .. }))
            .take(2)
            .map(Item::instance)
            .collect(),
    };
    let algo = match kind {
        Kind::Portfolio => None,
        Kind::Scale => Some(Algorithm::SpanTEulerRefined(TreeStrategy::Bfs)),
    };
    // Sent twice to a fresh groomd: the repeat is served from the cache.
    let mut service = ServiceProbe::start();
    for _ in 0..2 {
        service.request(probe, verdict, batch.clone(), algo, false);
    }
    service.finish(probe, verdict);
}
