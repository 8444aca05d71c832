//! Per-layer timing from outside: each probe times a public call into one
//! layer on the workload's own inputs. Nothing here runs inside the
//! program; a layer's figure is the cost of calling it directly.

use std::collections::BTreeMap;
use std::time::Instant;

use grooming::algorithm::Algorithm;
use grooming::bounds;
use grooming::improve;
use grooming::portfolio::attempt_seed;
use grooming::solve::{Plan, DEFAULT_REFINE_ROUNDS};
use grooming::spant_euler::spant_euler;
use grooming_graph::graph::Graph;
use grooming_graph::spanning::TreeStrategy;
use grooming_graph::topology::Topology;
use grooming_sonet::demand::{DemandPair, DemandSet};
use grooming_sonet::grooming::GroomingAssignment;
use grooming_sonet::ring::UpsrRing;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::corpus::K;
use crate::stats::{self, Metrics};

/// Every per-layer metric, in print order, with its unit. Times are means
/// per call; counts are per traced pass.
pub const LAYER_METRICS: [(&str, &str); 28] = [
    ("graph.route_ms", "ms"),
    ("graph.routes", "count"),
    ("core.bound_ms", "ms"),
    ("core.construct.dense_first_ms", "ms"),
    ("core.construct.clique_first_ms", "ms"),
    ("core.construct.spant_euler_ms", "ms"),
    ("core.construct.brauner_ms", "ms"),
    ("core.construct.wang_gu_ms", "ms"),
    ("core.portfolio.attempts", "count"),
    ("core.refine_ms", "ms"),
    ("core.refine.swaps", "count"),
    ("core.mesh_solve_ms", "ms"),
    ("core.mesh.blocked", "count"),
    ("sonet.assemble_ms", "ms"),
    ("core.warm_us_p50", "us"),
    ("core.warm_us_tail", "us"),
    ("core.warm.parts_repaired", "count"),
    ("core.warm.sadms_moved", "count"),
    ("sim.run_ms", "ms"),
    ("sim.epochs", "count"),
    ("service.parse_us", "us"),
    ("service.encode_us", "us"),
    ("service.inproc_ms", "ms"),
    ("service.queue_wait_us", "us"),
    ("service.solve_time_us", "us"),
    ("service.cache_hit_share", "ratio"),
    ("service.tcp_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// Accumulates per-call samples and per-pass counts for every layer.
#[derive(Default)]
pub struct Probe {
    samples: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, f64>,
    values: BTreeMap<&'static str, f64>,
    passes: u32,
}

impl Probe {
    /// Times one call into a layer, in the unit of `name` (`_ms` or `_us`).
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let ms = stats::ms_since(t);
        self.sample(name, ms);
        out
    }

    /// Records one call's duration given in milliseconds.
    pub fn sample(&mut self, name: &'static str, ms: f64) {
        let v = if name.ends_with("_us") { ms * 1e3 } else { ms };
        self.samples.entry(name).or_default().push(v);
    }

    /// Adds to a count; counts are reported per traced pass.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n as f64;
    }

    /// Sets a derived value directly (ratios and differences).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Marks the end of one traced pass.
    pub fn end_pass(&mut self) {
        self.passes += 1;
    }

    fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// The per-layer metric block. The warm path reports its p50 and tail
    /// from the per-epoch samples; other times are means per call.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        let passes = f64::from(self.passes.max(1));
        for (name, unit) in LAYER_METRICS {
            let value = if let Some(v) = self.values.get(name) {
                *v
            } else if let Some(c) = self.counts.get(name) {
                c / passes
            } else if name.starts_with("core.warm_us") {
                let warm = self.samples("core.warm_us");
                match (warm.is_empty(), name.ends_with("p50")) {
                    (true, _) => 0.0,
                    (false, true) => stats::median(warm),
                    (false, false) => stats::tail(warm).0,
                }
            } else {
                let s = self.samples(name);
                if s.is_empty() {
                    0.0
                } else {
                    s.iter().sum::<f64>() / s.len() as f64
                }
            };
            m.push(name, value, unit);
        }
        m
    }
}

/// The construction metric each default-portfolio entry reports under.
fn construct_metric(algo: Algorithm) -> &'static str {
    match algo {
        Algorithm::Brauner => "core.construct.brauner_ms",
        Algorithm::WangGuIcc06 => "core.construct.wang_gu_ms",
        Algorithm::CliqueFirst => "core.construct.clique_first_ms",
        Algorithm::DenseFirst => "core.construct.dense_first_ms",
        _ => "core.construct.spant_euler_ms",
    }
}

/// The lower-bound layer.
pub fn bound_layer(probe: &mut Probe, g: &Graph) {
    probe.time("core.bound_ms", || bounds::lower_bound(g, K));
}

/// The default portfolio taken apart: every attempt of `entries` the
/// engine would run under `master`, the refined entry split into its
/// `SpanT_Euler` construction and `refine_with_stats`. Returns the
/// cheapest attempt's cost; over all of `DEFAULT_PORTFOLIO` it must equal
/// the portfolio's.
pub fn portfolio_layers(probe: &mut Probe, g: &Graph, master: u64, entries: &[Algorithm]) -> usize {
    let mut best = usize::MAX;
    for &algo in entries {
        let mut rng = StdRng::seed_from_u64(attempt_seed(master, algo, 0));
        probe.count("core.portfolio.attempts", 1);
        let cost = match algo {
            Algorithm::SpanTEulerRefined(strategy) => {
                let base = probe.time("core.construct.spant_euler_ms", || {
                    spant_euler(g, K, strategy, &mut rng)
                });
                refine_layer(probe, g, &base)
            }
            _ => {
                let part = probe.time(construct_metric(algo), || {
                    algo.run(g, K, &mut rng)
                        .expect("default-portfolio entries run on any graph")
                });
                part.sadm_cost(g)
            }
        };
        best = best.min(cost);
    }
    best
}

/// The portfolio entries `plan_scale` never runs, timed off its path.
pub const OFF_PATH_ENTRIES: [Algorithm; 4] = [
    Algorithm::Brauner,
    Algorithm::WangGuIcc06,
    Algorithm::CliqueFirst,
    Algorithm::DenseFirst,
];

/// The refined override taken apart: `SpanT_Euler` on the solve's own
/// stream, then `refine_with_stats`. Returns the refined cost.
pub fn refined_layers(probe: &mut Probe, g: &Graph, seed: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = probe.time("core.construct.spant_euler_ms", || {
        spant_euler(g, K, TreeStrategy::Bfs, &mut rng)
    });
    refine_layer(probe, g, &base)
}

fn refine_layer(probe: &mut Probe, g: &Graph, base: &grooming::EdgePartition) -> usize {
    let (refined, swaps) = probe.time("core.refine_ms", || {
        improve::refine_with_stats(g, K, base, DEFAULT_REFINE_ROUNDS)
    });
    probe.count("core.refine.swaps", swaps);
    refined.sadm_cost(g)
}

/// The SONET assembly layer: builds, validates and costs the ring
/// assignment of a plan's partition (`GroomingAssignment::new` +
/// `validate` + `report`).
pub fn assemble_layer(probe: &mut Probe, demands: &DemandSet, plan: &Plan) {
    let Some(partition) = plan.partition() else {
        return;
    };
    let groups: Vec<Vec<DemandPair>> = partition
        .parts()
        .iter()
        .map(|part| part.iter().map(|e| demands.pairs()[e.index()]).collect())
        .collect();
    probe.time("sonet.assemble_ms", || {
        let a = GroomingAssignment::new(UpsrRing::new(demands.num_nodes()), K, groups);
        a.validate(Some(demands))
            .expect("a certified partition fits the ring");
        a.report()
    });
}

/// The routing layer: Yen candidates for every demand of one mesh item.
pub fn route_layer(probe: &mut Probe, topology: &Topology, demands: &DemandSet, routes: usize) {
    let found = probe.time("graph.route_ms", || {
        demands
            .pairs()
            .iter()
            .map(|p| topology.k_shortest_paths(p.lo(), p.hi(), routes).len())
            .sum::<usize>()
    });
    probe.count("graph.routes", found as u64);
}
