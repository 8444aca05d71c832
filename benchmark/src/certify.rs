//! Outside-in certification of every plan the benchmark receives.
//!
//! Nothing here trusts the program's own accounting: covers, part sizes,
//! SADM (port) counts, wavelength counts, floors, routes and capacities
//! are recomputed from the raw parts and compared with what the plan
//! reports. The floors are computed here too, so a later change to
//! `grooming::bounds` cannot move them.

use grooming::solve::{DemandDelta, Plan};
use grooming_graph::graph::Graph;
use grooming_graph::ids::{EdgeId, NodeId};
use grooming_graph::topology::{RoutePath, Topology};
use grooming_sonet::demand::{DemandPair, DemandSet};

/// What one certified plan contributes to the quality ratios.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Quality {
    /// SADMs (for mesh: add/drop ports) recomputed from the parts.
    pub sadms: u64,
    /// Demands the plan carries.
    pub carried: u64,
    /// Wavelengths (non-empty parts).
    pub wavelengths: u64,
    /// `⌈carried / k⌉`, the wavelength floor.
    pub min_wavelengths: u64,
}

impl Quality {
    pub fn add(&mut self, other: Quality) {
        self.sadms += other.sadms;
        self.carried += other.carried;
        self.wavelengths += other.wavelengths;
        self.min_wavelengths += other.min_wavelengths;
    }

    /// Σ SADMs ÷ Σ carried demands.
    pub fn sadms_per_demand(&self) -> f64 {
        self.sadms as f64 / self.carried.max(1) as f64
    }

    /// Σ wavelengths ÷ Σ ⌈m/k⌉.
    pub fn wavelengths_over_min(&self) -> f64 {
        self.wavelengths as f64 / self.min_wavelengths.max(1) as f64
    }
}

/// The endpoints of every edge of `g`, indexed by edge id.
pub fn graph_pairs(g: &Graph) -> Vec<(u32, u32)> {
    g.edges()
        .map(|e| {
            let (u, v) = g.endpoints(e);
            (u.0, v.0)
        })
        .collect()
}

/// The endpoints of every demand, indexed by its traffic-graph edge id.
pub fn demand_pairs(demands: &DemandSet) -> Vec<(u32, u32)> {
    demands
        .pairs()
        .iter()
        .map(|p| (p.lo().0, p.hi().0))
        .collect()
}

/// Σ_i |V_i|: the distinct endpoints of each part, summed. Parts must
/// name demands of `pairs`.
pub fn sadms(nodes: usize, pairs: &[(u32, u32)], parts: &[Vec<EdgeId>]) -> u64 {
    let mut stamp = vec![usize::MAX; nodes];
    let mut total = 0;
    for (i, part) in parts.iter().enumerate() {
        for &e in part {
            let (u, v) = pairs[e.index()];
            for x in [u as usize, v as usize] {
                if stamp[x] != i {
                    stamp[x] = i;
                    total += 1;
                }
            }
        }
    }
    total
}

/// Checks that `parts` cover every one of `pairs` exactly once with at
/// most `k` per part, recomputes SADMs and wavelengths, checks them
/// against the reported values and against their floors.
pub fn partition(
    nodes: usize,
    pairs: &[(u32, u32)],
    k: usize,
    parts: &[Vec<EdgeId>],
    reported_sadms: usize,
    reported_wavelengths: usize,
) -> Result<Quality, String> {
    let m = pairs.len();
    let mut seen = vec![false; m];
    for (i, part) in parts.iter().enumerate() {
        if part.is_empty() {
            return Err(format!("part {i} is empty"));
        }
        if part.len() > k {
            return Err(format!("part {i} holds {} demands, k = {k}", part.len()));
        }
        for &e in part {
            let idx = e.index();
            if idx >= m {
                return Err(format!("part {i} names demand {idx} of {m}"));
            }
            if seen[idx] {
                return Err(format!("demand {idx} is covered twice"));
            }
            seen[idx] = true;
        }
    }
    if let Some(missing) = seen.iter().position(|&s| !s) {
        return Err(format!("demand {missing} is not covered"));
    }
    let q = Quality {
        sadms: sadms(nodes, pairs, parts),
        carried: m as u64,
        wavelengths: parts.len() as u64,
        min_wavelengths: m.div_ceil(k) as u64,
    };
    if q.sadms != reported_sadms as u64 {
        return Err(format!(
            "plan reports {reported_sadms} SADMs, its parts use {}",
            q.sadms
        ));
    }
    if q.wavelengths != reported_wavelengths as u64 {
        return Err(format!(
            "plan reports {reported_wavelengths} wavelengths, it has {} parts",
            q.wavelengths
        ));
    }
    floors(nodes, pairs, k, q)?;
    Ok(q)
}

/// Cost ≥ Σ_v ⌈deg(v)/k⌉ and wavelengths ≥ ⌈m/k⌉.
pub fn floors(nodes: usize, pairs: &[(u32, u32)], k: usize, q: Quality) -> Result<(), String> {
    let mut degree = vec![0usize; nodes];
    for &(u, v) in pairs {
        degree[u as usize] += 1;
        degree[v as usize] += 1;
    }
    let degree_floor: usize = degree.iter().map(|d| d.div_ceil(k)).sum();
    if q.sadms < degree_floor as u64 {
        return Err(format!(
            "cost {} is below the degree floor {degree_floor}",
            q.sadms
        ));
    }
    if q.wavelengths < pairs.len().div_ceil(k) as u64 {
        return Err(format!(
            "{} wavelengths is below the floor {}",
            q.wavelengths,
            pairs.len().div_ceil(k)
        ));
    }
    Ok(())
}

/// Certifies a plan for an `Instance::Upsr` traffic graph.
pub fn upsr(g: &Graph, k: usize, plan: &Plan) -> Result<Quality, String> {
    let parts = plan
        .partition()
        .ok_or("an upsr plan carries a partition")?
        .parts();
    partition(
        g.num_nodes(),
        &graph_pairs(g),
        k,
        parts,
        plan.sadm_cost(),
        plan.wavelengths(),
    )
}

/// Certifies a plan for an `Instance::Ring` demand set.
pub fn ring(demands: &DemandSet, k: usize, plan: &Plan) -> Result<Quality, String> {
    let Plan::Ring { outcome } = plan else {
        return Err("a ring instance must yield a ring plan".into());
    };
    partition(
        demands.num_nodes(),
        &demand_pairs(demands),
        k,
        outcome.partition.parts(),
        outcome.report.sadm_total,
        outcome.report.wavelengths,
    )
}

/// The post-delta demand list of a warm start: each removed pair retires
/// its earliest surviving occurrence, added pairs are appended.
pub fn apply_delta(demands: &DemandSet, delta: &DemandDelta) -> Result<DemandSet, String> {
    let mut removed: Vec<DemandPair> = delta.removed.clone();
    let mut next = DemandSet::new(demands.num_nodes());
    for &p in demands.pairs() {
        if let Some(i) = removed.iter().position(|&r| r == p) {
            removed.swap_remove(i);
            continue;
        }
        next.add(p.lo(), p.hi());
    }
    if !removed.is_empty() {
        return Err(format!(
            "delta removes {} unprovisioned pairs",
            removed.len()
        ));
    }
    for &p in &delta.added {
        next.add(p.lo(), p.hi());
    }
    Ok(next)
}

/// Certifies one warm epoch: the plan covers the post-delta demands and
/// costs at most the prior cost plus two SADMs per added pair (the
/// never-worse invariant of the warm path).
pub fn warm(
    post: &DemandSet,
    prior_sadms: u64,
    added: usize,
    k: usize,
    plan: &Plan,
) -> Result<Quality, String> {
    let Plan::Reconfigure { outcome, .. } = plan else {
        return Err("a reconfigure instance must yield a reconfigure plan".into());
    };
    let q = partition(
        post.num_nodes(),
        &demand_pairs(post),
        k,
        outcome.partition.parts(),
        outcome.report.sadm_total,
        outcome.report.wavelengths,
    )?;
    let ceiling = prior_sadms + 2 * added as u64;
    if q.sadms > ceiling {
        return Err(format!(
            "warm plan costs {} SADMs, above prior {prior_sadms} + 2·{added}",
            q.sadms
        ));
    }
    Ok(q)
}

/// Checks that `route` is a loopless path of `topology` joining `pair`.
pub fn route(topology: &Topology, pair: DemandPair, route: &RoutePath) -> Result<(), String> {
    let g = topology.graph();
    let nodes = &route.nodes;
    if nodes.len() < 2 || route.links.len() + 1 != nodes.len() {
        return Err(format!("route for {pair:?} has a malformed hop list"));
    }
    let (first, last) = (nodes[0], nodes[nodes.len() - 1]);
    let ends_ok =
        (first == pair.lo() && last == pair.hi()) || (first == pair.hi() && last == pair.lo());
    if !ends_ok {
        return Err(format!("route for {pair:?} runs {first:?} -> {last:?}"));
    }
    let mut visited = vec![false; g.num_nodes()];
    let mut length = 0u64;
    for (hop, &e) in route.links.iter().enumerate() {
        if e.index() >= g.num_edges() {
            return Err(format!(
                "route for {pair:?} uses unknown link {}",
                e.index()
            ));
        }
        let (a, b) = g.endpoints(e);
        let (x, y) = (nodes[hop], nodes[hop + 1]);
        if !((a == x && b == y) || (a == y && b == x)) {
            return Err(format!(
                "route for {pair:?}: link {} does not join hop {hop}",
                e.index()
            ));
        }
        length += u64::from(topology.weight(e));
    }
    for &v in nodes {
        if std::mem::replace(&mut visited[v.index()], true) {
            return Err(format!("route for {pair:?} revisits {v:?}"));
        }
    }
    if length != route.length {
        return Err(format!(
            "route for {pair:?} reports length {}, its links sum to {length}",
            route.length
        ));
    }
    Ok(())
}

/// Certifies a mesh plan: carried plus blocked is exactly the demanded
/// multiset, every route is a path between its demand's endpoints, the
/// carried partition is valid and costed right (ports = Σ|T_i|), and no
/// node exceeds its add/drop or switching capacity.
pub fn mesh(
    topology: &Topology,
    demands: &DemandSet,
    k: usize,
    plan: &Plan,
) -> Result<Quality, String> {
    let Plan::Mesh {
        outcome,
        carried,
        routes,
        blocked,
        ..
    } = plan
    else {
        return Err("a mesh instance must yield a mesh plan".into());
    };
    let mut want: Vec<(u32, u32)> = demand_pairs(demands);
    let mut got: Vec<(u32, u32)> = demand_pairs(carried);
    got.extend(blocked.iter().map(|p| (p.lo().0, p.hi().0)));
    want.sort_unstable();
    got.sort_unstable();
    if want != got {
        return Err(format!(
            "carried {} + blocked {} is not the {} demanded pairs",
            carried.len(),
            blocked.len(),
            demands.len()
        ));
    }
    if routes.len() != carried.len() {
        return Err(format!(
            "{} routes for {} carried demands",
            routes.len(),
            carried.len()
        ));
    }
    for (p, r) in carried.pairs().iter().zip(routes) {
        route(topology, *p, r)?;
    }
    let pairs = demand_pairs(carried);
    let parts = outcome.partition.parts();
    let q = partition(
        topology.num_nodes(),
        &pairs,
        k,
        parts,
        outcome.report.sadm_total,
        outcome.report.wavelengths,
    )?;
    capacities(topology, &pairs, routes, parts)?;
    Ok(q)
}

/// Per part, a node spends one port if a member demand ends there and one
/// unit of switching if a member route only passes through it.
pub fn capacities(
    topology: &Topology,
    pairs: &[(u32, u32)],
    routes: &[RoutePath],
    parts: &[Vec<EdgeId>],
) -> Result<(), String> {
    let n = topology.num_nodes();
    let mut ports = vec![0u64; n];
    let mut switch = vec![0u64; n];
    let mut terminal = vec![usize::MAX; n];
    let mut transit = vec![usize::MAX; n];
    for (i, part) in parts.iter().enumerate() {
        for &e in part {
            let (u, v) = pairs[e.index()];
            for x in [u as usize, v as usize] {
                if terminal[x] != i {
                    terminal[x] = i;
                    ports[x] += 1;
                }
            }
        }
        for &e in part {
            for &v in &routes[e.index()].nodes {
                let v = v.index();
                if terminal[v] != i && transit[v] != i {
                    transit[v] = i;
                    switch[v] += 1;
                }
            }
        }
    }
    for v in 0..n {
        let caps = topology.caps(NodeId::new(v));
        if ports[v] > u64::from(caps.add_drop_ports) {
            return Err(format!(
                "node {v} uses {} add/drop ports of {}",
                ports[v], caps.add_drop_ports
            ));
        }
        if switch[v] > u64::from(caps.switch_capacity) {
            return Err(format!(
                "node {v} switches {} wavelengths of {}",
                switch[v], caps.switch_capacity
            ));
        }
    }
    Ok(())
}

/// One `PLAN` line of a response, parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanLine {
    pub sadms: usize,
    pub wavelengths: usize,
}

/// Checks a wire response to request `id`: a `RESULT` header, one `PLAN`
/// line per expected plan with the same costs as the in-process solve,
/// `timed_out=false cancelled=false`, no `ERROR` or `REJECTED` line, and
/// a closing `END`.
pub fn wire_response(text: &str, id: u64, expected: &[PlanLine]) -> Result<(), String> {
    let mut lines = text.lines();
    let header = lines.next().unwrap_or_default();
    let want_header = format!("RESULT {id} count={}", expected.len());
    if header != want_header {
        return Err(format!("response header {header:?}, want {want_header:?}"));
    }
    for (i, want) in expected.iter().enumerate() {
        let line = lines.next().unwrap_or_default();
        let want_line = format!(
            "PLAN {i} sadms={} wavelengths={} timed_out=false cancelled=false",
            want.sadms, want.wavelengths
        );
        if line != want_line {
            return Err(format!("response line {line:?}, want {want_line:?}"));
        }
    }
    match (lines.next(), lines.next()) {
        (Some("END"), None) => Ok(()),
        (other, _) => Err(format!("response ends with {other:?}, want END")),
    }
}

#[cfg(test)]
mod tests {
    //! Each check is shown to fire on a deliberately broken plan, next to
    //! the unbroken plan it passes.

    use super::*;
    use grooming::algorithm::Algorithm;
    use grooming::solve::{Instance, SolveContext, Solver};
    use grooming_graph::generators;
    use grooming_graph::spanning::TreeStrategy;
    use grooming_graph::topology::NodeCaps;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const K: usize = 4;

    fn solved_upsr() -> (Graph, Plan) {
        let g = generators::gnm(14, 40, &mut StdRng::seed_from_u64(3));
        let plan = Algorithm::SpanTEuler(TreeStrategy::Bfs)
            .solve(&Instance::upsr(g.clone(), K), &mut SolveContext::seeded(5))
            .expect("upsr solves")
            .plan;
        (g, plan)
    }

    fn parts_of(plan: &Plan) -> Vec<Vec<EdgeId>> {
        plan.partition().expect("has a partition").parts().to_vec()
    }

    fn check(g: &Graph, parts: &[Vec<EdgeId>], sadms: usize, w: usize) -> Result<Quality, String> {
        partition(g.num_nodes(), &graph_pairs(g), K, parts, sadms, w)
    }

    #[test]
    fn a_solved_plan_passes() {
        let (g, plan) = solved_upsr();
        let q = upsr(&g, K, &plan).expect("valid plan");
        assert_eq!(q.carried, 40);
        assert_eq!(q.sadms, plan.sadm_cost() as u64);
    }

    #[test]
    fn an_uncovered_demand_fires() {
        let (g, plan) = solved_upsr();
        let mut parts = parts_of(&plan);
        parts[0].pop();
        let err = check(&g, &parts, plan.sadm_cost(), plan.wavelengths()).unwrap_err();
        assert!(err.contains("not covered"), "{err}");
    }

    #[test]
    fn a_twice_covered_demand_fires() {
        let (g, plan) = solved_upsr();
        let mut parts = parts_of(&plan);
        let e = parts[1][0];
        parts[0][0] = e;
        let err = check(&g, &parts, plan.sadm_cost(), plan.wavelengths()).unwrap_err();
        assert!(err.contains("covered twice"), "{err}");
    }

    #[test]
    fn an_oversized_part_fires() {
        let (g, plan) = solved_upsr();
        let mut parts = parts_of(&plan);
        let moved = parts.pop().expect("several parts");
        parts[0].extend(moved);
        let err = check(&g, &parts, plan.sadm_cost(), plan.wavelengths()).unwrap_err();
        assert!(err.contains("k = 4"), "{err}");
    }

    #[test]
    fn a_misreported_cost_fires() {
        let (g, plan) = solved_upsr();
        let parts = parts_of(&plan);
        let err = check(&g, &parts, plan.sadm_cost() - 1, plan.wavelengths()).unwrap_err();
        assert!(err.contains("SADMs"), "{err}");
        let err = check(&g, &parts, plan.sadm_cost(), plan.wavelengths() + 1).unwrap_err();
        assert!(err.contains("wavelengths"), "{err}");
    }

    #[test]
    fn costs_below_the_floors_fire() {
        let (g, _) = solved_upsr();
        let pairs = graph_pairs(&g);
        let below_degree = Quality {
            sadms: 1,
            carried: 40,
            wavelengths: 10,
            min_wavelengths: 10,
        };
        let err = floors(g.num_nodes(), &pairs, K, below_degree).unwrap_err();
        assert!(err.contains("degree floor"), "{err}");
        let below_wavelengths = Quality {
            sadms: 1000,
            wavelengths: 9,
            ..below_degree
        };
        let err = floors(g.num_nodes(), &pairs, K, below_wavelengths).unwrap_err();
        assert!(err.contains("below the floor"), "{err}");
    }

    fn metro() -> (Topology, DemandSet, Plan) {
        let graph = generators::grid(4, 4);
        let links = graph.num_edges();
        let topology = Topology::new(graph, vec![1; links], vec![NodeCaps::new(6, 12); 16]);
        let demands = DemandSet::random(16, 40, &mut StdRng::seed_from_u64(8));
        let plan = Algorithm::SpanTEulerRefined(TreeStrategy::Bfs)
            .solve(
                &Instance::mesh(topology.clone(), demands.clone(), K, 3),
                &mut SolveContext::seeded(2),
            )
            .expect("grid routes every pair")
            .plan;
        (topology, demands, plan)
    }

    #[test]
    fn a_mesh_plan_passes_and_broken_routes_fire() {
        let (topology, demands, plan) = metro();
        let q = mesh(&topology, &demands, K, &plan).expect("valid mesh plan");
        let Plan::Mesh {
            carried, routes, ..
        } = &plan
        else {
            unreachable!("mesh plan")
        };
        assert_eq!(q.carried, carried.len() as u64);
        let (i, long) = routes
            .iter()
            .enumerate()
            .find(|(_, r)| r.links.len() >= 2)
            .expect("a multi-hop route");
        let pair = carried.pairs()[i];
        route(&topology, pair, long).expect("the solver's route is valid");
        let mut r = long.clone();
        r.links.swap(0, 1);
        let err = route(&topology, pair, &r).unwrap_err();
        assert!(err.contains("does not join"), "{err}");
        let mut r = long.clone();
        r.length += 1;
        assert!(route(&topology, pair, &r).unwrap_err().contains("length"));
        let other = carried
            .pairs()
            .iter()
            .copied()
            .find(|p| p.lo() != pair.lo() && p.hi() != pair.hi())
            .expect("a pair with other endpoints");
        let err = route(&topology, other, long).unwrap_err();
        assert!(err.contains("runs"), "{err}");
    }

    #[test]
    fn exceeded_capacities_fire() {
        let (topology, demands, plan) = metro();
        let tight = Topology::new(
            topology.graph().clone(),
            topology.weights().to_vec(),
            vec![NodeCaps::new(1, 12); 16],
        );
        let err = mesh(&tight, &demands, K, &plan).unwrap_err();
        assert!(err.contains("add/drop ports"), "{err}");
        let no_transit = Topology::new(
            topology.graph().clone(),
            topology.weights().to_vec(),
            vec![NodeCaps::new(64, 0); 16],
        );
        let err = mesh(&no_transit, &demands, K, &plan).unwrap_err();
        assert!(err.contains("switches"), "{err}");
    }

    #[test]
    fn a_lost_demand_fires() {
        let (topology, demands, plan) = metro();
        let mut more = demands.clone();
        more.add(NodeId(0), NodeId(15));
        let err = mesh(&topology, &more, K, &plan).unwrap_err();
        assert!(err.contains("demanded"), "{err}");
    }

    #[test]
    fn warm_epochs_pass_and_costly_or_short_ones_fire() {
        let demands = DemandSet::random(12, 30, &mut StdRng::seed_from_u64(4));
        let prior_plan = Algorithm::SpanTEuler(TreeStrategy::Bfs)
            .solve(
                &Instance::ring(demands.clone(), K),
                &mut SolveContext::seeded(1),
            )
            .expect("ring solves")
            .plan;
        let prior = prior_plan.partition().expect("partition").clone();
        let delta = DemandDelta::new(
            vec![DemandPair::new(NodeId(0), NodeId(7))],
            vec![demands.pairs()[3]],
        );
        let post = apply_delta(&demands, &delta).expect("delta applies");
        let plan = Algorithm::SpanTEuler(TreeStrategy::Bfs)
            .solve(
                &Instance::reconfigure(demands.clone(), prior, delta, K),
                &mut SolveContext::seeded(1),
            )
            .expect("warm start")
            .plan;
        let prior_sadms = prior_plan.sadm_cost() as u64;
        warm(&post, prior_sadms, 1, K, &plan).expect("never worse");
        let err = warm(&post, plan.sadm_cost() as u64 - 3, 1, K, &plan).unwrap_err();
        assert!(err.contains("above prior"), "{err}");
        // The plan checked against demands that lack the added pair.
        let short = apply_delta(
            &demands,
            &DemandDelta::new(Vec::new(), vec![demands.pairs()[3]]),
        )
        .expect("removal applies");
        let err = warm(&short, prior_sadms, 1, K, &plan).unwrap_err();
        assert!(err.contains("names demand 29 of 29"), "{err}");
    }

    #[test]
    fn wire_lines_must_match_the_in_process_solve() {
        let want = [PlanLine {
            sadms: 9,
            wavelengths: 2,
        }];
        let good =
            "RESULT 7 count=1\nPLAN 0 sadms=9 wavelengths=2 timed_out=false cancelled=false\nEND\n";
        wire_response(good, 7, &want).expect("matching response");
        let other_cost = good.replace("sadms=9", "sadms=10");
        assert!(wire_response(&other_cost, 7, &want).is_err());
        let timed_out = good.replace("timed_out=false", "timed_out=true");
        assert!(wire_response(&timed_out, 7, &want).is_err());
        let error = "RESULT 7 count=1\nERROR 0 solve failed\nEND\n";
        assert!(wire_response(error, 7, &want).is_err());
        let rejected = "REJECTED 7 queue_full depth=3 cost=9\n";
        assert!(wire_response(rejected, 7, &want).is_err());
    }
}
