//! `serve_wire`: groomd over loopback TCP, one connection, closed loop;
//! plus the service-layer probe the other workloads reuse.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use grooming::algorithm::Algorithm;
use grooming::portfolio::DEFAULT_PORTFOLIO;
use grooming::solve::{Instance, Plan, PortfolioSolver, SolveContext, Solver};
use grooming_graph::generators;
use grooming_service::protocol::{
    format_batch_request, format_batch_response, format_reconfigure_request, parse_request,
    WireRequest,
};
use grooming_service::tcp::{self, TcpServer};
use grooming_service::{
    instance_digest, item_seed, Client, Request, RequestOptions, Service, ServiceConfig,
};
use grooming_sim::Scenario;
use grooming_sonet::demand::DemandSet;

use crate::certify::{self, PlanLine, Quality};
use crate::corpus::{self, metro_grid, K};
use crate::layers::{self, Probe};
use crate::run::{self, Passes, Verdict};
use crate::stats::{self, median, Metrics};

/// A groomd instance with its default configuration (one worker per core,
/// the default solve cache) behind a loopback listener, and one client
/// connection to it.
pub struct Groomd {
    service: Service,
    server: TcpServer,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Groomd {
    pub fn start() -> Groomd {
        let service = Service::start(ServiceConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let server = tcp::serve(listener, &service).expect("start the poller");
        let stream = TcpStream::connect(server.addr()).expect("connect to groomd");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let reader = BufReader::new(stream.try_clone().expect("clone the stream"));
        Groomd {
            service,
            server,
            stream,
            reader,
        }
    }

    /// Sends one request block and reads its whole reply; returns the
    /// reply and the round trip in milliseconds.
    pub fn round_trip(&mut self, wire: &str) -> (String, f64) {
        let t = Instant::now();
        self.stream
            .write_all(wire.as_bytes())
            .expect("groomd accepts the request");
        let mut reply = String::new();
        loop {
            let before = reply.len();
            let n = self
                .reader
                .read_line(&mut reply)
                .expect("groomd answers the request");
            assert!(n > 0, "groomd hung up mid-reply");
            let line = &reply[before..];
            if !reply.starts_with("RESULT") || line == "END\n" {
                break;
            }
        }
        (reply, stats::ms_since(t))
    }

    pub fn service(&self) -> &Service {
        &self.service
    }

    /// Graceful stop: `SHUTDOWN` on the wire, then join the poller and
    /// the workers.
    pub fn stop(mut self) {
        let (bye, _) = self.round_trip("SHUTDOWN\n");
        assert_eq!(bye, "BYE\n", "groomd acknowledges SHUTDOWN");
        drop(self.reader);
        drop(self.stream);
        self.server.join();
        self.service.shutdown();
    }
}

fn wire_text(request: &Request, reconfigure: bool) -> String {
    if reconfigure {
        format_reconfigure_request(request)
    } else {
        format_batch_request(request)
    }
    .expect("benchmark items are wire-expressible")
}

/// The service layers taken apart, request by request: the wire parser,
/// the same request through an in-process `Client`, and the response
/// encoder, next to the TCP round trip. `finish` adds the queue-wait and
/// solve-time histogram means, the cache hit share and the TCP share.
pub struct ServiceProbe {
    groomd: Groomd,
    inproc: Service,
    client: Client,
    next_id: u64,
    rtt_ms: Vec<f64>,
    inproc_ms: Vec<f64>,
}

impl ServiceProbe {
    pub fn start() -> Self {
        let inproc = Service::start(ServiceConfig::default());
        let client = Client::new(&inproc);
        ServiceProbe {
            groomd: Groomd::start(),
            inproc,
            client,
            next_id: 1,
            rtt_ms: Vec::new(),
            inproc_ms: Vec::new(),
        }
    }

    /// One request through every service layer. The TCP reply must be
    /// byte-identical to the in-process transcript.
    pub fn request(
        &mut self,
        probe: &mut Probe,
        verdict: &mut Verdict,
        items: Vec<Instance>,
        algo: Option<Algorithm>,
        reconfigure: bool,
    ) {
        let id = self.next_id;
        self.next_id += 1;
        let request = Request {
            id,
            items,
            deadline: None,
            algo,
        };
        let wire = wire_text(&request, reconfigure);
        let (reply, rtt) = self.groomd.round_trip(&wire);
        self.rtt_ms.push(rtt);
        self.layers(probe, verdict, request, &wire, &reply);
    }

    /// Parses, solves in-process and encodes one request whose TCP reply
    /// is already known.
    fn layers(
        &mut self,
        probe: &mut Probe,
        verdict: &mut Verdict,
        request: Request,
        wire: &str,
        reply: &str,
    ) {
        let config = self.groomd.service().config().clone();
        let parsed = probe.time("service.parse_us", || {
            let mut lines = wire.lines().map(|l| Ok(l.to_string()));
            let first = lines.next().expect("a verb line").expect("in memory");
            parse_request(&first, &mut lines, &config)
        });
        match parsed {
            Ok(WireRequest::Batch(r)) if r.items.len() == request.items.len() => {}
            other => verdict.fail(format!("request {} parsed to {other:?}", request.id)),
        }
        let mut options = RequestOptions::default().with_id(request.id);
        options.algo = request.algo;
        let t = Instant::now();
        let response = self
            .client
            .solve_batch(request.items, options)
            .expect("the in-process service admits the request");
        let ms = stats::ms_since(t);
        probe.sample("service.inproc_ms", ms);
        self.inproc_ms.push(ms);
        let text = probe.time("service.encode_us", || format_batch_response(&response));
        if text != reply {
            verdict.fail(format!(
                "TCP reply {reply:?} differs from the in-process transcript {text:?}"
            ));
        }
    }

    /// Reads the service's own histograms and counters, then stops both
    /// services.
    pub fn finish(self, probe: &mut Probe, verdict: &mut Verdict) {
        let stats = self.groomd.service().stats();
        probe.sample(
            "service.queue_wait_us",
            stats.queue_wait.mean().as_secs_f64() * 1e3,
        );
        probe.sample(
            "service.solve_time_us",
            stats.solve_time.mean().as_secs_f64() * 1e3,
        );
        let c = &stats.counters;
        let lookups = (c.cache_hits + c.cache_misses).max(1);
        probe.sample(
            "service.cache_hit_share",
            c.cache_hits as f64 / lookups as f64,
        );
        if c.failed_items + c.timed_out_items + c.rejected_requests + c.shed_requests > 0 {
            verdict.fail(format!("groomd failed, timed out or refused items: {c:?}"));
        }
        if !self.rtt_ms.is_empty() {
            probe.sample(
                "service.tcp_ms",
                median(&self.rtt_ms) - median(&self.inproc_ms),
            );
        }
        self.groomd.stop();
        self.inproc.shutdown();
    }
}

/// One request of the `serve_wire` stream.
struct Wire {
    items: Vec<Instance>,
    reconfigure: bool,
}

/// Items a pass adds to the solve cache must exceed its 1024-plan
/// capacity, so that every pass starts cold and hits only on the
/// in-stream repeats.
const BATCHES: usize = 300;
const RECONFIGURES: usize = 40;
const ITEMS_PER_REQUEST: usize = 4;

/// Size classes of the `BATCH` requests, cycled in order.
const CLASSES: u64 = 6;

/// The `serve_wire` request stream: 300 `BATCH` requests, each one fresh
/// default-solver item of every kind plus one repeat. Batch `b` is of size
/// class `c = b mod 6`: a ring item (16 nodes, 16 + 20c demands), an upsr
/// item (gnm, 16 + 4c nodes, 32 + 24c edges) and a mesh item (4×4 grid,
/// 8 ports and 16 switch units per node, 16 + 20c demands, 3 routes).
/// From the second batch on the fourth item repeats the previous batch's
/// ring item. Two requests in every 17 are a `RECONFIGURE` of 4
/// consecutive groomsim epochs (16-node ring at k = 8).
///
/// groomd's poller ticks every 2 ms when idle, which quantizes round
/// trips; the size classes spread batch solve times over several ticks so
/// that the latency figures do not snap between tick multiples.
fn stream(seed: u64) -> (Vec<Wire>, f64, u64) {
    let grid = metro_grid(4, 8, 16);
    let mut fresh = 0u64;
    let mut item = |kind: u64, class: u64| {
        let mut rng = corpus::rng(seed, 10, fresh);
        fresh += 1;
        let units = (16 + 20 * class) as usize;
        match kind {
            0 => Instance::ring(DemandSet::random(16, units, &mut rng), K),
            1 => Instance::upsr(
                generators::gnm(
                    (16 + 4 * class) as usize,
                    (32 + 24 * class) as usize,
                    &mut rng,
                ),
                K,
            ),
            _ => Instance::mesh(grid.clone(), DemandSet::random(16, units, &mut rng), K, 3),
        }
    };
    let mut scenario = Scenario::ring(16, 8).with_offered_erlangs(60.0);
    scenario.horizon = 8_000;
    scenario.master_seed = corpus::derive(seed, 11, 0);
    let t = Instant::now();
    let sim = grooming_sim::run_recording(&scenario);
    let sim_ms = stats::ms_since(t);
    assert!(
        sim.epochs.len() >= RECONFIGURES * ITEMS_PER_REQUEST,
        "the recording holds enough epochs"
    );
    let mut epochs = sim.epochs.into_iter();

    let mut requests = Vec::with_capacity(BATCHES + RECONFIGURES);
    let mut previous_first: Option<Instance> = None;
    let mut batch = 0u64;
    for j in 0..BATCHES + RECONFIGURES {
        if j % 17 == 8 || j % 17 == 16 {
            requests.push(Wire {
                items: epochs.by_ref().take(ITEMS_PER_REQUEST).collect(),
                reconfigure: true,
            });
            continue;
        }
        let class = batch % CLASSES;
        batch += 1;
        let mut items: Vec<Instance> = (0..3).map(|kind| item(kind, class)).collect();
        items.push(previous_first.take().unwrap_or_else(|| item(0, class)));
        previous_first = Some(items[0].clone());
        requests.push(Wire {
            items,
            reconfigure: false,
        });
    }
    (requests, sim_ms, sim.report.epochs)
}

/// What groomd must answer for `instance`: the default portfolio on the
/// item's content-derived seed, as the service's determinism contract
/// promises.
fn in_process(instance: &Instance) -> Plan {
    let seed = item_seed(
        ServiceConfig::default().master_seed,
        instance_digest(instance, None),
    );
    PortfolioSolver {
        portfolio: &DEFAULT_PORTFOLIO,
        restarts: 0,
        jobs: 1,
        master_seed: Some(seed),
    }
    .solve(instance, &mut SolveContext::seeded(seed))
    .expect("stream items always solve")
    .plan
}

fn certify_instance(instance: &Instance, plan: &Plan) -> Result<Quality, String> {
    match instance {
        Instance::Ring { demands, k } => certify::ring(demands, *k, plan),
        Instance::Upsr { graph, k } => certify::upsr(graph, *k, plan),
        Instance::Mesh {
            topology,
            demands,
            k,
            ..
        } => certify::mesh(topology, demands, *k, plan),
        Instance::Reconfigure {
            demands,
            prior,
            delta,
            k,
        } => {
            let pairs = certify::demand_pairs(demands);
            let prior_sadms = certify::sadms(demands.num_nodes(), &pairs, prior.parts());
            let post = certify::apply_delta(demands, delta)?;
            certify::warm(&post, prior_sadms, delta.added.len(), *k, plan)
        }
        _ => Err("unexpected instance kind in the stream".into()),
    }
}

/// Runs `serve_wire`.
pub fn run(seed: u64, seconds: f64, trace: bool) -> (Verdict, Metrics) {
    let ((requests, sim_ms, sim_epochs, mut groomd), setup_s) = run::repeated_setup(
        || {
            let (requests, sim_ms, sim_epochs) = stream(seed);
            (requests, sim_ms, sim_epochs, Groomd::start())
        },
        |(_, _, _, groomd)| groomd.stop(),
    );
    let wires: Vec<String> = requests
        .iter()
        .enumerate()
        .map(|(id, r)| {
            let request = Request {
                id: id as u64,
                items: r.items.clone(),
                deadline: None,
                algo: None,
            };
            wire_text(&request, r.reconfigure)
        })
        .collect();
    let mut verdict = Verdict::default();
    let items_per_pass: usize = requests.iter().map(|r| r.items.len()).sum();

    let mut first: Vec<String> = Vec::new();
    let mut mismatch = None;
    let start = Instant::now();
    let mut passes = Passes::new(requests.len()).with_work(items_per_pass);
    let mut traced = Passes::new(requests.len());
    let mut probe = Probe::default();
    let mut n = 0;
    while run::more(start, seconds, n, 2) {
        let mut times = vec![0.0; requests.len()];
        for (i, wire) in wires.iter().enumerate() {
            let (reply, ms) = groomd.round_trip(wire);
            times[i] = ms;
            if first.len() < wires.len() {
                first.push(reply);
            } else if first[i] != reply && mismatch.is_none() {
                mismatch = Some(format!(
                    "request {i} answered {reply:?}, first {:?}",
                    first[i]
                ));
            }
        }
        passes.record_pass(&times);
        if trace {
            let mut sp = ServiceProbe::start();
            let mut traced_times = vec![0.0; requests.len()];
            for (i, r) in requests.iter().enumerate() {
                sp.request(
                    &mut probe,
                    &mut verdict,
                    r.items.clone(),
                    None,
                    r.reconfigure,
                );
                traced_times[i] = *sp.rtt_ms.last().expect("one round trip");
            }
            traced.record_pass(&traced_times);
            sp.finish(&mut probe, &mut verdict);
            item_layers(&mut probe, &mut verdict, &requests, seed);
            probe.sample("sim.run_ms", sim_ms);
            probe.count("sim.epochs", sim_epochs);
            probe.end_pass();
        }
        n += 1;
    }
    if let Some(m) = mismatch {
        verdict.fail(m);
    }
    let stats = groomd.service().stats();
    let c = &stats.counters;
    if c.failed_items + c.timed_out_items + c.rejected_requests + c.shed_requests > 0 {
        verdict.fail(format!("groomd failed, timed out or refused items: {c:?}"));
    }
    let hits_per_pass = c.cache_hits as f64 / n as f64;
    groomd.stop();

    // Every reply of the first pass against the in-process solve of the
    // same items, each of those plans certified.
    let mut quality = Quality::default();
    for (i, (r, reply)) in requests.iter().zip(&first).enumerate() {
        let mut expected = Vec::new();
        for instance in &r.items {
            let plan = in_process(instance);
            if let Some(q) = verdict.check(certify_instance(instance, &plan)) {
                quality.add(q);
            }
            expected.push(PlanLine {
                sadms: plan.sadm_cost(),
                wavelengths: plan.wavelengths(),
            });
        }
        verdict.check(certify::wire_response(reply, i as u64, &expected));
    }
    println!("solve-cache hits per pass: {hits_per_pass}");
    verdict.attempted = passes.attempted();
    if trace {
        probe.set(
            "trace.overhead_ratio",
            traced.latency().0 / passes.latency().0,
        );
        return (verdict, probe.metrics());
    }
    (
        verdict,
        run::end_to_end(setup_s, &passes, quality, "request"),
    )
}

/// The core layers under the stream's planning items: bound, the
/// portfolio taken apart, assembly and routing, on the first 24 fresh
/// items of the stream.
fn item_layers(probe: &mut Probe, verdict: &mut Verdict, requests: &[Wire], seed: u64) {
    let fresh = requests
        .iter()
        .filter(|r| !r.reconfigure)
        .flat_map(|r| r.items.iter().take(ITEMS_PER_REQUEST - 1))
        .take(24);
    for (i, instance) in fresh.enumerate() {
        let master = corpus::derive(seed, 12, i as u64);
        match instance {
            Instance::Ring { demands, .. } => {
                let g = demands.to_traffic_graph();
                layers::bound_layer(probe, &g);
                layers::portfolio_layers(probe, &g, master, &DEFAULT_PORTFOLIO);
                let plan = in_process(instance);
                layers::assemble_layer(probe, demands, &plan);
                crate::warm::one_pair_probe(probe, verdict, demands, &plan, master);
            }
            Instance::Upsr { graph, .. } => {
                layers::bound_layer(probe, graph);
                layers::portfolio_layers(probe, graph, master, &DEFAULT_PORTFOLIO);
            }
            Instance::Mesh {
                topology,
                demands,
                routes,
                ..
            } => {
                layers::route_layer(probe, topology, demands, *routes);
                let plan = probe.time("core.mesh_solve_ms", || in_process(instance));
                if let Plan::Mesh { blocked, .. } = &plan {
                    probe.count("core.mesh.blocked", blocked.len() as u64);
                }
            }
            _ => {}
        }
    }
    for r in requests.iter().filter(|r| r.reconfigure) {
        for instance in &r.items {
            let plan = probe.time("core.warm_us", || in_process(instance));
            if let Plan::Reconfigure {
                parts_repaired,
                sadms_moved,
                ..
            } = plan
            {
                probe.count("core.warm.parts_repaired", parts_repaired);
                probe.count("core.warm.sadms_moved", sadms_moved);
            }
        }
    }
}
