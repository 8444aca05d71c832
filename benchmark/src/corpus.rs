//! Input generation. Every input is a pure function of the workload seed;
//! the program under test only ever sees the generated instances.

use grooming::solve::Instance;
use grooming_graph::generators;
use grooming_graph::graph::Graph;
use grooming_graph::topology::{NodeCaps, Topology};
use grooming_sonet::demand::DemandSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The grooming factor of every planning item (OC-3 into OC-48).
pub const K: usize = 16;

/// An independent seed for input `index` of stream `tag` under `seed`
/// (a SplitMix64 finalizer over the three, so neighbouring seeds share
/// nothing).
pub fn derive(seed: u64, tag: u64, index: u64) -> u64 {
    let mut x =
        seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// An RNG seeded by [`derive`].
pub fn rng(seed: u64, tag: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(derive(seed, tag, index))
}

/// The three traffic-graph families, all at average degree 6 (m ≈ 3n):
/// `gnm`, Chung–Lu `power_law` with exponent 2.5, and
/// `random_geometric` with radius √(6/(πn)).
#[derive(Clone, Copy, Debug)]
pub enum Family {
    Gnm,
    PowerLaw,
    Geometric,
}

impl Family {
    pub const ALL: [Family; 3] = [Family::Gnm, Family::PowerLaw, Family::Geometric];

    pub fn generate(self, n: usize, rng: &mut StdRng) -> Graph {
        match self {
            Family::Gnm => generators::gnm(n, 3 * n, rng),
            Family::PowerLaw => generators::power_law(n, 2.5, 6.0, rng),
            Family::Geometric => generators::random_geometric(
                n,
                (6.0 / (std::f64::consts::PI * n as f64)).sqrt(),
                rng,
            ),
        }
    }
}

/// One planning input together with what the certifier needs to check
/// its plan.
#[derive(Clone)]
pub enum Item {
    /// A bare traffic graph (`Instance::Upsr`).
    Upsr { graph: Graph },
    /// A ring demand set (`Instance::Ring`).
    Ring { demands: DemandSet },
    /// Demands routed over a capacitated mesh (`Instance::Mesh`).
    Mesh {
        topology: Topology,
        demands: DemandSet,
        routes: usize,
    },
}

impl Item {
    pub fn instance(&self) -> Instance {
        match self {
            Item::Upsr { graph } => Instance::upsr(graph.clone(), K),
            Item::Ring { demands } => Instance::ring(demands.clone(), K),
            Item::Mesh {
                topology,
                demands,
                routes,
            } => Instance::mesh(topology.clone(), demands.clone(), K, *routes),
        }
    }

    /// The traffic graph the partition layers see (for mesh: the
    /// demanded pairs, before any blocking).
    pub fn traffic_graph(&self) -> Graph {
        match self {
            Item::Upsr { graph } => graph.clone(),
            Item::Ring { demands } | Item::Mesh { demands, .. } => demands.to_traffic_graph(),
        }
    }

    /// The demand set the ring assembly layer sees.
    pub fn demand_set(&self) -> DemandSet {
        match self {
            Item::Upsr { graph } => DemandSet::from_traffic_graph(graph),
            Item::Ring { demands } | Item::Mesh { demands, .. } => demands.clone(),
        }
    }
}

/// A `side × side` metro grid with uniform finite node capacities.
pub fn metro_grid(side: usize, ports: u32, switch: u32) -> Topology {
    let graph = generators::grid(side, side);
    let links = graph.num_edges();
    let n = graph.num_nodes();
    Topology::new(graph, vec![1; links], vec![NodeCaps::new(ports, switch); n])
}

/// `plan_portfolio`: 20 mid-size traffic graphs (the three families in
/// turn, n = 300) and 60 ring demand sets (32 nodes, 192 demands). The
/// two kinds differ tenfold in cost; with these counts the latency median
/// sits well inside the ring items' cluster and the tail (ten items
/// above it) in the middle of the graphs'.
pub fn portfolio_corpus(seed: u64) -> Vec<Item> {
    let graphs = (0..20u64).map(|i| Item::Upsr {
        graph: Family::ALL[i as usize % 3].generate(300, &mut rng(seed, 1, i)),
    });
    let rings = (0..60u64).map(|i| Item::Ring {
        demands: DemandSet::random(32, 192, &mut rng(seed, 2, i)),
    });
    graphs.chain(rings).collect()
}

/// `plan_scale`: two graphs large enough for the refine engine's sparse
/// incidence (gnm and geometric, n = 8000), 14 mid-size graphs (gnm and
/// geometric at n = 3000, power-law at n = 1500) and 24 metro-grid mesh
/// items (10×10 grid, 12 ports and 48 switch units per node, 4 Yen
/// routes per demand, 256–512 demands: below the grid's 1% blocking
/// load of about 1000).
pub fn scale_corpus(seed: u64) -> Vec<Item> {
    let mut items = vec![
        Item::Upsr {
            graph: Family::Gnm.generate(8000, &mut rng(seed, 3, 100)),
        },
        Item::Upsr {
            graph: Family::Geometric.generate(8000, &mut rng(seed, 3, 101)),
        },
    ];
    for i in 0..14u64 {
        let family = Family::ALL[i as usize % 3];
        let n = match family {
            Family::PowerLaw => 1500,
            _ => 3000,
        };
        items.push(Item::Upsr {
            graph: family.generate(n, &mut rng(seed, 3, i)),
        });
    }
    let topology = metro_grid(10, 12, 48);
    for i in 0..24u64 {
        let load = [256, 384, 512][i as usize % 3];
        items.push(Item::Mesh {
            topology: topology.clone(),
            demands: DemandSet::random(100, load, &mut rng(seed, 4, i)),
            routes: 4,
        });
    }
    items
}
