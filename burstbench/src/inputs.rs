//! Input generation. Everything a run feeds the program — networks, delta
//! bursts, read targets — is drawn from the run's seed here, before any
//! timer starts. Bursts are generated against a shadow copy of the network,
//! so every delta is valid for the state its burst will meet.

use std::collections::VecDeque;

use netmodel::delta::{random_delta, NetworkDelta};
use netmodel::network::Network;
use netmodel::topology::{
    generate, generate_zoned, GeneratedNetwork, RandomNetworkConfig, TopologyKind,
    ZonedNetworkConfig,
};
use netmodel::HostId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Services per host and products per service in every workload.
const SERVICES: usize = 3;
const PRODUCTS_PER_SERVICE: usize = 4;
const VENDORS_PER_SERVICE: usize = 2;
const MEAN_DEGREE: usize = 6;

/// Cross-zone (gateway) links of the zoned instance.
pub const GATEWAY_LINKS: usize = 2;

/// Hops a zone-confined delta keeps from every boundary host, so that the
/// hosts it touches (the mutated hosts and their link peers) stay off the
/// boundary.
const CONFINED_DISTANCE: usize = 4;

/// Independent streams derived from the run seed.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Seed of the product-similarity matrix every run shares. The run seed
/// draws topology, deltas and read targets; the similarity matrix stands
/// for the vulnerability data all deployments share, and drawing it per
/// seed would move the objective by about 20% between seeds.
const SIMILARITY_SEED: u64 = 2020;

fn random_config(hosts: usize) -> RandomNetworkConfig {
    RandomNetworkConfig {
        hosts,
        mean_degree: MEAN_DEGREE,
        services: SERVICES,
        products_per_service: PRODUCTS_PER_SERVICE,
        vendors_per_service: VENDORS_PER_SERVICE,
        topology: TopologyKind::Random,
    }
}

/// Replaces the generated similarity matrix with the shared one. Every
/// generator registers the same catalog for the same service and product
/// counts, and draws the matrix first from its seed, so a one-host instance
/// drawn from [`SIMILARITY_SEED`] carries it.
fn shared_similarity(mut g: GeneratedNetwork) -> GeneratedNetwork {
    let shared = generate(&random_config(1), SIMILARITY_SEED);
    assert_eq!(shared.catalog.product_count(), g.catalog.product_count());
    g.similarity = shared.similarity;
    g
}

/// A random topology (`generate`): `hosts` hosts, mean degree 6,
/// 3 services × 4 products.
pub fn random_network(hosts: usize, seed: u64) -> GeneratedNetwork {
    shared_similarity(generate(&random_config(hosts), seed))
}

/// A two-zone topology (`generate_zoned`) of `2 · hosts_per_zone` hosts,
/// joined by [`GATEWAY_LINKS`] cross-zone links.
pub fn zoned_network(hosts_per_zone: usize, seed: u64) -> GeneratedNetwork {
    shared_similarity(generate_zoned(
        &ZonedNetworkConfig {
            zones: 2,
            hosts_per_zone,
            gateway_links: GATEWAY_LINKS,
            mean_degree: MEAN_DEGREE,
            services: SERVICES,
            products_per_service: PRODUCTS_PER_SERVICE,
            vendors_per_service: VENDORS_PER_SERVICE,
            topology: TopologyKind::Random,
        },
        seed,
    ))
}

/// Entry/target pairs of the MTTC scenarios.
pub const MTTC_PAIRS: usize = 16;

/// The MTTC scenarios' `(entry, target)` pairs, spread over the generated
/// id range: entry `k · n/16`, target `entry + n/32`. On the zoned instance
/// the first eight pairs lie in zone 0 and the last eight in zone 1.
pub fn mttc_pairs(g: &GeneratedNetwork) -> Vec<(HostId, HostId)> {
    let n = g.network.host_count();
    (0..MTTC_PAIRS)
        .map(|k| {
            let entry = k * n / MTTC_PAIRS;
            let target = entry + n / (2 * MTTC_PAIRS);
            (HostId(entry as u32), HostId(target as u32))
        })
        .collect()
}

/// The hosts every stream keeps alive: the MTTC entries and targets.
pub fn protected(g: &GeneratedNetwork) -> Vec<HostId> {
    mttc_pairs(g)
        .into_iter()
        .flat_map(|(a, b)| [a, b])
        .collect()
}

/// `count` bursts of `size` `random_delta` deltas each.
pub fn random_bursts(
    g: &GeneratedNetwork,
    count: usize,
    size: usize,
    seed: u64,
) -> Vec<Vec<NetworkDelta>> {
    let protect = protected(g);
    let mut shadow = g.network.clone();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            (0..size)
                .map(|_| {
                    let delta = random_delta(&shadow, &g.catalog, &mut rng, &protect);
                    shadow
                        .apply_delta(&delta, &g.catalog)
                        .expect("random_delta draws a delta valid for the shadow state");
                    delta
                })
                .collect()
        })
        .collect()
}

/// Bursts for the two-zone sharded workload. Burst `i` is a
/// *boundary burst* when `i % boundary_every == boundary_every - 1`: it
/// rewires one cross-zone link (removes one, adds another) and adds
/// `size - 2` zone-confined deltas. Every other burst is `size`
/// zone-confined deltas, alternating between the two zones. Confined deltas
/// only touch hosts at least [`CONFINED_DISTANCE`] hops from every boundary
/// host, and new hosts join an existing zone, so no shard opens or retires.
pub fn zoned_bursts(
    g: &GeneratedNetwork,
    count: usize,
    size: usize,
    boundary_every: usize,
    seed: u64,
) -> Vec<Vec<NetworkDelta>> {
    let protect = protected(g);
    let catalog = &g.catalog;
    let mut shadow = g.network.clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bursts = Vec::with_capacity(count);
    for i in 0..count {
        let mut burst = Vec::with_capacity(size);
        let boundary = i % boundary_every == boundary_every - 1;
        if boundary {
            for delta in cross_rewire(&shadow, &mut rng) {
                shadow
                    .apply_delta(&delta, catalog)
                    .expect("rewire is valid for the shadow state");
                burst.push(delta);
            }
        }
        let zone = format!("zone{}", i % 2);
        while burst.len() < size {
            let deep = deep_hosts(&shadow, &zone);
            let delta = confined_delta(&shadow, catalog, &deep, &zone, &protect, &mut rng);
            shadow
                .apply_delta(&delta, catalog)
                .expect("confined delta is valid for the shadow state");
            burst.push(delta);
        }
        bursts.push(burst);
    }
    bursts
}

fn zone_of(network: &Network, h: HostId) -> Option<&str> {
    network.host(h).ok().and_then(|host| host.zone())
}

fn is_cross(network: &Network, a: HostId, b: HostId) -> bool {
    zone_of(network, a) != zone_of(network, b)
}

/// Removes one existing cross-zone link and adds a new one between random
/// live hosts of the two zones.
fn cross_rewire(network: &Network, rng: &mut StdRng) -> [NetworkDelta; 2] {
    let cross: Vec<(HostId, HostId)> = network
        .links()
        .iter()
        .copied()
        .filter(|&(a, b)| is_cross(network, a, b))
        .collect();
    assert!(
        !cross.is_empty(),
        "the zoned instance keeps its gateway links"
    );
    let (a, b) = cross[rng.gen_range(0..cross.len())];
    let live_in = |zone: &str| -> Vec<HostId> {
        network
            .iter_hosts()
            .filter(|(_, h)| !h.is_removed() && h.zone() == Some(zone))
            .map(|(id, _)| id)
            .collect()
    };
    let (left, right) = (live_in("zone0"), live_in("zone1"));
    loop {
        let c = left[rng.gen_range(0..left.len())];
        let d = right[rng.gen_range(0..right.len())];
        if !network.linked(c, d) && (c, d) != (a, b) && (d, c) != (a, b) {
            return [
                NetworkDelta::remove_link(a, b),
                NetworkDelta::add_link(c, d),
            ];
        }
    }
}

/// Live hosts of `zone` at least [`CONFINED_DISTANCE`] hops from every
/// host that has a cross-zone link.
fn deep_hosts(network: &Network, zone: &str) -> Vec<HostId> {
    let mut depth = vec![usize::MAX; network.host_count()];
    let mut queue = VecDeque::new();
    for &(a, b) in network.links() {
        if is_cross(network, a, b) {
            for h in [a, b] {
                if depth[h.index()] != 0 {
                    depth[h.index()] = 0;
                    queue.push_back(h);
                }
            }
        }
    }
    while let Some(h) = queue.pop_front() {
        let d = depth[h.index()];
        if d + 1 >= CONFINED_DISTANCE {
            continue;
        }
        for &n in network.neighbors(h) {
            if depth[n.index()] == usize::MAX {
                depth[n.index()] = d + 1;
                queue.push_back(n);
            }
        }
    }
    network
        .iter_hosts()
        .filter(|(id, h)| {
            !h.is_removed() && h.zone() == Some(zone) && depth[id.index()] == usize::MAX
        })
        .map(|(id, _)| id)
        .collect()
}

/// One delta confined to the deep hosts of `zone`, with the same mix as
/// `random_delta`: link churn, slot mandates and their lifting, catalog
/// extensions, and host churn.
fn confined_delta(
    network: &Network,
    catalog: &netmodel::catalog::Catalog,
    deep: &[HostId],
    zone: &str,
    protect: &[HostId],
    rng: &mut StdRng,
) -> NetworkDelta {
    let pick = |rng: &mut StdRng| deep[rng.gen_range(0..deep.len())];
    loop {
        match rng.gen_range(0u32..12) {
            0..=2 => {
                let (a, b) = (pick(rng), pick(rng));
                if a != b && !network.linked(a, b) {
                    return NetworkDelta::add_link(a, b);
                }
            }
            3..=4 => {
                let a = pick(rng);
                let peers: Vec<HostId> = network
                    .neighbors(a)
                    .iter()
                    .copied()
                    .filter(|p| deep.binary_search(p).is_ok())
                    .collect();
                if !peers.is_empty() {
                    return NetworkDelta::remove_link(a, peers[rng.gen_range(0..peers.len())]);
                }
            }
            5..=6 => {
                let h = pick(rng);
                let inst =
                    &network.host(h).expect("deep host").services()[rng.gen_range(0..SERVICES)];
                if inst.candidates().len() >= 2 {
                    let p = inst.candidates()[rng.gen_range(0..inst.candidates().len())];
                    return NetworkDelta::fix_slot(h, inst.service(), p);
                }
            }
            7..=8 => {
                let h = pick(rng);
                let inst =
                    &network.host(h).expect("deep host").services()[rng.gen_range(0..SERVICES)];
                let full = catalog.products_of(inst.service());
                if full.len() > inst.candidates().len() {
                    return NetworkDelta::unfix_slot(h, inst.service(), full.to_vec());
                }
            }
            9 => {
                let h = pick(rng);
                let inst =
                    &network.host(h).expect("deep host").services()[rng.gen_range(0..SERVICES)];
                let missing: Vec<_> = catalog
                    .products_of(inst.service())
                    .iter()
                    .copied()
                    .filter(|p| !inst.candidates().contains(p))
                    .collect();
                if !missing.is_empty() {
                    let p = missing[rng.gen_range(0..missing.len())];
                    return NetworkDelta::extend_candidates(h, inst.service(), vec![p]);
                }
            }
            10 => {
                let h = pick(rng);
                if !protect.contains(&h) && deep.len() > 16 {
                    return NetworkDelta::remove_host(h);
                }
            }
            _ => {
                let services = catalog
                    .iter_services()
                    .map(|(sid, _)| (sid, catalog.products_of(sid).to_vec()))
                    .collect();
                let mut links = Vec::new();
                for _ in 0..rng.gen_range(1usize..=3) {
                    let peer = pick(rng);
                    if !links.contains(&peer) {
                        links.push(peer);
                    }
                }
                return NetworkDelta::AddHost {
                    name: format!("dyn{}", network.revision()),
                    zone: Some(zone.to_string()),
                    services,
                    links,
                };
            }
        }
    }
}

/// `count` uniformly drawn hosts among the first `hosts` ids (read targets).
pub fn read_targets(hosts: usize, count: usize, seed: u64) -> Vec<HostId> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| HostId(rng.gen_range(0..hosts) as u32))
        .collect()
}
