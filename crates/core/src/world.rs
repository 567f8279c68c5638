//! A harness assembling transports, capsules and system services into a
//! running ODP system.
//!
//! `World` exists for tests, examples and benchmarks: one call produces a
//! simulated network, `n` capsules, and a relocation service wired into
//! every capsule — the minimum infrastructure the paper's engineering model
//! assumes on every node. Everything it does is also possible by hand with
//! the public APIs of `odp-net` and this crate.

use crate::capsule::Capsule;
use crate::relocator::RelocationServant;
use odp_net::{LinkConfig, SimNet, SimNetConfig, Transport};
use odp_types::NodeId;
use odp_wire::InterfaceRef;
use std::sync::Arc;
use std::time::Duration;

/// Node id reserved for the system capsule hosting the relocator.
const SYSTEM_NODE: NodeId = NodeId(1);

/// Builder for [`World`].
#[derive(Debug, Clone)]
// odp-lint: allow(l8, reason = "returned by the public `World::builder`")
pub struct WorldBuilder {
    capsules: usize,
    link: LinkConfig,
    seed: u64,
    workers: usize,
}

impl Default for WorldBuilder {
    fn default() -> Self {
        Self {
            capsules: 2,
            link: LinkConfig::default(),
            seed: 0x0D9_1991,
            workers: 4,
        }
    }
}

impl WorldBuilder {
    /// Number of application capsules (excluding the system capsule).
    #[must_use]
    pub fn capsules(mut self, n: usize) -> Self {
        self.capsules = n;
        self
    }

    /// Default link characteristics for every link.
    #[must_use]
    pub fn link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }

    /// Uniform one-way latency on every link.
    #[must_use]
    pub fn latency(mut self, latency: Duration) -> Self {
        self.link.latency = latency;
        self
    }

    /// RNG seed for the network.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Dispatcher threads per capsule.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Builds the world.
    ///
    /// # Panics
    ///
    /// Panics if transport registration fails (cannot happen with fresh
    /// node ids).
    #[must_use]
    pub fn build(self) -> World {
        let net = SimNet::new(SimNetConfig {
            seed: self.seed,
            default_link: self.link,
        });
        let transport: Arc<dyn Transport> = Arc::new(net.clone());
        let system = Capsule::with_workers(Arc::clone(&transport), SYSTEM_NODE, self.workers)
            // odp-lint: allow(l1, reason = "world construction is setup, not a hot path; a fresh SimNet cannot already hold the system node")
            .expect("register system capsule");
        let relocator_servant = Arc::new(RelocationServant::new());
        let relocator_ref =
            system.export(Arc::clone(&relocator_servant) as Arc<dyn crate::Servant>);
        system.set_relocator(relocator_ref.clone());
        let mut capsules = Vec::with_capacity(self.capsules);
        for i in 0..self.capsules {
            let capsule = Capsule::with_workers(
                Arc::clone(&transport),
                NodeId(SYSTEM_NODE.raw() + 1 + i as u64),
                self.workers,
            )
            // odp-lint: allow(l1, reason = "world construction is setup, not a hot path; node ids are freshly enumerated")
            .expect("register capsule");
            capsule.set_relocator(relocator_ref.clone());
            capsules.push(capsule);
        }
        World {
            net,
            transport,
            system,
            relocator_servant,
            relocator_ref,
            capsules,
            workers: self.workers,
        }
    }
}

/// A running system: network + capsules + relocation service.
pub struct World {
    net: SimNet,
    transport: Arc<dyn Transport>,
    system: Arc<Capsule>,
    relocator_servant: Arc<RelocationServant>,
    relocator_ref: InterfaceRef,
    capsules: Vec<Arc<Capsule>>,
    workers: usize,
}

impl World {
    /// Starts building a world.
    #[must_use]
    pub fn builder() -> WorldBuilder {
        WorldBuilder::default()
    }

    /// A two-capsule world over a perfect network.
    #[must_use]
    pub fn quick() -> Self {
        Self::builder().build()
    }

    /// The simulated network (for fault injection and statistics).
    #[must_use]
    pub fn net(&self) -> &SimNet {
        &self.net
    }

    /// The transport handle (for registering extra endpoints).
    #[must_use]
    pub fn transport(&self) -> Arc<dyn Transport> {
        Arc::clone(&self.transport)
    }

    /// The system capsule (hosts the relocator).
    #[must_use]
    pub fn system(&self) -> &Arc<Capsule> {
        &self.system
    }

    /// Application capsule `i` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn capsule(&self, i: usize) -> &Arc<Capsule> {
        // odp-lint: allow(l1, reason = "documented panicking accessor for tests and experiments")
        &self.capsules[i]
    }

    /// All application capsules.
    #[must_use]
    pub fn capsules(&self) -> &[Arc<Capsule>] {
        &self.capsules
    }

    /// Reference to the relocation service.
    #[must_use]
    pub fn relocator(&self) -> InterfaceRef {
        self.relocator_ref.clone()
    }

    /// Direct handle to the relocation registry (tests / experiments).
    #[must_use]
    pub fn relocator_servant(&self) -> &Arc<RelocationServant> {
        &self.relocator_servant
    }

    /// Adds another application capsule at the next free node id.
    ///
    /// # Panics
    ///
    /// Panics if registration fails (duplicate node id — cannot happen via
    /// this method).
    pub fn add_capsule(&mut self) -> Arc<Capsule> {
        let node = NodeId(SYSTEM_NODE.raw() + 1 + self.capsules.len() as u64);
        let capsule = Capsule::with_workers(Arc::clone(&self.transport), node, self.workers)
            // odp-lint: allow(l1, reason = "documented panic: the next free node id cannot be a duplicate")
            .expect("register capsule");
        capsule.set_relocator(self.relocator_ref.clone());
        self.capsules.push(Arc::clone(&capsule));
        capsule
    }

    /// Creates (but does not track) a capsule at an explicit node id,
    /// already wired to the relocator. Chaos harnesses use this to restart
    /// a crashed node under the same identity: the transport frees a node
    /// id on endpoint shutdown, so re-registration succeeds once the old
    /// capsule is gone.
    ///
    /// # Errors
    ///
    /// Any [`odp_net::NetError`] from transport registration (e.g. the old
    /// endpoint still holds the node id).
    pub fn spawn_capsule_at(&self, node: NodeId) -> Result<Arc<Capsule>, odp_net::NetError> {
        let capsule = Capsule::with_workers(Arc::clone(&self.transport), node, self.workers)?;
        capsule.set_relocator(self.relocator_ref.clone());
        Ok(capsule)
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("capsules", &self.capsules.len())
            .finish()
    }
}
