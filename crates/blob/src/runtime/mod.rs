//! Runtime adapters: drive the runtime-agnostic services on either the
//! deterministic cluster simulator ([`sim`]) or real threads with real
//! bytes ([`threaded`]). Both are a [`Host`]; [`wire`] starts BlobSeer on
//! either, and one [`Providers`] book starts and revives a deployment's
//! data providers.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use sads_sim::{NodeConfig, NodeId, Registry};

use crate::client::ClientConfig;
use crate::services::{DataProviderService, MetaProviderService, Service, ServiceConfig};
use crate::storage::{BackendConfig, BackendSpec};

mod executor;
pub mod sim;
pub mod threaded;

/// A runtime BlobSeer and the self-* layers deploy onto.
pub trait Host {
    /// Start `service` as a new node. `nic` is its simulated NIC; real
    /// threads have no NIC model.
    fn start(&mut self, service: Box<dyn Service>, nic: NodeConfig) -> NodeId;
    /// The metrics registry every node writes (the alert engine reads it).
    fn registry(&self) -> Arc<Registry>;
    /// Point the host's own clients, and the data providers it adds or
    /// restarts itself (wired by `cfg`), at `blob`.
    fn bind(&mut self, blob: &BlobSeer, cfg: ServiceConfig, client_cfg: ClientConfig);
}

/// Builds every data provider of one deployment: at start, on a manual
/// scale-up, from the deploy agent and on a restart, on either host. Each
/// fresh provider takes the next backend directory, and a restart
/// re-opens the one its address was given. Clones share the book.
#[derive(Clone)]
pub struct Providers {
    pman: NodeId,
    capacity: u64,
    backend: BackendSpec,
    /// The next backend ordinal, and the backend each address was given.
    book: Arc<Mutex<(usize, HashMap<NodeId, BackendConfig>)>>,
}

impl Providers {
    /// An empty book of providers of `capacity` bytes that register with
    /// `pman`, each under its own directory of `backend`.
    pub fn new(pman: NodeId, capacity: u64, backend: BackendSpec) -> Self {
        Providers { pman, capacity, backend, book: Arc::default() }
    }

    /// The provider manager its providers register with.
    pub fn pman(&self) -> NodeId {
        self.pman
    }

    /// Start a fresh provider wired by `cfg` through `start`.
    pub fn start(
        &self,
        mut cfg: ServiceConfig,
        start: impl FnOnce(Box<dyn Service>) -> NodeId,
    ) -> NodeId {
        let ordinal = {
            let next = &mut self.book.lock().0;
            *next += 1;
            *next - 1
        };
        cfg.backend = self.backend.for_provider(ordinal);
        let backend = cfg.backend.clone();
        let node = start(Box::new(DataProviderService::new(self.pman, self.capacity, cfg)));
        self.book.lock().1.insert(node, backend);
        node
    }

    /// A provider for `node`'s address, re-opening the backend it was
    /// given (the memory backend comes back empty).
    pub fn revive(&self, node: NodeId, mut cfg: ServiceConfig) -> Box<dyn Service> {
        if let Some(b) = self.book.lock().1.get(&node) {
            cfg.backend = b.clone();
        }
        Box::new(DataProviderService::new(self.pman, self.capacity, cfg))
    }
}

/// BlobSeer's own nodes as [`wire`] started them, and the book their data
/// providers come from.
pub struct BlobSeer {
    /// The provider manager.
    pub pman: NodeId,
    /// The version manager.
    pub vman: NodeId,
    /// The metadata providers, in partition order.
    pub meta: Vec<NodeId>,
    /// The data providers.
    pub data: Vec<NodeId>,
    /// Starts and revives the data providers.
    pub providers: Providers,
}

/// Start BlobSeer on `host` after its running provider manager
/// (`providers.pman()`), in this order: `vman` on an unlimited NIC, then
/// `meta.0` metadata providers of `meta.1` bytes and `data` providers from
/// `providers`, on default NICs. `cfg` wires each node in turn, the
/// version manager's excepted.
pub fn wire(
    host: &mut impl Host,
    vman: Box<dyn Service>,
    meta: (usize, u64),
    data: usize,
    providers: Providers,
    mut cfg: impl FnMut() -> ServiceConfig,
) -> BlobSeer {
    let (pman, nic) = (providers.pman, NodeConfig::default());
    let vman = host.start(vman, NodeConfig::unlimited());
    let meta = (0..meta.0)
        .map(|_| host.start(Box::new(MetaProviderService::new(pman, meta.1, cfg())), nic))
        .collect();
    let data = (0..data).map(|_| providers.start(cfg(), |s| host.start(s, nic))).collect();
    BlobSeer { pman, vman, meta, data, providers }
}
