//! The networked stack every workload runs on, built from public APIs
//! only:
//!
//! `FrontClient → front ShardServer → FrontDoor → ObjectStore →
//! RemoteDisk → shard ShardServer → MemDisk`
//!
//! One `ShardServer` per disk of the scheme, each over
//! `MemDisk::with_latency`, and one front node
//! (`ShardServer::spawn_with_front`) over a `FrontDoor` with the `serve`
//! defaults (32 MiB cache, admission on) and one latency-class tenant.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ecfrm_codes::RsCode;
use ecfrm_core::{LayoutKind, Scheme};
use ecfrm_net::{FrontClient, RemoteDisk, RemoteDiskConfig, ShardServer};
use ecfrm_sim::{DiskBackend, MemDisk, ThreadedArray};
use ecfrm_store::{
    FrontConfig, FrontDoor, ObjectStore, QosClass, RepairConfig, RepairManager, StoreError,
    TenantSpec,
};

use crate::trace::{Seam, Traced, Tracer};

/// The one tenant every workload runs as.
pub const TENANT: &str = "bench";

/// Timeout of the load generator's client connections. Generous: a
/// timeout counts as a failed operation, never as a retry.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

/// Longest a single rebuild may take before the run is declared broken.
const REBUILD_DEADLINE: Duration = Duration::from_secs(60);

/// Longest teardown waits for the servers to let go of their disks.
const TEARDOWN_DEADLINE: Duration = Duration::from_secs(2);

/// Shape of one stack.
#[derive(Debug, Clone)]
pub struct Shape {
    pub layout: LayoutKind,
    pub element: usize,
    pub disk_latency: Duration,
}

impl Shape {
    pub fn scheme(&self) -> Scheme {
        Scheme::builder(Arc::new(RsCode::vandermonde(6, 3)))
            .layout(self.layout)
            .build()
    }
}

/// One running stack. Dropping it stops every server.
pub struct Stack {
    pub shape: Shape,
    /// `None` once a shard server has been killed.
    shards: Vec<Option<ShardServer>>,
    /// The `MemDisk` behind each shard server.
    pub disks: Vec<Arc<MemDisk>>,
    /// The front node's client for each shard.
    pub remotes: Vec<Arc<RemoteDisk>>,
    pub front: Arc<FrontDoor>,
    pub front_server: ShardServer,
    /// The load generator's client: one pooled connection per generator
    /// thread (at most two).
    pub client: FrontClient,
    tracer: Option<Arc<Tracer>>,
}

impl Stack {
    /// Spawn every server and connect the client. With a tracer, the
    /// `DiskBackend` wrappers go around each shard's `MemDisk` and each
    /// front-side `RemoteDisk`.
    pub fn spawn(shape: &Shape, tracer: Option<&Arc<Tracer>>) -> std::io::Result<Self> {
        let scheme = shape.scheme();
        let n = scheme.n_disks();
        let mut shards = Vec::with_capacity(n);
        let mut disks = Vec::with_capacity(n);
        let mut remotes = Vec::with_capacity(n);
        let mut backends: Vec<Arc<dyn DiskBackend>> = Vec::with_capacity(n);
        for d in 0..n {
            let (server, disk, remote, backend) = spawn_shard(shape, tracer, d)?;
            shards.push(Some(server));
            disks.push(disk);
            remotes.push(remote);
            backends.push(backend);
        }
        let store = Arc::new(ObjectStore::with_array(
            scheme,
            shape.element,
            ThreadedArray::from_backends(backends),
        ));
        let front = FrontDoor::new(store, FrontConfig::default());
        front.register_tenant(TenantSpec::new(TENANT, QosClass::Latency));
        let front_server = ShardServer::spawn_with_front(
            Arc::new(MemDisk::new()),
            Arc::clone(&front),
            "127.0.0.1:0",
        )?;
        let client = FrontClient::new(
            front_server.addr(),
            RemoteDiskConfig::builder()
                .request_timeout(CLIENT_TIMEOUT)
                .pool_size(2)
                .build(),
        );
        Ok(Self {
            shape: shape.clone(),
            shards,
            disks,
            remotes,
            front,
            front_server,
            client,
            tracer: tracer.cloned(),
        })
    }

    pub fn store(&self) -> &Arc<ObjectStore> {
        self.front.store()
    }

    pub fn shard_servers(&self) -> impl Iterator<Item = &ShardServer> {
        self.shards.iter().flatten()
    }

    /// Crash shard `d`'s server: in-flight and later requests to it fail.
    pub fn kill_shard(&mut self, d: usize) {
        if let Some(mut s) = self.shards[d].take() {
            s.kill();
        }
    }

    /// Stand a fresh, empty shard server up in slot `d` and swap it into
    /// the store's array (the disk stays failed until repaired).
    pub fn replace_shard(&mut self, d: usize) -> std::io::Result<()> {
        self.kill_shard(d);
        let (server, disk, remote, backend) = spawn_shard(&self.shape, self.tracer.as_ref(), d)?;
        self.shards[d] = Some(server);
        self.disks[d] = disk;
        self.remotes[d] = remote;
        self.store().array().replace_disk(d, backend);
        Ok(())
    }

    /// Bytes held by every shard's `MemDisk`: stored cells (payload and
    /// checksum footer).
    pub fn held_bytes(&self) -> u64 {
        let cell = (self.shape.element + ecfrm_integrity::FOOTER_LEN) as u64;
        self.disks.iter().map(|d| d.len() as u64 * cell).sum()
    }

    /// Run `RepairManager` at its default config until the store has no
    /// failed disk, returning when it was spawned and when it healed.
    pub fn repair_until_healed(&self) -> Result<(Instant, Instant), StoreError> {
        let t0 = Instant::now();
        let mgr = RepairManager::spawn(Arc::clone(self.store()), RepairConfig::default());
        while !self.store().stats().failed_disks.is_empty() {
            if t0.elapsed() > REBUILD_DEADLINE {
                mgr.shutdown();
                return Err(StoreError::DataLoss(format!(
                    "rebuild not done after {REBUILD_DEADLINE:?}"
                )));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let healed = Instant::now();
        mgr.shutdown();
        Ok((t0, healed))
    }

    /// Lose shard `d`'s contents (its `MemDisk` is wiped and the disk
    /// failed), then rebuild it. See [`Self::repair_until_healed`].
    pub fn wipe_and_rebuild(&self, d: usize) -> Result<(Instant, Instant), StoreError> {
        self.disks[d].wipe();
        self.store().fail_disk(d)?;
        self.repair_until_healed()
    }
}

impl Stack {
    /// Stop every server and wait until their threads have let go of the
    /// disks, so the next set-up never overlaps this stack's memory.
    pub fn teardown(self) {
        let disks = self.disks.clone();
        drop(self);
        let deadline = Instant::now() + TEARDOWN_DEADLINE;
        while disks.iter().any(|d| Arc::strong_count(d) > 1) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        self.front_server.kill();
        for s in self.shards.iter_mut().flatten() {
            s.kill();
        }
    }
}

type Shard = (
    ShardServer,
    Arc<MemDisk>,
    Arc<RemoteDisk>,
    Arc<dyn DiskBackend>,
);

fn spawn_shard(shape: &Shape, tracer: Option<&Arc<Tracer>>, d: usize) -> std::io::Result<Shard> {
    let disk = Arc::new(MemDisk::with_latency(shape.disk_latency));
    let served: Arc<dyn DiskBackend> = match tracer {
        Some(t) => Traced::wrap(Arc::clone(&disk) as _, t, Seam::Disk, d),
        None => Arc::clone(&disk) as _,
    };
    let server = ShardServer::spawn(served, "127.0.0.1:0")?;
    let remote = Arc::new(RemoteDisk::new(server.addr(), RemoteDiskConfig::default()));
    let backend: Arc<dyn DiskBackend> = match tracer {
        Some(t) => Traced::wrap(Arc::clone(&remote) as _, t, Seam::Shard, d),
        None => Arc::clone(&remote) as _,
    };
    Ok((server, disk, remote, backend))
}
