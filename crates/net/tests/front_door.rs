//! The object front door over real TCP: opcodes 11–15 end-to-end,
//! typed errors across the wire, and the additive-opcode negotiation
//! story — an old server (or a front-less new one) demotes the client
//! to a local fallback `FrontDoor` once, permanently, and every object
//! op stays byte-correct through the demotion.

use std::sync::Arc;

use ecfrm_codes::RsCode;
use ecfrm_core::{LayoutKind, Scheme};
use ecfrm_net::protocol::{read_request, write_response};
use ecfrm_net::{FrontClient, RemoteDiskConfig, Request, Response, ShardServer};
use ecfrm_sim::{DiskBackend, MemDisk};
use ecfrm_store::{FrontConfig, FrontDoor, ObjectStore, QosClass, StoreError, TenantSpec};

const ELEMENT: usize = 512;

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 137 + 11) % 256) as u8).collect()
}

fn scheme() -> Scheme {
    Scheme::builder(Arc::new(RsCode::vandermonde(4, 2)))
        .layout(LayoutKind::EcFrm)
        .build()
}

fn local_front() -> Arc<FrontDoor> {
    let store = Arc::new(ObjectStore::new(scheme(), ELEMENT));
    FrontDoor::new(store, FrontConfig::default())
}

fn client_cfg() -> RemoteDiskConfig {
    RemoteDiskConfig::builder().build()
}

/// Full object lifecycle against a front node over real sockets:
/// create / write (multi-extent) / stat / ranged + whole reads /
/// delete, with bytes compared against a reference copy.
#[test]
fn remote_front_round_trips_every_op() {
    let front = local_front();
    let mut server =
        ShardServer::spawn_with_front(Arc::new(MemDisk::new()), Arc::clone(&front), "127.0.0.1:0")
            .unwrap();
    let client = FrontClient::new(server.addr(), client_cfg());

    let a = payload(10_000);
    let b = payload(3_000);
    client.create("web", "hero.png").unwrap();
    client.write("web", "hero.png", &a).unwrap();
    client.write("web", "hero.png", &b).unwrap();

    let stat = client.stat("web", "hero.png").unwrap();
    assert_eq!(stat.len, 13_000);
    assert_eq!(stat.extents, 2);
    assert_eq!(stat.version, 3); // create=1, +1 per write

    let mut want = a.clone();
    want.extend_from_slice(&b);
    assert_eq!(client.read("web", "hero.png").unwrap(), want);
    // A range crossing the extent seam.
    assert_eq!(
        client.read_range("web", "hero.png", 9_990, 20).unwrap(),
        &want[9_990..10_010]
    );

    client.delete("web", "hero.png").unwrap();
    assert!(matches!(
        client.stat("web", "hero.png"),
        Err(StoreError::NotFound(_))
    ));
    assert!(client.remote_enabled(), "no demotion happened");
    server.kill();
}

/// Store errors cross the wire re-typed, not stringified: the client
/// can match on the same variants it would get from a local front.
#[test]
fn wire_errors_arrive_typed() {
    let front = local_front();
    front.register_tenant(TenantSpec::new("bulk", QosClass::Bulk).rate(1)); // 1 B/s: everything throttles
    let mut server =
        ShardServer::spawn_with_front(Arc::new(MemDisk::new()), Arc::clone(&front), "127.0.0.1:0")
            .unwrap();
    let client = FrontClient::new(server.addr(), client_cfg());

    assert!(matches!(
        client.read("web", "missing"),
        Err(StoreError::NotFound(n)) if n == "web/missing"
    ));
    client.create("web", "dup").unwrap();
    assert!(matches!(
        client.create("web", "dup"),
        Err(StoreError::AlreadyExists(_))
    ));
    client.write("web", "dup", &payload(100)).unwrap();
    assert!(matches!(
        client.read_range("web", "dup", 90, 20),
        Err(StoreError::RangeOutOfBounds { len: 100, .. })
    ));
    // The bulk tenant's first byte overdraws its 1 B/s bucket for far
    // longer than the 500 ms default deadline.
    client.create("bulk", "slow").unwrap();
    client.write("bulk", "slow", &payload(4096)).unwrap();
    assert!(matches!(
        client.read("bulk", "slow"),
        Err(StoreError::Throttled(_))
    ));
    server.kill();
}

/// A shard that predates the object opcodes: unknown frames drop the
/// connection, `Health` (and the other legacy ops) answer fine.
fn spawn_old_server() -> std::net::SocketAddr {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            std::thread::spawn(move || loop {
                let req = match read_request(&mut stream) {
                    Ok(r) => r,
                    Err(_) => return, // "unknown opcode": drop the connection
                };
                let resp = match req {
                    Request::Health => Response::Health { elements: 0 },
                    _ => return,
                };
                if write_response(&mut stream, &resp).is_err() {
                    return;
                }
            });
        }
    });
    addr
}

/// Every object op against an old server falls back to the local
/// front door, byte-correct, and the latch is permanent: exactly one
/// demotion no matter how many ops follow.
#[test]
fn old_server_demotes_once_and_every_op_falls_back() {
    let addr = spawn_old_server();
    let fallback = local_front();
    let client = FrontClient::new(addr, client_cfg()).with_fallback(Arc::clone(&fallback));

    let data = payload(8_000);
    client.create("web", "obj").unwrap(); // first op: probe + demote
    assert!(!client.remote_enabled(), "answering probe must demote");

    client.write("web", "obj", &data).unwrap();
    assert_eq!(client.read("web", "obj").unwrap(), data);
    assert_eq!(
        client.read_range("web", "obj", 100, 50).unwrap(),
        &data[100..150]
    );
    assert_eq!(client.stat("web", "obj").unwrap().len, 8_000);
    client.delete("web", "obj").unwrap();
    assert!(matches!(
        client.stat("web", "obj"),
        Err(StoreError::NotFound(_))
    ));

    let snap = client.recorder().snapshot();
    let get = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
    assert_eq!(get("front.demoted"), 1, "latch fires exactly once");
    assert_eq!(get("front.remote"), 0, "no op was served remotely");
    assert!(get("front.fallback") >= 6, "every op took the fallback");
}

/// A *new* server with no front door attached answers the typed
/// `no_front` error — which demotes the client the same way, without
/// a probe, while raw shard ops on that server keep working.
#[test]
fn front_less_server_demotes_via_typed_error() {
    let mut server = ShardServer::spawn(Arc::new(MemDisk::new()), "127.0.0.1:0").unwrap();
    let fallback = local_front();
    let client = FrontClient::new(server.addr(), client_cfg()).with_fallback(Arc::clone(&fallback));

    let data = payload(2_000);
    client.create("web", "obj").unwrap();
    assert!(!client.remote_enabled());
    client.write("web", "obj", &data).unwrap();
    assert_eq!(client.read("web", "obj").unwrap(), data);
    server.kill();
}

/// Without a fallback, a demoted client errors loudly instead of
/// pretending; a *dead* server is a transient `Net` error that leaves
/// the latch alone so recovery is possible.
#[test]
fn no_fallback_errors_and_outages_never_latch() {
    // Front-less server, no fallback: typed failure.
    let mut server = ShardServer::spawn(Arc::new(MemDisk::new()), "127.0.0.1:0").unwrap();
    let client = FrontClient::new(server.addr(), client_cfg());
    assert!(matches!(
        client.create("web", "obj"),
        Err(StoreError::Net(_))
    ));
    server.kill();

    // Dead server: transport error, latch untouched.
    let addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    }; // listener dropped: nothing is home
    let fallback = local_front();
    let client = FrontClient::new(addr, client_cfg()).with_fallback(fallback);
    assert!(matches!(
        client.create("web", "obj"),
        Err(StoreError::Net(_))
    ));
    assert!(
        client.remote_enabled(),
        "an outage is not evidence of an old server"
    );
}

/// A server that answers `Health` / `ObjStat` promptly but sits on
/// `ObjGet` for `get_delay` — a live, object-op-capable node that
/// merely blows the client's request deadline (queued admission, slow
/// disk, big transfer). Also counts `ObjWrite` frames it *receives*
/// and, when `drop_writes` is set, kills the connection after reading
/// one instead of answering — the executed-but-response-lost case.
fn spawn_slow_server(
    get_delay: std::time::Duration,
    drop_writes: bool,
) -> (std::net::SocketAddr, Arc<std::sync::atomic::AtomicUsize>) {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let writes = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&writes);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            let writes = Arc::clone(&counter);
            std::thread::spawn(move || loop {
                let Ok(req) = read_request(&mut stream) else {
                    return;
                };
                let resp = match req {
                    Request::Health => Response::Health { elements: 0 },
                    Request::ObjCreate { .. } => Response::ObjAck,
                    Request::ObjStat { .. } => Response::ObjStat {
                        len: 0,
                        version: 1,
                        extents: 0,
                    },
                    Request::ObjGet { .. } => {
                        std::thread::sleep(get_delay);
                        Response::ObjData(vec![7; 8].into())
                    }
                    Request::ObjWrite { .. } => {
                        writes.fetch_add(1, Ordering::SeqCst);
                        if drop_writes {
                            return; // connection dies with the response unsent
                        }
                        Response::ObjAck
                    }
                    _ => Response::Error("unexpected op".into()),
                };
                if write_response(&mut stream, &resp).is_err() {
                    return;
                }
            });
        }
    });
    (addr, writes)
}

/// A request that merely exceeds the client timeout on a live,
/// object-op-capable server must stay a transient `Net` error: no
/// demotion, and the very next (fast) op is served remotely again.
#[test]
fn slow_server_times_out_without_latching() {
    let (addr, _) = spawn_slow_server(std::time::Duration::from_millis(800), false);
    let fallback = local_front(); // present, but must never be used
    let cfg = RemoteDiskConfig::builder()
        .request_timeout(std::time::Duration::from_millis(100))
        .build();
    let client = FrontClient::new(addr, cfg).with_fallback(fallback);

    assert!(matches!(
        client.read_range("web", "obj", 0, 8),
        Err(StoreError::Net(_))
    ));
    assert!(
        client.remote_enabled(),
        "a timeout is not evidence of an old server"
    );
    // The next op answers within the deadline and is served remotely.
    assert_eq!(client.stat("web", "obj").unwrap().len, 0);
    let snap = client.recorder().snapshot();
    assert_eq!(
        snap.counters.get("front.fallback").copied().unwrap_or(0),
        0,
        "no op may be served from the fallback's empty namespace"
    );
}

/// A lost `ObjWrite` *response* must not trigger a blind retry: the
/// server may have appended the extent with only the answer lost, and
/// a replay would append it twice. The server here counts the write
/// frames it receives — exactly one may arrive.
#[test]
fn lost_write_response_is_not_retried() {
    let (addr, writes) = spawn_slow_server(std::time::Duration::ZERO, true);
    let client = FrontClient::new(addr, RemoteDiskConfig::builder().build());

    client.create("web", "obj").unwrap(); // parks a pooled connection
    let r = client.write("web", "obj", &payload(100));
    assert!(matches!(r, Err(StoreError::Net(_))), "{r:?}");
    assert_eq!(
        writes.load(std::sync::atomic::Ordering::SeqCst),
        1,
        "the write frame must cross the wire exactly once"
    );
    assert!(
        client.remote_enabled(),
        "an answering object-op probe proves the server is not old"
    );
}

/// Idempotent reads still recover from a stale pooled connection with
/// a silent fresh-dial retry (the server here hangs up after every
/// response, so the second op always finds a dead pooled stream).
#[test]
fn stale_pooled_connection_retries_idempotent_reads() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            std::thread::spawn(move || {
                // One request, one answer, hang up.
                if let Ok(req) = read_request(&mut stream) {
                    let resp = match req {
                        Request::ObjCreate { .. } => Response::ObjAck,
                        Request::ObjStat { .. } => Response::ObjStat {
                            len: 42,
                            version: 1,
                            extents: 0,
                        },
                        _ => Response::Error("unexpected op".into()),
                    };
                    let _ = write_response(&mut stream, &resp);
                }
            });
        }
    });

    let client = FrontClient::new(addr, RemoteDiskConfig::builder().build());
    client.create("web", "obj").unwrap(); // parked stream is now stale
    std::thread::sleep(std::time::Duration::from_millis(30)); // let the server hang up
    assert_eq!(client.stat("web", "obj").unwrap().len, 42);
    assert!(client.remote_enabled());
}

/// The mixed-version acceptance scenario: the *front* node is old, the
/// *shard* nodes are new. The demoted client serves through a local
/// front door whose store reads the same shard cluster over
/// `RemoteDisk`, so data lands erasure-coded on real remote shards and
/// reads back byte-correct.
#[test]
fn mixed_version_cluster_stays_byte_correct_through_fallback() {
    use ecfrm_net::RemoteDisk;
    use ecfrm_sim::ThreadedArray;

    let sch = scheme();
    let shards: Vec<(ShardServer, Arc<MemDisk>)> = (0..sch.n_disks())
        .map(|_| {
            let mem = Arc::new(MemDisk::new());
            let srv = ShardServer::spawn(Arc::clone(&mem) as Arc<dyn DiskBackend>, "127.0.0.1:0")
                .unwrap();
            (srv, mem)
        })
        .collect();
    let backends: Vec<Arc<dyn DiskBackend>> = shards
        .iter()
        .map(|(srv, _)| Arc::new(RemoteDisk::new(srv.addr(), client_cfg())) as Arc<dyn DiskBackend>)
        .collect();
    let store = Arc::new(ObjectStore::with_array(
        sch,
        ELEMENT,
        ThreadedArray::from_backends(backends),
    ));
    let fallback = FrontDoor::new(store, FrontConfig::default());

    let old_front = spawn_old_server();
    let client = FrontClient::new(old_front, client_cfg()).with_fallback(Arc::clone(&fallback));

    let data = payload(20_000);
    client.put("web", "movie.mp4", &data).unwrap();
    assert!(!client.remote_enabled());
    assert_eq!(client.read("web", "movie.mp4").unwrap(), data);

    // The bytes really live on the remote shards, not in some client
    // buffer: at least one shard holds sealed elements.
    let held: usize = shards.iter().map(|(_, mem)| mem.len()).sum();
    assert!(held > 0, "sealed stripes must land on the shard nodes");
}

/// A read whose reply cannot fit one frame — here "to the end" of a
/// 65 MiB object — is refused with a typed range error before
/// admission and before any element is read, and the connection stays
/// usable: no 65 MiB read, no failed frame write, no dropped connection
/// and no retry.
#[test]
fn oversized_object_read_refused_before_admission() {
    use ecfrm_net::protocol::max_obj_reply;

    const BIG: usize = 65 << 20;
    let store = Arc::new(ObjectStore::new(scheme(), 1 << 20));
    let front = FrontDoor::new(store, FrontConfig::default());
    let big = payload(BIG);
    front.put("t", "big", &big[..BIG / 2]).unwrap();
    front.write("t", "big", &big[BIG / 2..]).unwrap();
    let mut server =
        ShardServer::spawn_with_front(Arc::new(MemDisk::new()), Arc::clone(&front), "127.0.0.1:0")
            .unwrap();
    let client = FrontClient::new(server.addr(), client_cfg());
    let counter = |name: &str| {
        front
            .store()
            .recorder()
            .snapshot()
            .flatten()
            .into_iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| v)
    };
    let (reads, admitted) = (counter("reads"), counter("admit.ok"));

    let room = max_obj_reply(false);
    for result in [
        client.read("t", "big"),
        client.read_range("t", "big", 0, room + 1),
    ] {
        match result {
            Err(StoreError::RangeOutOfBounds { name, len }) => {
                assert_eq!(len, BIG as u64);
                assert!(name.contains("reply frame"), "{name}");
            }
            other => panic!("expected a typed range error, got {other:?}"),
        }
    }
    assert_eq!(counter("reads"), reads, "no element was read");
    assert_eq!(counter("admit.ok"), admitted, "nothing was admitted");
    assert_eq!(counter("tenant.t.reads"), 0);

    // Same client, same pooled connection: a read that fits still works.
    assert_eq!(
        client
            .read_range("t", "big", BIG as u64 - 5_000, 5_000)
            .unwrap(),
        &big[BIG - 5_000..]
    );
    assert!(client.remote_enabled());
    server.kill();
}
