//! Spans recorded from outside the program: client operations timed
//! around `FrontClient` calls, and shard RPCs and disk accesses timed by
//! [`Traced`], a `DiskBackend` wrapper installed around each front-side
//! `RemoteDisk` and each `MemDisk` inside the shard servers.
//!
//! Spans stay in memory for the whole run and are written out once, at
//! the end. With one closed-loop client, shard and disk spans nest by
//! time inside exactly one client operation, so each layer's self time
//! is its spans' covered time minus the part its child spans cover.

use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use ecfrm_sim::{io_pair, CombineOutcome, CombineSpec, DiskBackend, IoHandle, NetStats};
use ecfrm_util::Mutex;

/// What a span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A `FrontClient` read, submit to reply.
    ClientRead,
    /// A `FrontClient` write (create + write for a new object).
    ClientWrite,
    /// A front-side shard read RPC, submit to completion.
    ShardRead,
    /// A front-side shard element write.
    ShardWrite,
    /// A front-side `CombineRange` repair RPC.
    ShardCombine,
    /// A `MemDisk` read inside a shard server.
    DiskRead,
    /// A `MemDisk` element write inside a shard server.
    DiskWrite,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::ClientRead => "client.read",
            Kind::ClientWrite => "client.write",
            Kind::ShardRead => "net.shard.read",
            Kind::ShardWrite => "net.shard.write",
            Kind::ShardCombine => "net.shard.combine",
            Kind::DiskRead => "sim.disk.read",
            Kind::DiskWrite => "sim.disk.write",
        }
    }
}

/// One timed interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    /// Disk index for shard and disk spans; 0 for client spans.
    pub disk: u16,
    /// Issued by a background repair worker rather than the client.
    pub repair: bool,
    pub start: u64,
    pub end: u64,
    /// Elements carried (shard and disk spans) or 1 (client spans).
    pub elems: u32,
    /// Payload bytes moved.
    pub bytes: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// The in-memory span store.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        })
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn push(&self, span: Span) {
        self.spans.lock().push(span);
    }

    /// Every span recorded so far, sorted by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().clone();
        v.sort_by_key(|s| s.start);
        v
    }

    /// Write every span as one tab-separated line: name, disk, start_ns,
    /// end_ns, elements, bytes, enclosing client op (-1 for none).
    pub fn dump(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans();
        let ops: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| is_client(s.kind))
            .map(|s| (s.start, s.end))
            .collect();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tdisk\tstart_ns\tend_ns\telems\tbytes\top")?;
        for s in &spans {
            let op = if is_client(s.kind) || s.repair {
                None
            } else {
                enclosing(&ops, s)
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.kind.name(),
                s.disk,
                s.start,
                s.end,
                s.elems,
                s.bytes,
                op.map_or(-1, |i| i as i64)
            )?;
        }
        out.flush()
    }
}

pub fn is_client(kind: Kind) -> bool {
    matches!(kind, Kind::ClientRead | Kind::ClientWrite)
}

/// Index of the client op (sorted by start) whose interval contains
/// `span`, if any.
pub fn enclosing(ops: &[(u64, u64)], span: &Span) -> Option<usize> {
    let i = ops.partition_point(|&(start, _)| start <= span.start);
    (i > 0 && ops[i - 1].1 >= span.end).then(|| i - 1)
}

/// Length of the union of `intervals` (sorted or not).
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

fn on_repair_thread() -> bool {
    std::thread::current()
        .name()
        .is_some_and(|n| n.starts_with("repair-"))
}

/// Which seam a [`Traced`] wrapper sits on.
#[derive(Debug, Clone, Copy)]
pub enum Seam {
    /// Around a front-side `RemoteDisk`.
    Shard,
    /// Around a `MemDisk` inside a shard server.
    Disk,
}

/// A `DiskBackend` that times every I/O of the backend it wraps and
/// forwards every other trait method unchanged.
#[derive(Debug)]
pub struct Traced {
    inner: Arc<dyn DiskBackend>,
    tracer: Arc<Tracer>,
    seam: Seam,
    disk: u16,
}

impl Traced {
    pub fn wrap(
        inner: Arc<dyn DiskBackend>,
        tracer: &Arc<Tracer>,
        seam: Seam,
        disk: usize,
    ) -> Arc<dyn DiskBackend> {
        Arc::new(Self {
            inner,
            tracer: Arc::clone(tracer),
            seam,
            disk: disk as u16,
        })
    }

    fn span(&self, kind: Kind, start: u64, elems: usize, bytes: u64, repair: bool) {
        self.tracer.push(Span {
            kind,
            disk: self.disk,
            repair,
            start,
            end: self.tracer.now(),
            elems: elems as u32,
            bytes,
        });
    }
}

impl DiskBackend for Traced {
    fn submit_read_many(&self, offsets: &[u64]) -> IoHandle {
        let start = self.tracer.now();
        let repair = on_repair_thread();
        let n = offsets.len();
        let kind = match self.seam {
            Seam::Shard => Kind::ShardRead,
            Seam::Disk => Kind::DiskRead,
        };
        let (handle, completer) = io_pair(n);
        let tracer = Arc::clone(&self.tracer);
        let disk = self.disk;
        self.inner
            .submit_read_many(offsets)
            .on_complete(move |results| {
                let bytes = results.iter().flatten().map(|b| b.len() as u64).sum();
                tracer.push(Span {
                    kind,
                    disk,
                    repair,
                    start,
                    end: tracer.now(),
                    elems: n as u32,
                    bytes,
                });
                completer.complete(results);
            });
        handle
    }

    fn submits_async(&self) -> bool {
        self.inner.submits_async()
    }

    fn write(&self, offset: u64, bytes: Vec<u8>) {
        let start = self.tracer.now();
        let len = bytes.len() as u64;
        self.inner.write(offset, bytes);
        let kind = match self.seam {
            Seam::Shard => Kind::ShardWrite,
            Seam::Disk => Kind::DiskWrite,
        };
        self.span(kind, start, 1, len, on_repair_thread());
    }

    fn fail(&self) {
        self.inner.fail();
    }

    fn heal(&self) {
        self.inner.heal();
    }

    fn wipe(&self) {
        self.inner.wipe();
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn net_stats(&self) -> Option<NetStats> {
        self.inner.net_stats()
    }

    fn combine(&self, spec: &CombineSpec) -> CombineOutcome {
        let start = self.tracer.now();
        let out = self.inner.combine(spec);
        let bytes = match &out {
            CombineOutcome::Combined(r) => r.regions.iter().map(|b| b.len() as u64).sum(),
            _ => 0,
        };
        self.span(
            Kind::ShardCombine,
            start,
            spec.count as usize,
            bytes,
            on_repair_thread(),
        );
        out
    }

    fn supports_combine(&self) -> bool {
        self.inner.supports_combine()
    }

    fn peer_addr(&self) -> Option<String> {
        self.inner.peer_addr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_len(&mut [(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_len(&mut []), 0);
    }

    #[test]
    fn enclosing_finds_the_containing_op() {
        let ops = [(0, 10), (20, 30)];
        let span = |start, end| Span {
            kind: Kind::ShardRead,
            disk: 0,
            repair: false,
            start,
            end,
            elems: 1,
            bytes: 0,
        };
        assert_eq!(enclosing(&ops, &span(2, 8)), Some(0));
        assert_eq!(enclosing(&ops, &span(21, 30)), Some(1));
        assert_eq!(enclosing(&ops, &span(12, 14)), None);
        assert_eq!(enclosing(&ops, &span(8, 22)), None);
    }
}
