//! `e2e`: the EC-FRM networked stack measured end to end and layer by
//! layer.
//!
//! ```text
//! e2e --workload <paper-read|degraded-read|hot-mixed|rebuild> --seed <n>
//!     --seconds <s> --trace <0|1> [--layout <standard|rotated|ecfrm>] [--quick]
//! ```
//!
//! One process spawns the whole stack on loopback (see [`stack`]), loads
//! seeded data through the front door, runs one workload and prints
//! diagnostics followed by one JSON result line. With `--trace 0` the
//! line carries the end-to-end metrics; with `--trace 1` the
//! `DiskBackend` wrappers are installed and the line carries the
//! per-layer metrics instead. Every byte read is checked against bytes
//! recomputed from (object, offset); one wrong byte makes the run exit
//! non-zero. `--quick` shrinks the data and the repetitions for the
//! self-check test. `NOTES.md` says why each workload exists.

mod gen;
mod report;
mod stack;
mod trace;

use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ecfrm_core::LayoutKind;
use ecfrm_store::StoreError;

use crate::gen::{HotMix, Op, Read};
use crate::report::{quantile, ratio, Delta, Metrics, Probe, Rep};
use crate::stack::{Shape, Stack, TENANT};
use crate::trace::{enclosing, union_len, Kind, Span, Tracer};

/// The front door's default cache (`FrontConfig::default`), which the
/// data sets are sized against.
const CACHE_BYTES: u64 = 32 << 20;
/// The paper data set: at least 8× the cache, so the cache does little.
const PAPER_BYTES: u64 = 8 * CACHE_BYTES;
/// Ingest write size for the paper data set.
const INGEST_CHUNK: u64 = 4 << 20;
/// The paper data set lives in one object of many extents.
const PAPER_OBJECT: &str = "paper";
/// The hot mix's starting set: about a quarter of the cache.
const HOT_SET_BYTES: u64 = CACHE_BYTES / 4;
const HOT_MIN_LEN: u32 = 4 << 10;
const HOT_MAX_LEN: u32 = 64 << 10;
const HOT_ZIPF: f64 = 1.1;
const HOT_PUT_SHARE: f64 = 0.1;
/// Open-loop arrival rate of the hot mix, ops/s: about half of what one
/// closed-loop client completes on a quiet 2-core host.
const HOT_RATE: f64 = 400.0;
/// How long before an op is due the open-loop generator stops sleeping.
const SPIN: Duration = Duration::from_micros(200);
/// Client ops whose counts are reported (after warm-up): a fixed prefix,
/// so counts repeat exactly for a seed whatever the run length.
const COUNT_OPS: usize = 200;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperRead,
    DegradedRead,
    HotMixed,
    Rebuild,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "paper-read" => Self::PaperRead,
            "degraded-read" => Self::DegradedRead,
            "hot-mixed" => Self::HotMixed,
            "rebuild" => Self::Rebuild,
            _ => return None,
        })
    }

    fn shape(self, layout: LayoutKind) -> Shape {
        match self {
            Self::HotMixed => Shape {
                layout,
                element: 4 << 10,
                disk_latency: Duration::from_micros(200),
            },
            _ => Shape {
                layout,
                element: 64 << 10,
                disk_latency: Duration::from_millis(1),
            },
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    layout: LayoutKind,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut layout, mut quick) = (LayoutKind::EcFrm, false);
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--layout" => {
                layout = match value.as_str() {
                    "standard" => LayoutKind::Standard,
                    "rotated" => LayoutKind::Rotated,
                    "ecfrm" => LayoutKind::EcFrm,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        layout,
        quick,
    })
}

/// Sizes that `--quick` shrinks.
struct Scale {
    paper_bytes: u64,
    ingest_chunk: u64,
    hot_set_bytes: u64,
    setups: usize,
    rebuilds: usize,
    warmup_ops: usize,
    warmup: Duration,
}

impl Scale {
    fn new(args: &Args) -> Self {
        if args.quick {
            Self {
                paper_bytes: 16 << 20,
                ingest_chunk: 1 << 20,
                hot_set_bytes: 1 << 20,
                setups: 1,
                rebuilds: 1,
                warmup_ops: 10,
                warmup: Duration::from_millis(200),
            }
        } else {
            Self {
                paper_bytes: PAPER_BYTES,
                ingest_chunk: INGEST_CHUNK,
                hot_set_bytes: HOT_SET_BYTES,
                // Set-up is repeated and reported per repetition. The
                // first set-up of a process also pays for growing the
                // heap, so it runs but is not counted. A traced run
                // reports no set-up time and sets up once.
                setups: if args.trace { 1 } else { 4 },
                rebuilds: 5,
                warmup_ops: 100,
                warmup: Duration::from_secs(1),
            }
        }
    }
}

/// One successful operation inside the measured window.
struct Sample {
    /// When it started (closed loop) or was due (open loop).
    at: Instant,
    lat_us: f64,
    /// User bytes read (0 for writes).
    bytes: u64,
    write: bool,
}

/// Client-side outcomes of every operation the generator issued.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    wrong: u64,
    samples: Vec<Sample>,
    /// Ingest write latencies, one list per counted set-up: the write
    /// latency of the read workloads.
    ingest_us: Vec<Vec<f64>>,
    late_us: Vec<f64>,
    errors: Vec<String>,
}

impl Tally {
    /// Count one operation; `check` says whether what it returned is
    /// right. Errors, throttles, timeouts and wrong bytes all count as
    /// failed, and none is retried.
    fn note<T>(&mut self, res: Result<T, StoreError>, check: impl FnOnce(&T) -> bool) -> bool {
        self.attempted += 1;
        match res {
            Ok(v) if check(&v) => true,
            Ok(_) => {
                self.failed += 1;
                self.wrong += 1;
                self.error("wrong bytes returned".to_string());
                false
            }
            Err(e) => {
                self.failed += 1;
                self.error(e.to_string());
                false
            }
        }
    }

    fn reads(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(|s| !s.write)
    }

    fn error(&mut self, msg: String) {
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }

    fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.wrong += o.wrong;
        self.samples.extend(o.samples);
        self.ingest_us.extend(o.ingest_us);
        self.late_us.extend(o.late_us);
        for e in o.errors {
            self.error(e);
        }
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn client_span(tracer: Option<&Arc<Tracer>>, kind: Kind, start: Instant, end: Instant) {
    if let Some(t) = tracer {
        t.push(Span {
            kind,
            disk: 0,
            repair: false,
            start: t.at(start),
            end: t.at(end),
            elems: 1,
            bytes: 0,
        });
    }
}

/// Load the workload's data set through the front door and flush it.
/// Returns the user bytes acknowledged and, for the paper data set, the
/// latency of each ingest write.
fn load(
    stack: &Stack,
    workload: Workload,
    scale: &Scale,
    mix: &HotMix,
    tally: &mut Tally,
) -> (u64, Vec<f64>) {
    let mut acked = 0;
    let mut lat = Vec::new();
    if workload == Workload::HotMixed {
        for (obj, &len) in mix.initial.iter().enumerate() {
            let mut buf = vec![0u8; len as usize];
            gen::fill(obj as u64, 0, &mut buf);
            let res = stack.client.put(TENANT, &format!("o{obj}"), &buf);
            if tally.note(res, |_| true) {
                acked += u64::from(len);
            }
        }
    } else {
        let created = stack.client.create(TENANT, PAPER_OBJECT);
        tally.note(created, |_| true);
        let mut buf = vec![0u8; scale.ingest_chunk as usize];
        for c in 0..scale.paper_bytes / scale.ingest_chunk {
            gen::fill(0, c * scale.ingest_chunk, &mut buf);
            let t = Instant::now();
            let res = stack.client.write(TENANT, PAPER_OBJECT, &buf);
            if tally.note(res, |_| true) {
                lat.push(us(t.elapsed()));
                acked += scale.ingest_chunk;
            }
        }
    }
    stack.store().flush();
    (acked, lat)
}

/// What a measured phase hands back.
struct Window {
    /// The window's bounds.
    w0: Instant,
    w1: Instant,
    /// Probes at the window's start, after the count prefix, at its end.
    p0: Probe,
    pc: Probe,
    p1: Probe,
    /// Client reads between `p0` and `pc`.
    count_reads: u64,
    /// Ops started (closed loop) or due (open loop) inside the window.
    window_ops: u64,
}

/// When a closed-loop window ends.
enum Until<'a> {
    /// After this long.
    Elapsed(Duration),
    /// When the flag is raised. The barrier is met once the window opens.
    Raised(&'a AtomicBool, &'a Barrier),
}

/// One closed-loop client replaying paper-style reads of the paper
/// object: a fixed warm-up, then reads until the window ends.
fn closed_loop(
    stack: &Stack,
    reads: &[Read],
    scale: &Scale,
    until: Until,
    tracer: Option<&Arc<Tracer>>,
    tally: &mut Tally,
) -> Window {
    let es = stack.shape.element as u64;
    let mut p0 = None;
    let mut pc = None;
    let mut window_ops = 0u64;
    for (i, r) in reads.iter().cycle().enumerate() {
        if i == scale.warmup_ops {
            p0 = Some(Probe::take(stack));
            if let Until::Raised(_, started) = until {
                started.wait();
            }
        }
        let measured = i >= scale.warmup_ops;
        if measured {
            let over = match until {
                Until::Elapsed(d) => p0.as_ref().is_some_and(|p| p.at.elapsed() >= d),
                Until::Raised(stop, _) => stop.load(Ordering::Acquire),
            };
            if over {
                break;
            }
            if window_ops == COUNT_OPS as u64 {
                pc = Some(Probe::take(stack));
            }
        }
        let (off, len) = (r.start * es, r.size as u64 * es);
        let t = Instant::now();
        let res = stack.client.read_range(TENANT, PAPER_OBJECT, off, len);
        let end = Instant::now();
        let ok = tally.note(res, |b| b.len() as u64 == len && gen::matches(0, off, b));
        if measured {
            window_ops += 1;
            if ok {
                tally.samples.push(Sample {
                    at: t,
                    lat_us: us(end - t),
                    bytes: len,
                    write: false,
                });
            }
            client_span(tracer, Kind::ClientRead, t, end);
        }
    }
    let p1 = Probe::take(stack);
    let p0 = p0.unwrap_or_else(|| Probe::take(stack));
    let pc = pc.unwrap_or_else(|| Probe::take(stack));
    Window {
        w0: p0.at,
        w1: p1.at,
        p0,
        pc,
        p1,
        count_reads: window_ops.min(COUNT_OPS as u64),
        window_ops,
    }
}

/// The hot mix, open loop at [`HOT_RATE`] on two generator threads over
/// the client's two connections. Latency runs from each op's due time,
/// so a stall also charges the ops queued behind it.
fn open_loop(
    stack: &Stack,
    mix: &HotMix,
    scale: &Scale,
    seconds: Duration,
    tracer: Option<&Arc<Tracer>>,
    tally: &mut Tally,
) -> (Window, u64) {
    const PENDING: u8 = 0;
    const ACKED: u8 = 1;
    const LOST: u8 = 2;
    // Object ids are dense: the starting set, then each put in order.
    let mut lens: Vec<u32> = mix.initial.clone();
    for op in &mix.ops {
        if let Op::Put { len, .. } = op {
            lens.push(*len);
        }
    }
    let state: Vec<AtomicU8> = (0..lens.len())
        .map(|i| {
            AtomicU8::new(if i < mix.initial.len() {
                ACKED
            } else {
                PENDING
            })
        })
        .collect();
    let next = AtomicUsize::new(0);
    let t0 = Instant::now() + Duration::from_millis(20);
    let w0 = t0 + scale.warmup;
    let w1 = w0 + seconds;
    let period = Duration::from_secs_f64(1.0 / HOT_RATE);
    let due = |i: usize| t0 + period * i as u32;
    let written = std::sync::atomic::AtomicU64::new(0);

    let worker = || {
        let mut t = Tally::default();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(op) = mix.ops.get(i) else { break };
            let at = due(i);
            if at >= w1 {
                break;
            }
            // Sleep to just short of the due time, then yield until it:
            // a plain sleep overshoots by the timer slack.
            let now = Instant::now();
            if at > now + SPIN {
                std::thread::sleep(at - now - SPIN);
            }
            while Instant::now() < at {
                std::thread::yield_now();
            }
            let start = Instant::now();
            let measured = at >= w0;
            if measured {
                t.late_us.push(us(start - at));
            }
            match *op {
                Op::Put { obj, len } => {
                    let mut buf = vec![0u8; len as usize];
                    gen::fill(u64::from(obj), 0, &mut buf);
                    let res = stack.client.put(TENANT, &format!("o{obj}"), &buf);
                    let end = Instant::now();
                    let ok = t.note(res, |_| true);
                    state[obj as usize].store(if ok { ACKED } else { LOST }, Ordering::Release);
                    if ok {
                        written.fetch_add(u64::from(len), Ordering::Relaxed);
                    }
                    if measured {
                        if ok {
                            t.samples.push(Sample {
                                at,
                                lat_us: us(end - at),
                                bytes: 0,
                                write: true,
                            });
                        }
                        client_span(tracer, Kind::ClientWrite, start, end);
                    }
                }
                Op::Get { obj } => {
                    // Read-your-writes: a read of an object whose put is
                    // still in flight waits for its ack.
                    let deadline = start + Duration::from_secs(5);
                    while state[obj as usize].load(Ordering::Acquire) == PENDING
                        && Instant::now() < deadline
                    {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    let len = lens[obj as usize] as usize;
                    let sent = Instant::now();
                    let res = match state[obj as usize].load(Ordering::Acquire) {
                        ACKED => stack.client.read(TENANT, &format!("o{obj}")),
                        _ => Err(StoreError::NotFound(format!("o{obj} was never written"))),
                    };
                    let end = Instant::now();
                    let ok = t.note(res, |b| {
                        b.len() == len && gen::matches(u64::from(obj), 0, b)
                    });
                    if measured {
                        if ok {
                            t.samples.push(Sample {
                                at,
                                lat_us: us(end - at),
                                bytes: len as u64,
                                write: false,
                            });
                        }
                        client_span(tracer, Kind::ClientRead, sent, end);
                    }
                }
            }
        }
        t
    };
    let (p0, tallies) = std::thread::scope(|s| {
        let handles = [s.spawn(worker), s.spawn(worker)];
        std::thread::sleep(w0.saturating_duration_since(Instant::now()));
        let p0 = Probe::take(stack);
        let tallies: Vec<Tally> = handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect();
        (p0, tallies)
    });
    for t in tallies {
        tally.merge(t);
    }
    // Concurrent ops finish out of order, so counts cover the whole
    // window rather than a prefix.
    let p1 = Probe::take(stack);
    let pc = Probe::take(stack);
    let window_ops = (0..mix.ops.len())
        .filter(|&i| (w0..w1).contains(&due(i)))
        .count() as u64;
    (
        Window {
            w0,
            w1,
            p0,
            pc,
            p1,
            count_reads: tally.reads().count() as u64,
            window_ops,
        },
        written.into_inner(),
    )
}

/// Everything a run measured.
struct Run {
    tally: Tally,
    /// Set-up times (s); the ingest latencies in `tally` line up with
    /// them on the read workloads.
    setups: Vec<Rep>,
    /// Rebuild times (s).
    rebuilds: Vec<Rep>,
    window: Window,
    /// Probes around the rebuilds (the rebuild phase or, for `rebuild`,
    /// the window).
    r0: Probe,
    r1: Probe,
    held_bytes: u64,
    acked_bytes: u64,
    steal: report::StealLog,
    n_disks: usize,
}

fn run(args: &Args, tracer: Option<&Arc<Tracer>>) -> Result<Run, String> {
    let scale = Scale::new(args);
    let shape = args.workload.shape(args.layout);
    let n = shape.scheme().n_disks();
    let seconds = Duration::from_secs(args.seconds);
    let es = shape.element as u64;
    let elements = scale.paper_bytes / es;
    let mix = if args.workload == Workload::HotMixed {
        let ops = (HOT_RATE * (scale.warmup + seconds).as_secs_f64()).ceil() as usize + 1;
        gen::hot_mix(
            scale.hot_set_bytes,
            HOT_MIN_LEN,
            HOT_MAX_LEN,
            HOT_ZIPF,
            HOT_PUT_SHARE,
            ops,
            args.seed,
        )
    } else {
        HotMix {
            initial: Vec::new(),
            ops: Vec::new(),
        }
    };
    let mut tally = Tally::default();
    let meter = report::StealMeter::start();

    // Set-up: spawn every server, load and flush. Repeated, keeping the
    // last stack; earlier stacks are torn down before the next starts.
    let mut setups = Vec::new();
    let mut built: Option<Stack> = None;
    let mut acked_bytes = 0;
    for i in 0..scale.setups {
        if let Some(stack) = built.take() {
            stack.teardown();
        }
        let t = Instant::now();
        let stack = Stack::spawn(&shape, tracer).map_err(|e| format!("spawn: {e}"))?;
        let ingest_us;
        (acked_bytes, ingest_us) = load(&stack, args.workload, &scale, &mix, &mut tally);
        if i > 0 || scale.setups == 1 {
            setups.push(rep_of(t, Instant::now()));
            tally.ingest_us.push(ingest_us);
        }
        built = Some(stack);
    }
    let mut stack = built.ok_or("no set-up ran")?;

    let mut rebuilds = Vec::new();
    let mut written = 0;
    let (window, r0, r1);
    match args.workload {
        Workload::PaperRead | Workload::DegradedRead => {
            let reads = if args.workload == Workload::PaperRead {
                gen::normal_reads(elements, 20_000, args.seed)
            } else {
                // A failure is store state: kill one seed-chosen shard
                // server and mark its disk failed before timing.
                let failed = gen::pick(args.seed, 0xFA11, n);
                stack.kill_shard(failed);
                stack
                    .store()
                    .fail_disk(failed)
                    .map_err(|e| format!("fail_disk: {e}"))?;
                gen::degraded_reads(elements, n, 20_000, args.seed)
            };
            let until = Until::Elapsed(seconds);
            window = closed_loop(&stack, &reads, &scale, until, tracer, &mut tally);
            // Rebuild phase, no foreground load: time to restore one
            // shard of this data set.
            r0 = Probe::take(&stack);
            for c in 0..scale.rebuilds {
                let took = if c == 0 && args.workload == Workload::DegradedRead {
                    let failed = gen::pick(args.seed, 0xFA11, n);
                    stack
                        .replace_shard(failed)
                        .map_err(|e| format!("replace shard: {e}"))?;
                    stack.repair_until_healed()
                } else {
                    stack.wipe_and_rebuild(gen::pick(args.seed, 0xB0 + c as u64, n))
                };
                let (from, to) = took.map_err(|e| format!("rebuild: {e}"))?;
                rebuilds.push(rep_of(from, to));
            }
            r1 = Probe::take(&stack);
        }
        Workload::Rebuild => {
            let reads = gen::normal_reads(elements, 20_000, args.seed);
            r0 = Probe::take(&stack);
            let (stop, started) = (AtomicBool::new(false), Barrier::new(2));
            let (w, t, cycles) = std::thread::scope(|s| {
                let reader = s.spawn(|| {
                    let mut t = Tally::default();
                    let until = Until::Raised(&stop, &started);
                    let w = closed_loop(&stack, &reads, &scale, until, tracer, &mut t);
                    (w, t)
                });
                started.wait();
                let t0 = Instant::now();
                let mut cycles = Vec::new();
                let mut c = 0u64;
                // Rebuild cycles back to back while the reader runs; a
                // cycle started inside the window runs to completion.
                while t0.elapsed() < seconds || cycles.is_empty() {
                    let d = gen::pick(args.seed, 0xB0 + c, n);
                    let took = stack.wipe_and_rebuild(d);
                    let failed = took.is_err();
                    cycles.push(took);
                    if failed {
                        break;
                    }
                    c += 1;
                }
                stop.store(true, Ordering::Release);
                let (w, t) = reader.join().expect("reader thread panicked");
                (w, t, cycles)
            });
            tally.merge(t);
            for took in cycles {
                let (from, to) = took.map_err(|e| format!("rebuild: {e}"))?;
                rebuilds.push(rep_of(from, to));
            }
            window = w;
            r1 = Probe::take(&stack);
        }
        Workload::HotMixed => {
            let (w, wr) = open_loop(&stack, &mix, &scale, seconds, tracer, &mut tally);
            window = w;
            written = wr;
            r0 = Probe::take(&stack);
            for c in 0..scale.rebuilds {
                let took = stack.wipe_and_rebuild(gen::pick(args.seed, 0xB0 + c as u64, n));
                let (from, to) = took.map_err(|e| format!("rebuild: {e}"))?;
                rebuilds.push(rep_of(from, to));
            }
            r1 = Probe::take(&stack);
        }
    }
    let steal = meter.finish();
    let held_bytes = stack.held_bytes();
    stack.teardown();
    Ok(Run {
        tally,
        setups,
        rebuilds,
        r0,
        r1,
        held_bytes,
        acked_bytes: acked_bytes + written,
        steal,
        n_disks: n,
        window,
    })
}

/// Read and write figures are taken per one-second slice of the window
/// and, like set-up and rebuild times, reported as a steal-calm median
/// (`StealLog::calm_median`).
const SLICE: Duration = Duration::from_secs(1);

fn rep_of(from: Instant, to: Instant) -> Rep {
    Rep {
        value: (to - from).as_secs_f64(),
        from,
        to,
    }
}

/// The window's samples split into equal slices of about [`SLICE`] by
/// start (closed loop) or due time (open loop): each slice's bounds and
/// samples.
fn slices<'a>(w: &Window, samples: &'a [Sample]) -> Vec<(Instant, Instant, Vec<&'a Sample>)> {
    let n = ((w.w1 - w.w0).as_secs_f64() / SLICE.as_secs_f64())
        .round()
        .max(1.0) as u32;
    let step = (w.w1 - w.w0) / n;
    let mut out: Vec<_> = (0..n)
        .map(|i| (w.w0 + step * i, w.w0 + step * (i + 1), Vec::new()))
        .collect();
    for s in samples {
        let i = (s.at.saturating_duration_since(w.w0).as_secs_f64() / step.as_secs_f64()) as usize;
        out[i.min(n as usize - 1)].2.push(s);
    }
    out
}

/// Quantile `q` of read (or write) latency in each slice that has any.
fn per_slice(run: &Run, write: bool, q: f64) -> Vec<Rep> {
    slices(&run.window, &run.tally.samples)
        .into_iter()
        .filter_map(|(from, to, g)| {
            let mut lat: Vec<f64> = g
                .iter()
                .filter(|s| s.write == write)
                .map(|s| s.lat_us)
                .collect();
            (!lat.is_empty()).then(|| Rep {
                value: quantile(&mut lat, q),
                from,
                to,
            })
        })
        .collect()
}

/// Quantile `q` of each set-up's ingest write latencies.
fn per_setup(run: &Run, q: f64) -> Vec<Rep> {
    run.setups
        .iter()
        .zip(&run.tally.ingest_us)
        .filter(|(_, lat)| !lat.is_empty())
        .map(|(s, lat)| Rep {
            value: quantile(&mut lat.clone(), q),
            ..*s
        })
        .collect()
}

fn end_to_end(run: &Run, workload: Workload) -> Metrics {
    let calm = |reps: &[Rep]| run.steal.calm_median(reps);
    let mb_s: Vec<Rep> = slices(&run.window, &run.tally.samples)
        .into_iter()
        .map(|(from, to, g)| Rep {
            value: g.iter().map(|s| s.bytes).sum::<u64>() as f64 / 1e6 / (to - from).as_secs_f64(),
            from,
            to,
        })
        .collect();
    let mut m = Metrics::new();
    m.insert("setup_s", (calm(&run.setups), "s"));
    m.insert("read_mb_s", (calm(&mb_s), "MB/s"));
    m.insert("read_p50_us", (calm(&per_slice(run, false, 0.50)), "us"));
    // The tail is the 95th percentile: the highest with at least ten
    // samples beyond it in a one-second slice of paper reads (about 270)
    // and in one ingest (64 writes); a 99th would rest on a few.
    m.insert("read_p95_us", (calm(&per_slice(run, false, 0.95)), "us"));
    // The read workloads write only while loading: their write latency
    // is the ingest's, per set-up.
    let writes = |q| {
        if workload == Workload::HotMixed {
            per_slice(run, true, q)
        } else {
            per_setup(run, q)
        }
    };
    m.insert("write_p50_us", (calm(&writes(0.50)), "us"));
    m.insert("write_p95_us", (calm(&writes(0.95)), "us"));
    m.insert(
        "space_amp",
        (
            ratio(run.held_bytes as f64, run.acked_bytes as f64),
            "ratio",
        ),
    );
    m.insert("rebuild_s", (calm(&run.rebuilds), "s"));
    m.insert("peak_rss_mb", (report::peak_rss_mb(), "MiB"));
    m
}

/// Per-layer metrics of a traced run: counts from the program's own
/// recorders, times from the wrapper spans and recorder histograms.
fn per_layer(run: &mut Run, tracer: &Tracer) -> Metrics {
    let w = &run.window;
    let win = Delta { a: &w.p0, b: &w.p1 };
    let counts = Delta { a: &w.p0, b: &w.pc };
    let repair = Delta {
        a: &run.r0,
        b: &run.r1,
    };
    let reads = counts.counter("reads");
    let count_reads = w.count_reads as f64;

    // Spans inside the window, and the client ops they nest in.
    let (w0, w1) = (tracer.at(w.p0.at), tracer.at(w.p1.at));
    let spans: Vec<Span> = tracer
        .spans()
        .into_iter()
        .filter(|s| s.start >= w0 && s.end <= w1)
        .collect();
    let ops: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| trace::is_client(s.kind))
        .map(|s| (s.start, s.end))
        .collect();
    let n_ops = ops.len() as f64;
    let n_reads = spans.iter().filter(|s| s.kind == Kind::ClientRead).count() as f64;
    let client_ns: u64 = ops.iter().map(|(a, b)| b - a).sum();
    let mut rpc_in: Vec<Vec<(u64, u64)>> = vec![Vec::new(); ops.len()];
    let mut disk_in: Vec<Vec<(u64, u64)>> = vec![Vec::new(); ops.len()];
    let (mut rpc_ns, mut rpcs, mut rpc_bytes, mut disk_ns, mut disk_elems) = (0, 0, 0, 0, 0);
    for s in &spans {
        match s.kind {
            Kind::ShardRead if !s.repair => {
                rpc_ns += s.dur();
                rpcs += 1;
                rpc_bytes += s.bytes;
                if let Some(i) = enclosing(&ops, s) {
                    rpc_in[i].push((s.start, s.end));
                }
            }
            Kind::DiskRead | Kind::DiskWrite => {
                disk_ns += s.dur();
                if s.kind == Kind::DiskRead {
                    disk_elems += u64::from(s.elems);
                    if let Some(i) = enclosing(&ops, s) {
                        disk_in[i].push((s.start, s.end));
                    }
                }
            }
            _ => {}
        }
    }
    let rpc_union: u64 = rpc_in.iter_mut().map(|v| union_len(v)).sum();
    let disk_union: u64 = disk_in.iter_mut().map(|v| union_len(v)).sum();

    // Self time per client op, in µs. Recorder histograms are in µs,
    // spans in ns.
    let per_op = |x: f64| ratio(x, n_ops);
    let client = client_ns as f64 / 1e3;
    let front = win.front_serve_sum();
    let store_read = win.hist_sum("read_us");
    let plan = win.hist_sum("plan_us");
    let verify = win.hist_sum("verify_us");
    let decode = win.hist_sum("decode_us");
    let rpc = rpc_union as f64 / 1e3;
    let disk = disk_union as f64 / 1e3;
    let wire = client - front;
    let door = front - store_read;
    // The store's own residual: time inside store reads that no plan,
    // verify, decode or shard RPC measurement covers. Every other layer
    // counts as accounted for.
    let store_self = store_read - plan - verify - decode - rpc;
    let shard_self = rpc - disk;
    let accounted = client - store_self;

    let mut m = Metrics::new();
    m.insert("net.front.wire_us", (per_op(wire), "us"));
    m.insert("store.front.door_us", (per_op(door), "us"));
    m.insert(
        "store.front.cache_hit_rate",
        (win.cache_hit_rate(), "ratio"),
    );
    m.insert("store.read_us", (per_op(store_read), "us"));
    m.insert("store.self_us", (per_op(store_self), "us"));
    m.insert("store.reads_per_op", (ratio(reads, count_reads), "count"));
    m.insert(
        "store.fetch_cost",
        (
            ratio(counts.counter("fetched_elements"), counts.cache_misses()),
            "ratio",
        ),
    );
    m.insert(
        "store.replans_per_read",
        (ratio(counts.counter("replans"), reads), "count"),
    );
    // Over the stack's whole life: its ingest and the window's puts.
    let user_written = run.acked_bytes as f64;
    let logical = w.p1.stats.logical_bytes as f64;
    m.insert(
        "store.pad_bytes_per_user_byte",
        (ratio(logical - user_written, user_written), "ratio"),
    );
    let writes =
        w.p1.store
            .counters
            .get("tenant.bench.writes")
            .copied()
            .unwrap_or(0) as f64;
    m.insert(
        "store.stripes_sealed_per_write",
        (ratio(w.p1.stats.stripes as f64, writes), "count"),
    );
    m.insert("core.plan_us", (per_op(plan), "us"));
    m.insert(
        "core.disk_load_imbalance",
        (counts.load_imbalance(), "ratio"),
    );
    m.insert("codes.decode_us", (per_op(decode), "us"));
    m.insert(
        "codes.decoded_per_read",
        (
            ratio(counts.counter("decoded_elements"), count_reads),
            "count",
        ),
    );
    m.insert(
        "codes.decoder_cache_hit_rate",
        (win.decoder_hit_rate(), "ratio"),
    );
    m.insert("integrity.verify_us", (per_op(verify), "us"));
    let store_rpcs = counts.counter("read.rpcs");
    m.insert(
        "net.shard.rpcs_per_read",
        (ratio(store_rpcs, count_reads), "count"),
    );
    m.insert(
        "net.shard.coalesced_share",
        (
            ratio(counts.counter("read.coalesced_runs"), store_rpcs),
            "ratio",
        ),
    );
    m.insert(
        "net.shard.rpc_us",
        (ratio(rpc_ns as f64 / 1e3, rpcs as f64), "us"),
    );
    m.insert("net.shard.self_us", (per_op(shard_self), "us"));
    m.insert("net.shard.serve_us", (win.shard_serve_mean(), "us"));
    m.insert(
        "net.shard.wire_bytes_per_user_byte",
        (
            ratio(
                rpc_bytes as f64,
                run.tally.reads().map(|s| s.bytes).sum::<u64>() as f64,
            ),
            "ratio",
        ),
    );
    m.insert("net.shard.retries", (win.retries(), "count"));
    m.insert("sim.disk.busy_us", (per_op(disk), "us"));
    m.insert(
        "sim.disk.elems_per_read",
        (ratio(disk_elems as f64, n_reads), "count"),
    );
    m.insert(
        "sim.disk.busy_share",
        (
            ratio(disk_ns as f64, run.n_disks as f64 * (w1 - w0) as f64),
            "ratio",
        ),
    );
    let (stripe_sum, stripes) = repair.hist("repair_us");
    m.insert("store.repair.stripe_us", (ratio(stripe_sum, stripes), "us"));
    m.insert(
        "store.repair.wire_bytes_per_rebuilt_byte",
        (
            ratio(
                repair.counter("repair.wire_bytes"),
                repair.counter("repair.bytes"),
            ),
            "ratio",
        ),
    );
    m.insert(
        "store.repair.combined_share",
        (
            ratio(
                repair.counter("repair.combined_stripes"),
                repair.counter("repair.stripes_done"),
            ),
            "ratio",
        ),
    );
    m.insert("trace.client_op_us", (per_op(client), "us"));
    m.insert(
        "trace.read_p50_us",
        (run.steal.calm_median(&per_slice(run, false, 0.5)), "us"),
    );
    m.insert("trace.accounted_share", (ratio(accounted, client), "ratio"));
    m
}

/// The lines before the result: the environment stamp, the exact counts,
/// the operation tally, and (untraced) per-slice and per-repeat figures
/// so a noisy run can be told from a regression.
fn diagnostics(args: &Args, run: &Run) {
    let t = &run.tally;
    let w = &run.window;
    // Each repetition as value@steal share of its interval.
    let fmt = |reps: &[Rep], prec: usize| -> String {
        let v: Vec<String> = reps
            .iter()
            .map(|r| format!("{:.prec$}@{:.2}", r.value, run.steal.share(r.from, r.to)))
            .collect();
        format!("[{}]", v.join(","))
    };
    println!(
        "e2e workload={:?} seed={} layout={:?} trace={} seconds={}",
        args.workload, args.seed, args.layout, args.trace, args.seconds
    );
    let mut late = t.late_us.clone();
    println!(
        "env commit={} nproc={} gf_kernel={} steal_share={:.3} \
         generator_late_p50_us={:.0} generator_late_p99_us={:.0}",
        report::commit(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        ecfrm_gf::kernel::active().name,
        run.steal.share(w.w0, w.w1),
        quantile(&mut late, 0.5),
        quantile(&mut late, 0.99),
    );
    let c = Delta { a: &w.p0, b: &w.pc };
    println!(
        "counts window_ops={} count_reads={} rpcs_per_read={:.4} coalesced_share={:.4} \
         fetch_cost={:.4} hot_avoided={}",
        w.window_ops,
        w.count_reads,
        ratio(c.counter("read.rpcs"), w.count_reads as f64),
        ratio(c.counter("read.coalesced_runs"), c.counter("read.rpcs")),
        ratio(c.counter("fetched_elements"), c.cache_misses()),
        c.counter("front.hot_avoided"),
    );
    let reads = t.reads().count();
    println!(
        "ops attempted={} failed={} wrong={} ops_failed_frac={} reads={} writes={} rebuilds={}",
        t.attempted,
        t.failed,
        t.wrong,
        ratio(t.failed as f64, t.attempted as f64),
        reads,
        t.samples.len() - reads,
        run.rebuilds.len(),
    );
    for e in &t.errors {
        println!("error {e}");
    }
    if args.trace {
        return;
    }
    println!(
        "slices read_p50_us={}",
        fmt(&per_slice(run, false, 0.50), 0)
    );
    println!(
        "slices read_p95_us={}",
        fmt(&per_slice(run, false, 0.95), 0)
    );
    println!(
        "repeats setup_s={} ingest_p95_us={} rebuild_s={}",
        fmt(&run.setups, 3),
        fmt(&per_setup(run, 0.95), 0),
        fmt(&run.rebuilds, 3)
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}");
            eprintln!(
                "usage: e2e --workload <paper-read|degraded-read|hot-mixed|rebuild> --seed <n> \
                 --seconds <s> --trace <0|1> [--layout <standard|rotated|ecfrm>] [--quick]"
            );
            std::process::exit(2);
        }
    };
    let tracer = args.trace.then(Tracer::new);
    let mut run = match run(&args, tracer.as_ref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2e: run failed: {e}");
            std::process::exit(1);
        }
    };
    diagnostics(&args, &run);
    let t = &run.tally;
    let (correct, attempted, failed) = (t.wrong == 0, t.attempted, t.failed);
    let metrics = match &tracer {
        Some(tr) => {
            let m = per_layer(&mut run, tr);
            let dir = std::path::Path::new("e2e").join("out");
            let path = dir.join(format!("trace-{:?}-{}.tsv", args.workload, args.seed));
            match std::fs::create_dir_all(&dir).and_then(|()| tr.dump(&path)) {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(e) => println!("spans not written: {e}"),
            }
            m
        }
        None => end_to_end(&run, args.workload),
    };
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
