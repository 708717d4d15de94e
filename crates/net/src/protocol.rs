//! The wire protocol: a small, versioned, length-prefixed binary frame.
//!
//! Every frame is
//!
//! ```text
//! [ magic "EFRM" : 4 ][ version : 1 ][ opcode : 1 ][ payload len : u32 LE ][ payload ]
//! ```
//!
//! Integers inside payloads are little-endian. Eight operations exist:
//! `GetElement`, `PutElement`, `BatchGet`, `Health`, `InjectFault`
//! (the fault-injection side channel that lets a client drive a remote
//! shard's failure state exactly like a local disk's), `Stats`
//! (dump the server's metrics registry as flat name/value pairs),
//! `GetRange` (the coalesced batch form: one contiguous run of
//! elements, answered in a single bitmap-framed payload), and
//! `RangeChecked` (a `GetRange` that carries the store's integrity key
//! so the server verifies each element's checksum footer before
//! shipping it, answering with a per-element verdict). Both range ops
//! are additive: old servers reject the opcode and clients fall back.
//!
//! A ninth operation, `Mux`, wraps any other request together with a
//! client-chosen 64-bit request id; the matching [`Response::Mux`]
//! echoes the id, letting a client keep many requests in flight over
//! **one** connection and match completions as they land in any order.
//! Like the range ops it is additive in version 1: old servers reject
//! (and drop the connection on) the opcode, and clients latch back to
//! the pooled one-request-per-connection discipline.
//!
//! A tenth operation, `CombineRange`, moves repair decode arithmetic to
//! the data: the server multiplies a contiguous run of local elements
//! by a caller-supplied GF(2^8) coefficient matrix and ships back
//! pre-summed regions — optionally first fetching and XOR-merging other
//! helpers' partial sums ([`CombinePeer`]) so only the combined result
//! crosses the rebuilder's ingest link. Additive like the other new
//! ops, with the same probe-and-latch client fallback.
//!
//! Frames are streamed, one copy per hop. The encoder coalesces the
//! header and small fields into one buffer and writes element bytes
//! from where they lie, in one vectored write — there is no payload
//! buffer, and a `Mux` envelope costs a few header bytes, not a re-copy.
//! The decoder reads field by field from the socket, never past the
//! frame's end, and element bytes go from the socket straight into the
//! `Vec` the decoded message carries. Every check runs as the bytes
//! arrive: magic, version, [`MAX_PAYLOAD`], implausible counts,
//! truncation, trailing bytes and nested `Mux`.

use std::io::{IoSlice, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ecfrm_store::Slices;

/// Frame magic.
pub const MAGIC: [u8; 4] = *b"EFRM";
/// Protocol version this build speaks.
pub const VERSION: u8 = 1;
/// Upper bound on a sane payload (guards allocation on corrupt frames).
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// Transport / protocol failure.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// Malformed or unexpected frame.
    Protocol(String),
    /// The request exceeded its deadline.
    Timeout,
    /// The server reported an error.
    Remote(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Protocol(m) => write!(f, "protocol error: {m}"),
            NetError::Timeout => write!(f, "request timed out"),
            NetError::Remote(m) => write!(f, "remote error: {m}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ) {
            NetError::Timeout
        } else {
            NetError::Io(e)
        }
    }
}

/// A transport failure surfacing through the store reads as a network
/// error; callers holding a `Result<_, StoreError>` can `?` net calls.
impl From<NetError> for ecfrm_store::StoreError {
    fn from(e: NetError) -> Self {
        ecfrm_store::StoreError::Net(e.to_string())
    }
}

/// A store failure crossing back onto the wire (e.g. a server-side
/// handler) is reported to the peer as a remote error.
impl From<ecfrm_store::StoreError> for NetError {
    fn from(e: ecfrm_store::StoreError) -> Self {
        NetError::Remote(e.to_string())
    }
}

/// A failure-state change injected into a remote shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Reads return absent until healed.
    Fail,
    /// Clear the failure flag.
    Heal,
    /// Permanently erase contents.
    Wipe,
    /// Sleep this many milliseconds before serving each read (straggler
    /// simulation; 0 clears it).
    DelayMs(u64),
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Fetch one element.
    GetElement {
        /// Element offset on the shard.
        offset: u64,
    },
    /// Store one element.
    PutElement {
        /// Element offset on the shard.
        offset: u64,
        /// Element bytes.
        bytes: Vec<u8>,
    },
    /// Fetch several elements in one round trip.
    BatchGet {
        /// Element offsets, served in order.
        offsets: Vec<u64>,
    },
    /// Fetch a contiguous run of `count` elements starting at `offset`
    /// — the coalesced form of [`Request::BatchGet`] a client emits
    /// when a per-disk batch collapses into one sequential run (the
    /// common case under EC-FRM's sequential layout). Additive in
    /// protocol version 1: servers that predate it reject the opcode
    /// and clients fall back to `BatchGet`.
    GetRange {
        /// First element offset of the run.
        offset: u64,
        /// Number of consecutive elements.
        count: u32,
    },
    /// [`Request::GetRange`] with server-side integrity verification:
    /// the client ships its keyed-hash key and the server checks each
    /// stored cell's checksum footer against its offset before
    /// answering, classifying every element as valid, missing, or
    /// corrupt ([`CheckedElement`]). Corrupt cells are detected at the
    /// data, before crossing the network — the wire analogue of
    /// verify-on-read. Additive in protocol version 1: servers that
    /// predate it reject the opcode and clients fall back to
    /// `BatchGet` (verifying client-side as always).
    RangeChecked {
        /// First element offset of the run.
        offset: u64,
        /// Number of consecutive elements.
        count: u32,
        /// First word of the store's integrity key.
        k0: u64,
        /// Second word of the store's integrity key.
        k1: u64,
    },
    /// Multiply `count` contiguous local elements starting at `offset`
    /// by a row-major `outputs × count` GF(2^8) coefficient matrix and
    /// answer with one pre-summed region per output lane
    /// ([`Response::Combined`]) — the repair-traffic optimisation: a
    /// rebuild ships decode coefficients *to* the data and moves one
    /// combined region back instead of `k` raw elements. The server
    /// verifies each local element's checksum footer (under the shipped
    /// key) before it contributes, fetches and XOR-merges the partial
    /// sums of any `peers` (one level deep — forwarded requests carry
    /// no peers), and seals each returned region with a footer salted
    /// by `offset + lane`. Additive in protocol version 1: servers that
    /// predate it reject the opcode and clients fall back to fetching
    /// raw elements.
    CombineRange {
        /// First local element offset.
        offset: u64,
        /// Number of consecutive local elements.
        count: u32,
        /// Number of output lanes (pre-summed regions to return).
        outputs: u32,
        /// Row-major `outputs × count` coefficient matrix for the local
        /// elements.
        coeffs: Vec<u8>,
        /// First word of the store's integrity key.
        k0: u64,
        /// Second word of the store's integrity key.
        k1: u64,
        /// Other helpers whose partial sums this server fetches and
        /// merges before answering.
        peers: Vec<CombinePeer>,
    },
    /// Create an empty named object for a tenant on the server's
    /// object front door ([`ecfrm_store::FrontDoor`]). Part of the
    /// additive object-op family (opcodes 11–15, protocol version 1):
    /// servers that predate them reject the opcodes and clients fall
    /// back to a local front door over the shard data path
    /// (probe-and-latch like opcodes 7–10, but probing with a
    /// read-only `ObjStat` so timeouts and transient drops on a
    /// capable server never latch). Servers *without* a front door
    /// attached answer [`Response::Error`]`("no front door…")`
    /// instead.
    ObjCreate {
        /// Owning tenant.
        tenant: String,
        /// Object name, unique per tenant.
        object: String,
    },
    /// Append bytes to an existing object as one new extent.
    ObjWrite {
        /// Owning tenant.
        tenant: String,
        /// Object name.
        object: String,
        /// Bytes to append.
        bytes: Vec<u8>,
    },
    /// Read `len` bytes of an object starting at `start`
    /// (`len == u64::MAX` means "to the end").
    ObjGet {
        /// Owning tenant.
        tenant: String,
        /// Object name.
        object: String,
        /// First byte to read.
        start: u64,
        /// Bytes to read, or `u64::MAX` for the whole remainder.
        len: u64,
    },
    /// Object metadata probe.
    ObjStat {
        /// Owning tenant.
        tenant: String,
        /// Object name.
        object: String,
    },
    /// Drop an object's namespace record (metadata-only delete).
    ObjDelete {
        /// Owning tenant.
        tenant: String,
        /// Object name.
        object: String,
    },
    /// Liveness + occupancy probe.
    Health,
    /// Drive the shard's failure state.
    InjectFault(Fault),
    /// Dump the server's metrics registry.
    Stats,
    /// Any other request wrapped with a client-chosen id, for keeping
    /// many requests in flight over one connection. The server answers
    /// with [`Response::Mux`] carrying the same id; answers may arrive
    /// in any order. Nesting a `Mux` inside a `Mux` is a protocol
    /// error. Additive in protocol version 1: servers that predate it
    /// reject the opcode and clients fall back to pooled connections.
    Mux {
        /// Client-chosen request id, echoed by the response.
        id: u64,
        /// The wrapped request.
        inner: Box<Request>,
    },
}

/// One peer's share of a [`Request::CombineRange`], forwarded by the
/// aggregating server so partial sums merge beside the data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombinePeer {
    /// The peer shard's dialable address (`host:port`).
    pub addr: String,
    /// First element offset on the peer.
    pub offset: u64,
    /// Number of consecutive elements on the peer.
    pub count: u32,
    /// Row-major `outputs × count` coefficient matrix for the peer's
    /// elements (`outputs` comes from the enclosing request).
    pub coeffs: Vec<u8>,
}

/// One element of a [`Response::Checked`] — the server's per-element
/// integrity verdict for a [`Request::RangeChecked`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckedElement {
    /// Not stored (or the shard is failed).
    Missing,
    /// Stored and the checksum footer verified; carries the full cell
    /// (`payload || footer`) so the client can re-verify end-to-end.
    Valid(Vec<u8>),
    /// Stored but the checksum footer disagreed — the bytes are not
    /// shipped (they are known-bad; the client treats this as an
    /// erasure and saves the wire transfer).
    Corrupt,
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// One element (`None` = absent or failed).
    Element(Option<Vec<u8>>),
    /// Write acknowledged.
    Put,
    /// Batched elements, in request order.
    Batch(Vec<Option<Vec<u8>>>),
    /// A contiguous run of elements answering [`Request::GetRange`]:
    /// one frame carrying a presence bitmap plus the present elements'
    /// bytes, so a fully-present run costs 4 + ⌈count/8⌉ bytes of
    /// per-element framing total instead of 5 bytes *per element*.
    Range(Vec<Option<Vec<u8>>>),
    /// A contiguous run answering [`Request::RangeChecked`]: one
    /// status byte per element (so corrupt cells cost 1 byte, not a
    /// wasted element transfer) followed by the valid elements' bytes
    /// in order.
    Checked(Vec<CheckedElement>),
    /// The answer to a [`Request::CombineRange`]: one pre-summed region
    /// per output lane (each `payload || footer`, the footer salted by
    /// `offset + lane` under the request's key), plus per-local-element
    /// and per-peer verdicts (0 = ok, 1 = missing/unreachable,
    /// 2 = corrupt, 3 = declined) so the rebuilder can exclude a bad
    /// helper and re-plan. `regions` is empty when nothing contributed.
    Combined {
        /// One region per output lane.
        regions: Vec<Vec<u8>>,
        /// Verdict per local element, in offset order.
        local_status: Vec<u8>,
        /// Verdict per forwarded peer, in request order. A non-ok peer
        /// contributed nothing to the sums.
        peer_status: Vec<u8>,
    },
    /// Object op acknowledged ([`Request::ObjCreate`] /
    /// [`Request::ObjWrite`] / [`Request::ObjDelete`]).
    ObjAck,
    /// The bytes answering a [`Request::ObjGet`]: slices of the front
    /// door's element buffers on the way out, one buffer once decoded.
    ObjData(Slices),
    /// The answer to a [`Request::ObjStat`].
    ObjStat {
        /// Object length in bytes.
        len: u64,
        /// Mutation version (create = 1, +1 per write).
        version: u64,
        /// Number of stream extents backing the object.
        extents: u32,
    },
    /// Health probe answer: stored element count.
    Health {
        /// Elements currently stored.
        elements: u64,
    },
    /// Fault injection acknowledged.
    FaultInjected,
    /// Flattened metrics: sorted `(name, value)` pairs.
    Stats(Vec<(String, u64)>),
    /// Server-side failure.
    Error(String),
    /// The answer to a [`Request::Mux`]: the wrapped response plus the
    /// request's id, so the client can match completions out of order.
    Mux {
        /// The id of the request this answers.
        id: u64,
        /// The wrapped response.
        inner: Box<Response>,
    },
}

const OP_GET: u8 = 1;
const OP_PUT: u8 = 2;
const OP_BATCH_GET: u8 = 3;
const OP_HEALTH: u8 = 4;
const OP_INJECT: u8 = 5;
const OP_STATS: u8 = 6;
const OP_GET_RANGE: u8 = 7;
const OP_RANGE_CHECKED: u8 = 8;
const OP_MUX: u8 = 9;
const OP_COMBINE_RANGE: u8 = 10;
const OP_OBJ_CREATE: u8 = 11;
const OP_OBJ_WRITE: u8 = 12;
const OP_OBJ_GET: u8 = 13;
const OP_OBJ_STAT: u8 = 14;
const OP_OBJ_DELETE: u8 = 15;

const RESP_ELEMENT: u8 = 129;
const RESP_PUT: u8 = 130;
const RESP_BATCH: u8 = 131;
const RESP_HEALTH: u8 = 132;
const RESP_FAULT: u8 = 133;
const RESP_STATS: u8 = 134;
const RESP_RANGE: u8 = 135;
const RESP_CHECKED: u8 = 136;
const RESP_MUX: u8 = 137;
const RESP_COMBINED: u8 = 138;
const RESP_OBJ_ACK: u8 = 139;
const RESP_OBJ_DATA: u8 = 140;
const RESP_OBJ_STAT: u8 = 141;
const RESP_ERROR: u8 = 255;

/// Payload slices shorter than this are copied into the frame's field
/// buffer; longer ones — the paper's 64 KiB elements — are written from
/// where they lie. For small elements one memcpy costs less than an
/// iovec of its own: on loopback, a 32 KiB put right after a 32 KiB get
/// on one connection took 75–97 µs with the get's eight 4 KiB slices
/// sent as iovecs, and 48 µs with them coalesced.
const INLINE_MAX: usize = 16 << 10;

/// One frame on its way out: the header and every small field coalesced
/// in one buffer, element slices borrowed in place. Writing it is one
/// vectored write of header, fields and slices — no payload buffer, and
/// a `Mux` envelope is just more fields ahead of its inner body.
///
/// A message is encoded twice: first by a sizing encoder that only
/// counts, so the frame is checked against [`MAX_PAYLOAD`] before
/// anything is allocated and the field buffer is allocated once, then
/// for real.
struct Encoder<'a> {
    /// Count bytes, store nothing.
    sizing: bool,
    /// Bytes of header and fields.
    inline: usize,
    /// Header, then the small fields in payload order.
    fields: Vec<u8>,
    /// `(fields.len() at the cut, slice)`: a borrowed slice written
    /// after `fields[..cut]`.
    slices: Vec<(usize, &'a [u8])>,
    /// Total bytes of borrowed slices.
    sliced: usize,
    /// Number of borrowed slices.
    refs: usize,
}

impl<'a> Encoder<'a> {
    fn sizing() -> Self {
        Self {
            sizing: true,
            inline: 10,
            fields: Vec::new(),
            slices: Vec::new(),
            sliced: 0,
            refs: 0,
        }
    }

    /// An encoder for a frame its sizing pass measured.
    fn sized(opcode: u8, size: &Encoder<'_>) -> Self {
        let mut fields = Vec::with_capacity(size.inline);
        fields.extend_from_slice(&MAGIC);
        fields.push(VERSION);
        fields.push(opcode);
        let len = size.inline - 10 + size.sliced;
        fields.extend_from_slice(&(len as u32).to_le_bytes());
        Self {
            sizing: false,
            inline: 10,
            fields,
            slices: Vec::with_capacity(size.refs),
            sliced: 0,
            refs: 0,
        }
    }

    fn put(&mut self, b: &[u8]) {
        self.inline += b.len();
        if !self.sizing {
            self.fields.extend_from_slice(b);
        }
    }

    fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    fn raw(&mut self, b: &'a [u8]) {
        if b.len() < INLINE_MAX {
            self.put(b);
        } else {
            if !self.sizing {
                self.slices.push((self.fields.len(), b));
            }
            self.sliced += b.len();
            self.refs += 1;
        }
    }

    /// `[len:u32][bytes]`.
    fn bytes(&mut self, b: &'a [u8]) {
        self.u32(b.len() as u32);
        self.raw(b);
    }

    /// `Some(bytes)` ↔ `[1][len:u32][bytes]`, `None` ↔ `[0]`.
    fn opt_bytes(&mut self, v: &'a Option<Vec<u8>>) {
        match v {
            Some(b) => {
                self.u8(1);
                self.bytes(b);
            }
            None => self.u8(0),
        }
    }

    /// Write the frame.
    fn finish(self, w: &mut impl Write) -> Result<(), NetError> {
        let mut parts = Vec::with_capacity(2 * self.slices.len() + 1);
        let mut cut = 0;
        for &(at, s) in &self.slices {
            if at > cut {
                parts.push(IoSlice::new(&self.fields[cut..at]));
            }
            parts.push(IoSlice::new(s));
            cut = at;
        }
        if self.fields.len() > cut {
            parts.push(IoSlice::new(&self.fields[cut..]));
        }
        let mut parts = &mut parts[..];
        while !parts.is_empty() {
            match w.write_vectored(parts) {
                Ok(0) => {
                    return Err(NetError::Io(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted no bytes mid-frame",
                    )))
                }
                Ok(n) => IoSlice::advance_slices(&mut parts, n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        w.flush()?;
        Ok(())
    }
}

/// Payload bytes pulled from the socket per refill of the field buffer.
const FIELD_BUF: usize = 1024;

/// Element buffers start at most this large and grow as their bytes
/// arrive, so a header promising a huge element costs nothing until the
/// bytes are really sent.
const EAGER_ALLOC: usize = 1 << 20;

/// How a frame read treats the socket's read timeout.
#[derive(Clone, Copy)]
enum Wait<'a> {
    /// A blocking stream: its timeout is the request's deadline and
    /// surfaces as [`NetError::Timeout`].
    Block,
    /// A socket with a short poll timeout, waited out until `deadline`
    /// while `stop` stays down.
    Poll {
        stop: &'a AtomicBool,
        deadline: Instant,
    },
}

impl Wait<'_> {
    /// `Ok` if the failed read should simply be retried: an interrupted
    /// call, or a poll tick inside the frame's deadline.
    fn wait_out(&self, e: std::io::Error) -> Result<(), NetError> {
        if e.kind() == std::io::ErrorKind::Interrupted {
            return Ok(());
        }
        match self {
            Wait::Poll { stop, deadline } if is_poll_timeout(&e) => {
                if stop.load(Ordering::Acquire) {
                    Err(NetError::Protocol("stop flag raised mid-frame".into()))
                } else if Instant::now() >= *deadline {
                    Err(NetError::Timeout)
                } else {
                    Ok(())
                }
            }
            _ => Err(e.into()),
        }
    }
}

fn is_poll_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// The payload of one frame, read field by field from its socket. It
/// never reads past the frame's end, so any stream — pooled, buffered or
/// raw — stays in sync for the next frame. Small fields come from a
/// little buffer; element bytes go from the socket straight into their
/// own `Vec`.
struct Payload<'r, R> {
    src: &'r mut R,
    wait: Wait<'r>,
    /// Payload bytes the decoder has not consumed yet (buffered or not).
    left: usize,
    buf: [u8; FIELD_BUF],
    lo: usize,
    hi: usize,
}

impl<'r, R: Read> Payload<'r, R> {
    fn new(src: &'r mut R, wait: Wait<'r>, len: usize) -> Self {
        Self {
            src,
            wait,
            left: len,
            buf: [0; FIELD_BUF],
            lo: 0,
            hi: 0,
        }
    }

    fn claim(&self, n: usize) -> Result<(), NetError> {
        if n > self.left {
            return Err(NetError::Protocol("payload truncated".into()));
        }
        Ok(())
    }

    /// The next `N` (≤ [`FIELD_BUF`]) payload bytes.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], NetError> {
        self.claim(N)?;
        if self.hi - self.lo < N {
            self.buf.copy_within(self.lo..self.hi, 0);
            self.hi -= self.lo;
            self.lo = 0;
            // Everything buffered is unconsumed payload, so the socket
            // still holds `left - hi` bytes of this frame.
            let want = FIELD_BUF.min(self.left);
            while self.hi < N {
                match self.src.read(&mut self.buf[self.hi..want]) {
                    Ok(0) => return Err(truncated_stream()),
                    Ok(n) => self.hi += n,
                    Err(e) => self.wait.wait_out(e)?,
                }
            }
        }
        let out: [u8; N] = self.buf[self.lo..self.lo + N]
            .try_into()
            .expect("an N-byte slice");
        self.lo += N;
        self.left -= N;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, NetError> {
        Ok(self.array::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, NetError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, NetError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// The next `len` payload bytes as their own buffer.
    fn raw(&mut self, len: usize) -> Result<Vec<u8>, NetError> {
        self.claim(len)?;
        let mut out = Vec::with_capacity(len.min(EAGER_ALLOC));
        let buffered = len.min(self.hi - self.lo);
        out.extend_from_slice(&self.buf[self.lo..self.lo + buffered]);
        self.lo += buffered;
        // The rest straight from the socket. `read_to_end` keeps what it
        // read before an error, so a poll tick just resumes.
        while out.len() < len {
            let rest = (len - out.len()) as u64;
            match (&mut *self.src).take(rest).read_to_end(&mut out) {
                Ok(_) if out.len() < len => return Err(truncated_stream()),
                Ok(_) => {}
                Err(e) => self.wait.wait_out(e)?,
            }
        }
        self.left -= len;
        Ok(out)
    }

    /// `[len:u32][bytes]`.
    fn bytes(&mut self) -> Result<Vec<u8>, NetError> {
        let len = self.u32()? as usize;
        self.raw(len)
    }

    /// `[len:u32][utf-8 bytes]`; `what` names the field in the error.
    fn string(&mut self, what: &str) -> Result<String, NetError> {
        String::from_utf8(self.bytes()?)
            .map_err(|_| NetError::Protocol(format!("{what} is not UTF-8")))
    }

    fn opt_bytes(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.bytes()?)),
            t => Err(NetError::Protocol(format!("bad option tag {t}"))),
        }
    }

    /// Everything not yet consumed.
    fn rest(&mut self) -> Result<Vec<u8>, NetError> {
        self.raw(self.left)
    }

    fn done(&self) -> Result<(), NetError> {
        if self.left == 0 {
            Ok(())
        } else {
            Err(NetError::Protocol("trailing bytes in payload".into()))
        }
    }
}

fn truncated_stream() -> NetError {
    NetError::Io(std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        "stream ended mid-frame",
    ))
}

/// A message read off the wire: one decoder per message type, run
/// field by field over a frame's [`Payload`].
trait Decode: Sized {
    fn decode<R: Read>(opcode: u8, p: &mut Payload<'_, R>) -> Result<Self, NetError>;
}

/// A count that cannot be right: more items than a frame has bytes.
fn plausible(n: usize, what: &str) -> Result<usize, NetError> {
    if n > MAX_PAYLOAD as usize {
        return Err(NetError::Protocol(format!("{what} {n} implausible")));
    }
    Ok(n)
}

impl Request {
    fn opcode(&self) -> u8 {
        match self {
            Request::GetElement { .. } => OP_GET,
            Request::PutElement { .. } => OP_PUT,
            Request::BatchGet { .. } => OP_BATCH_GET,
            Request::GetRange { .. } => OP_GET_RANGE,
            Request::RangeChecked { .. } => OP_RANGE_CHECKED,
            Request::CombineRange { .. } => OP_COMBINE_RANGE,
            Request::ObjCreate { .. } => OP_OBJ_CREATE,
            Request::ObjWrite { .. } => OP_OBJ_WRITE,
            Request::ObjGet { .. } => OP_OBJ_GET,
            Request::ObjStat { .. } => OP_OBJ_STAT,
            Request::ObjDelete { .. } => OP_OBJ_DELETE,
            Request::Health => OP_HEALTH,
            Request::InjectFault(_) => OP_INJECT,
            Request::Stats => OP_STATS,
            Request::Mux { .. } => OP_MUX,
        }
    }

    /// Append this request's payload to a frame.
    fn encode<'a>(&'a self, e: &mut Encoder<'a>) {
        match self {
            Request::GetElement { offset } => e.u64(*offset),
            Request::PutElement { offset, bytes } => {
                e.u64(*offset);
                e.bytes(bytes);
            }
            Request::BatchGet { offsets } => {
                e.u32(offsets.len() as u32);
                for &o in offsets {
                    e.u64(o);
                }
            }
            Request::GetRange { offset, count } => {
                e.u64(*offset);
                e.u32(*count);
            }
            Request::RangeChecked {
                offset,
                count,
                k0,
                k1,
            } => {
                e.u64(*offset);
                e.u32(*count);
                e.u64(*k0);
                e.u64(*k1);
            }
            Request::CombineRange {
                offset,
                count,
                outputs,
                coeffs,
                k0,
                k1,
                peers,
            } => {
                // [offset:u64][count:u32][outputs:u32][coeffs len:u32]
                // [coeffs][k0:u64][k1:u64][n_peers:u32] then per peer
                // [addr len:u32][addr][offset:u64][count:u32]
                // [coeffs len:u32][coeffs].
                e.u64(*offset);
                e.u32(*count);
                e.u32(*outputs);
                e.bytes(coeffs);
                e.u64(*k0);
                e.u64(*k1);
                e.u32(peers.len() as u32);
                for p in peers {
                    e.bytes(p.addr.as_bytes());
                    e.u64(p.offset);
                    e.u32(p.count);
                    e.bytes(&p.coeffs);
                }
            }
            Request::ObjCreate { tenant, object }
            | Request::ObjStat { tenant, object }
            | Request::ObjDelete { tenant, object } => {
                // [tenant len:u32][tenant][object len:u32][object].
                e.bytes(tenant.as_bytes());
                e.bytes(object.as_bytes());
            }
            Request::ObjWrite {
                tenant,
                object,
                bytes,
            } => {
                // [tenant][object][bytes len:u32][bytes].
                e.bytes(tenant.as_bytes());
                e.bytes(object.as_bytes());
                e.bytes(bytes);
            }
            Request::ObjGet {
                tenant,
                object,
                start,
                len,
            } => {
                // [tenant][object][start:u64][len:u64].
                e.bytes(tenant.as_bytes());
                e.bytes(object.as_bytes());
                e.u64(*start);
                e.u64(*len);
            }
            Request::Health | Request::Stats => {}
            Request::Mux { id, inner } => {
                // [id:u64][inner opcode:u8][inner payload].
                e.u64(*id);
                e.u8(inner.opcode());
                inner.encode(e);
            }
            Request::InjectFault(fault) => match fault {
                Fault::Fail => e.u8(0),
                Fault::Heal => e.u8(1),
                Fault::Wipe => e.u8(2),
                Fault::DelayMs(ms) => {
                    e.u8(3);
                    e.u64(*ms);
                }
            },
        }
    }
}

impl Decode for Request {
    fn decode<R: Read>(opcode: u8, p: &mut Payload<'_, R>) -> Result<Self, NetError> {
        Ok(match opcode {
            OP_GET => Request::GetElement { offset: p.u64()? },
            OP_PUT => Request::PutElement {
                offset: p.u64()?,
                bytes: p.bytes()?,
            },
            OP_BATCH_GET => {
                let n = p.u32()? as usize;
                let mut offsets = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    offsets.push(p.u64()?);
                }
                Request::BatchGet { offsets }
            }
            OP_GET_RANGE => Request::GetRange {
                offset: p.u64()?,
                count: p.u32()?,
            },
            OP_RANGE_CHECKED => Request::RangeChecked {
                offset: p.u64()?,
                count: p.u32()?,
                k0: p.u64()?,
                k1: p.u64()?,
            },
            OP_COMBINE_RANGE => {
                let offset = p.u64()?;
                let count = p.u32()?;
                let outputs = p.u32()?;
                let coeffs = p.bytes()?;
                let k0 = p.u64()?;
                let k1 = p.u64()?;
                let n = p.u32()? as usize;
                let mut peers = Vec::with_capacity(n.min(1 << 10));
                for _ in 0..n {
                    peers.push(CombinePeer {
                        addr: p.string("peer address")?,
                        offset: p.u64()?,
                        count: p.u32()?,
                        coeffs: p.bytes()?,
                    });
                }
                Request::CombineRange {
                    offset,
                    count,
                    outputs,
                    coeffs,
                    k0,
                    k1,
                    peers,
                }
            }
            OP_OBJ_CREATE => Request::ObjCreate {
                tenant: p.string("string")?,
                object: p.string("string")?,
            },
            OP_OBJ_WRITE => Request::ObjWrite {
                tenant: p.string("string")?,
                object: p.string("string")?,
                bytes: p.bytes()?,
            },
            OP_OBJ_GET => Request::ObjGet {
                tenant: p.string("string")?,
                object: p.string("string")?,
                start: p.u64()?,
                len: p.u64()?,
            },
            OP_OBJ_STAT => Request::ObjStat {
                tenant: p.string("string")?,
                object: p.string("string")?,
            },
            OP_OBJ_DELETE => Request::ObjDelete {
                tenant: p.string("string")?,
                object: p.string("string")?,
            },
            OP_HEALTH => Request::Health,
            OP_STATS => Request::Stats,
            OP_MUX => {
                let id = p.u64()?;
                let op = p.u8()?;
                if op == OP_MUX {
                    return Err(NetError::Protocol("nested mux request".into()));
                }
                Request::Mux {
                    id,
                    inner: Box::new(Request::decode(op, p)?),
                }
            }
            OP_INJECT => Request::InjectFault(match p.u8()? {
                0 => Fault::Fail,
                1 => Fault::Heal,
                2 => Fault::Wipe,
                3 => Fault::DelayMs(p.u64()?),
                t => return Err(NetError::Protocol(format!("bad fault tag {t}"))),
            }),
            op => return Err(NetError::Protocol(format!("unknown request opcode {op}"))),
        })
    }
}

impl Response {
    fn opcode(&self) -> u8 {
        match self {
            Response::Element(_) => RESP_ELEMENT,
            Response::Put => RESP_PUT,
            Response::Batch(_) => RESP_BATCH,
            Response::Range(_) => RESP_RANGE,
            Response::Checked(_) => RESP_CHECKED,
            Response::Combined { .. } => RESP_COMBINED,
            Response::ObjAck => RESP_OBJ_ACK,
            Response::ObjData(_) => RESP_OBJ_DATA,
            Response::ObjStat { .. } => RESP_OBJ_STAT,
            Response::Health { .. } => RESP_HEALTH,
            Response::FaultInjected => RESP_FAULT,
            Response::Stats(_) => RESP_STATS,
            Response::Error(_) => RESP_ERROR,
            Response::Mux { .. } => RESP_MUX,
        }
    }

    /// Append this response's payload to a frame.
    fn encode<'a>(&'a self, e: &mut Encoder<'a>) {
        match self {
            Response::Element(v) => e.opt_bytes(v),
            Response::Put | Response::FaultInjected | Response::ObjAck => {}
            Response::Batch(items) => {
                e.u32(items.len() as u32);
                for v in items {
                    e.opt_bytes(v);
                }
            }
            Response::Range(items) => {
                // [count:u32][presence bitmap: ceil(count/8) bytes, LSB
                // first][per present element: len:u32 + bytes].
                e.u32(items.len() as u32);
                let mut bitmap = vec![0u8; items.len().div_ceil(8)];
                for (i, v) in items.iter().enumerate() {
                    if v.is_some() {
                        bitmap[i / 8] |= 1 << (i % 8);
                    }
                }
                e.put(&bitmap);
                for v in items.iter().flatten() {
                    e.bytes(v);
                }
            }
            Response::Checked(items) => {
                // [count:u32][status byte per element: 0=missing,
                // 1=valid, 2=corrupt][per valid element, in order:
                // len:u32 + bytes]. Corrupt cells ship a verdict but
                // no payload.
                e.u32(items.len() as u32);
                for item in items {
                    e.u8(match item {
                        CheckedElement::Missing => 0,
                        CheckedElement::Valid(_) => 1,
                        CheckedElement::Corrupt => 2,
                    });
                }
                for item in items {
                    if let CheckedElement::Valid(v) = item {
                        e.bytes(v);
                    }
                }
            }
            Response::Combined {
                regions,
                local_status,
                peer_status,
            } => {
                // [n_regions:u32][per region: len:u32 + bytes]
                // [n_local:u32][status bytes][n_peers:u32][status bytes].
                e.u32(regions.len() as u32);
                for r in regions {
                    e.bytes(r);
                }
                e.bytes(local_status);
                e.bytes(peer_status);
            }
            Response::ObjData(slices) => {
                // [len:u32][bytes], the bytes written slice by slice
                // straight from the front door's element buffers.
                e.u32(slices.len() as u32);
                for s in slices.iter() {
                    e.raw(s);
                }
            }
            Response::ObjStat {
                len,
                version,
                extents,
            } => {
                // [len:u64][version:u64][extents:u32].
                e.u64(*len);
                e.u64(*version);
                e.u32(*extents);
            }
            Response::Health { elements } => e.u64(*elements),
            Response::Stats(pairs) => {
                e.u32(pairs.len() as u32);
                for (name, value) in pairs {
                    e.bytes(name.as_bytes());
                    e.u64(*value);
                }
            }
            Response::Error(msg) => e.raw(msg.as_bytes()),
            Response::Mux { id, inner } => {
                // [id:u64][inner opcode:u8][inner payload].
                e.u64(*id);
                e.u8(inner.opcode());
                inner.encode(e);
            }
        }
    }
}

/// Element bytes land directly in the `Vec`s the response carries.
impl Decode for Response {
    fn decode<R: Read>(opcode: u8, p: &mut Payload<'_, R>) -> Result<Self, NetError> {
        Ok(match opcode {
            RESP_ELEMENT => Response::Element(p.opt_bytes()?),
            RESP_PUT => Response::Put,
            RESP_BATCH => {
                let n = p.u32()? as usize;
                let mut items = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    items.push(p.opt_bytes()?);
                }
                Response::Batch(items)
            }
            RESP_RANGE => {
                let n = plausible(p.u32()? as usize, "range count")?;
                let bitmap = p.raw(n.div_ceil(8))?;
                let mut items = Vec::with_capacity(n.min(1 << 20));
                for i in 0..n {
                    items.push(if bitmap[i / 8] & (1 << (i % 8)) != 0 {
                        Some(p.bytes()?)
                    } else {
                        None
                    });
                }
                Response::Range(items)
            }
            RESP_CHECKED => {
                let n = plausible(p.u32()? as usize, "checked count")?;
                let statuses = p.raw(n)?;
                let mut items = Vec::with_capacity(n.min(1 << 20));
                for s in statuses {
                    items.push(match s {
                        0 => CheckedElement::Missing,
                        1 => CheckedElement::Valid(p.bytes()?),
                        2 => CheckedElement::Corrupt,
                        t => {
                            return Err(NetError::Protocol(format!("bad checked status {t}")));
                        }
                    });
                }
                Response::Checked(items)
            }
            RESP_COMBINED => {
                let n = plausible(p.u32()? as usize, "combined region count")?;
                let mut regions = Vec::with_capacity(n.min(1 << 10));
                for _ in 0..n {
                    regions.push(p.bytes()?);
                }
                let nl = plausible(p.u32()? as usize, "combined status count")?;
                let local_status = p.raw(nl)?;
                let np = plausible(p.u32()? as usize, "combined peer count")?;
                let peer_status = p.raw(np)?;
                Response::Combined {
                    regions,
                    local_status,
                    peer_status,
                }
            }
            RESP_OBJ_ACK => Response::ObjAck,
            RESP_OBJ_DATA => Response::ObjData(Slices::from(p.bytes()?)),
            RESP_OBJ_STAT => Response::ObjStat {
                len: p.u64()?,
                version: p.u64()?,
                extents: p.u32()?,
            },
            RESP_HEALTH => Response::Health { elements: p.u64()? },
            RESP_FAULT => Response::FaultInjected,
            RESP_STATS => {
                let n = p.u32()? as usize;
                let mut pairs = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    pairs.push((p.string("stats name")?, p.u64()?));
                }
                Response::Stats(pairs)
            }
            RESP_MUX => {
                let id = p.u64()?;
                let op = p.u8()?;
                if op == RESP_MUX {
                    return Err(NetError::Protocol("nested mux response".into()));
                }
                Response::Mux {
                    id,
                    inner: Box::new(Response::decode(op, p)?),
                }
            }
            RESP_ERROR => Response::Error(String::from_utf8_lossy(&p.rest()?).into_owned()),
            op => return Err(NetError::Protocol(format!("unknown response opcode {op}"))),
        })
    }
}

/// Largest [`Response::ObjData`] reply, in object bytes, that fits one
/// frame: [`MAX_PAYLOAD`] less the length prefix, and less the id and
/// inner opcode when the reply travels in a [`Response::Mux`] envelope.
pub fn max_obj_reply(muxed: bool) -> u64 {
    let envelope = if muxed { 8 + 1 } else { 0 };
    u64::from(MAX_PAYLOAD) - 4 - envelope
}

/// How long a polling reader waits for the rest of a frame once its
/// first byte has arrived. The same 5 s bound a blocked write gets: a
/// peer that starts a frame and stalls loses its connection instead of
/// pinning the reading thread.
pub const FRAME_DEADLINE: Duration = Duration::from_secs(5);

/// Decode one frame whose 10-byte header has been read: check magic,
/// version and length, stream the payload through `decode`, and require
/// that it consumed the payload exactly.
fn decode_frame<R: Read, T: Decode>(
    src: &mut R,
    wait: Wait<'_>,
    header: [u8; 10],
) -> Result<T, NetError> {
    if header[..4] != MAGIC {
        return Err(NetError::Protocol("bad magic".into()));
    }
    if header[4] != VERSION {
        return Err(NetError::Protocol(format!(
            "unsupported protocol version {} (this build speaks {VERSION})",
            header[4]
        )));
    }
    let len = u32::from_le_bytes(header[6..10].try_into().expect("a 4-byte slice"));
    if len > MAX_PAYLOAD {
        return Err(NetError::Protocol(format!(
            "payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte cap"
        )));
    }
    let mut payload = Payload::new(src, wait, len as usize);
    let out = T::decode(header[5], &mut payload)?;
    payload.done()?;
    Ok(out)
}

/// Read one frame off a blocking stream. The stream's own read timeout
/// applies and surfaces as [`NetError::Timeout`].
fn recv<T: Decode>(r: &mut impl Read) -> Result<T, NetError> {
    let mut header = [0u8; 10];
    r.read_exact(&mut header)?;
    decode_frame(r, Wait::Block, header)
}

/// Outcome of one polling read attempt on a socket with a short read
/// timeout.
#[derive(Debug)]
pub enum Polled<T> {
    /// A complete, well-formed frame.
    Frame(T),
    /// The timeout elapsed with no frame started — poll again (the
    /// client's demux sweeps request deadlines here).
    Idle,
    /// Peer hung up, stalled mid-frame past [`FRAME_DEADLINE`], the stop
    /// flag was raised, or the stream is garbage.
    Closed,
}

/// A polled request frame on a server connection.
pub type PolledRequest = Polled<Request>;

/// A polled response frame on a multiplexed client connection.
pub type PolledResponse = Polled<Response>;

/// Read one frame from a socket with a short read timeout, without ever
/// losing sync: a timeout *before* the first byte reports `Idle`; once
/// a frame has started, timeouts are waited out (checking `stop`) until
/// [`FRAME_DEADLINE`], after which — like on EOF, a raised stop flag or
/// any malformed frame — the stream is `Closed`.
fn poll_recv<T: Decode>(r: &mut impl Read, stop: &AtomicBool) -> Polled<T> {
    let mut header = [0u8; 10];
    let first = loop {
        if stop.load(Ordering::Acquire) {
            return Polled::Closed;
        }
        match r.read(&mut header) {
            Ok(0) => return Polled::Closed,
            Ok(n) => break n,
            Err(e) if is_poll_timeout(&e) => return Polled::Idle,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Polled::Closed,
        }
    };
    let wait = Wait::Poll {
        stop,
        deadline: Instant::now() + FRAME_DEADLINE,
    };
    let mut got = first;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) => return Polled::Closed,
            Ok(n) => got += n,
            Err(e) => {
                if wait.wait_out(e).is_err() {
                    return Polled::Closed;
                }
            }
        }
    }
    match decode_frame(r, wait, header) {
        Ok(v) => Polled::Frame(v),
        Err(_) => Polled::Closed,
    }
}

/// Read one request frame from a socket with a short read timeout,
/// without ever losing sync: a timeout *between* frames reports
/// [`Polled::Idle`], while a timeout *inside* a partially read frame
/// keeps polling (checking `stop` each round) until the rest of the
/// frame arrives or [`FRAME_DEADLINE`] passes.
pub fn read_request_polling(r: &mut impl Read, stop: &AtomicBool) -> PolledRequest {
    poll_recv(r, stop)
}

/// Read one response frame from a socket with a short read timeout —
/// the demux side of a multiplexed connection. Same sync discipline as
/// [`read_request_polling`]: idle only ever between frames.
pub fn read_response_polling(r: &mut impl Read, stop: &AtomicBool) -> PolledResponse {
    poll_recv(r, stop)
}

/// Size, check and write one frame whose payload `encode` produces.
/// An oversized frame writes nothing.
fn write_frame<'a>(
    w: &mut impl Write,
    opcode: u8,
    encode: impl Fn(&mut Encoder<'a>),
) -> Result<(), NetError> {
    let mut size = Encoder::sizing();
    encode(&mut size);
    let len = size.inline - 10 + size.sliced;
    if len > MAX_PAYLOAD as usize {
        return Err(NetError::Protocol(format!(
            "payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte cap"
        )));
    }
    let mut e = Encoder::sized(opcode, &size);
    encode(&mut e);
    e.finish(w)
}

/// Serialise one request onto a stream: one vectored write of header,
/// fields and element bytes.
///
/// # Errors
/// I/O failure, or an oversized payload (nothing is written).
pub fn write_request(w: &mut impl Write, req: &Request) -> Result<(), NetError> {
    write_frame(w, req.opcode(), |e| req.encode(e))
}

/// Read one request frame off a stream.
///
/// # Errors
/// I/O failure or a malformed frame.
pub fn read_request(r: &mut impl Read) -> Result<Request, NetError> {
    recv(r)
}

/// Serialise one response onto a stream: one vectored write of header,
/// fields and element bytes.
///
/// # Errors
/// I/O failure, or an oversized payload (nothing is written).
pub fn write_response(w: &mut impl Write, resp: &Response) -> Result<(), NetError> {
    write_frame(w, resp.opcode(), |e| resp.encode(e))
}

/// Read one response frame off a stream.
///
/// # Errors
/// I/O failure or a malformed frame.
pub fn read_response(r: &mut impl Read) -> Result<Response, NetError> {
    recv(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        let got = read_request(&mut buf.as_slice()).unwrap();
        assert_eq!(got, req);
    }

    fn roundtrip_response(resp: Response) {
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        let got = read_response(&mut buf.as_slice()).unwrap();
        assert_eq!(got, resp);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(Request::GetElement { offset: 42 });
        roundtrip_request(Request::PutElement {
            offset: u64::MAX,
            bytes: vec![1, 2, 3, 0, 255],
        });
        roundtrip_request(Request::PutElement {
            offset: 0,
            bytes: vec![],
        });
        roundtrip_request(Request::BatchGet {
            offsets: vec![0, 7, 1 << 40],
        });
        roundtrip_request(Request::BatchGet { offsets: vec![] });
        roundtrip_request(Request::GetRange {
            offset: 0,
            count: 1,
        });
        roundtrip_request(Request::GetRange {
            offset: 1 << 40,
            count: u32::MAX,
        });
        roundtrip_request(Request::RangeChecked {
            offset: 0,
            count: 1,
            k0: 0,
            k1: 0,
        });
        roundtrip_request(Request::RangeChecked {
            offset: 1 << 40,
            count: 4096,
            k0: u64::MAX,
            k1: 0xDEAD_BEEF_CAFE_F00D,
        });
        roundtrip_request(Request::Health);
        roundtrip_request(Request::Stats);
        for fault in [Fault::Fail, Fault::Heal, Fault::Wipe, Fault::DelayMs(250)] {
            roundtrip_request(Request::InjectFault(fault));
        }
    }

    #[test]
    fn object_op_roundtrips() {
        roundtrip_request(Request::ObjCreate {
            tenant: "web".into(),
            object: "profile.json".into(),
        });
        roundtrip_request(Request::ObjWrite {
            tenant: "".into(),
            object: "naïve/名前".into(),
            bytes: vec![0, 1, 255],
        });
        roundtrip_request(Request::ObjWrite {
            tenant: "t".into(),
            object: "o".into(),
            bytes: vec![],
        });
        roundtrip_request(Request::ObjGet {
            tenant: "t".into(),
            object: "o".into(),
            start: 1 << 40,
            len: u64::MAX,
        });
        roundtrip_request(Request::ObjStat {
            tenant: "t".into(),
            object: "o".into(),
        });
        roundtrip_request(Request::ObjDelete {
            tenant: "t".into(),
            object: "o".into(),
        });
        roundtrip_response(Response::ObjAck);
        roundtrip_response(Response::ObjData(vec![9; 4096].into()));
        roundtrip_response(Response::ObjData(vec![].into()));
        roundtrip_response(Response::ObjStat {
            len: u64::MAX,
            version: 3,
            extents: u32::MAX,
        });
        // Non-UTF-8 tenant bytes are a protocol error, not garbage.
        let mut buf = Vec::new();
        write_request(
            &mut buf,
            &Request::ObjStat {
                tenant: "ab".into(),
                object: "o".into(),
            },
        )
        .unwrap();
        let tenant_start = 10 + 4; // header + tenant len
        buf[tenant_start] = 0xFF;
        assert!(read_request(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn combine_range_roundtrips() {
        roundtrip_request(Request::CombineRange {
            offset: 0,
            count: 1,
            outputs: 1,
            coeffs: vec![7],
            k0: 0,
            k1: 0,
            peers: vec![],
        });
        roundtrip_request(Request::CombineRange {
            offset: 1 << 40,
            count: 3,
            outputs: 3,
            coeffs: vec![1, 0, 0, 0, 2, 0, 0, 0, 3],
            k0: u64::MAX,
            k1: 0xDEAD_BEEF_CAFE_F00D,
            peers: vec![
                CombinePeer {
                    addr: "127.0.0.1:9001".into(),
                    offset: 12,
                    count: 3,
                    coeffs: vec![9; 9],
                },
                CombinePeer {
                    addr: "[::1]:80".into(),
                    offset: 0,
                    count: 1,
                    coeffs: vec![0, 0, 255],
                },
            ],
        });
        roundtrip_response(Response::Combined {
            regions: vec![],
            local_status: vec![],
            peer_status: vec![],
        });
        roundtrip_response(Response::Combined {
            regions: vec![vec![1; 32], vec![], vec![0xAB; 4096]],
            local_status: vec![0, 2, 1],
            peer_status: vec![0, 3],
        });
    }

    #[test]
    fn mux_request_roundtrips() {
        roundtrip_request(Request::Mux {
            id: 0,
            inner: Box::new(Request::Health),
        });
        roundtrip_request(Request::Mux {
            id: u64::MAX,
            inner: Box::new(Request::RangeChecked {
                offset: 1 << 33,
                count: 512,
                k0: 7,
                k1: u64::MAX,
            }),
        });
        roundtrip_request(Request::Mux {
            id: 42,
            inner: Box::new(Request::PutElement {
                offset: 3,
                bytes: vec![1, 2, 3],
            }),
        });
    }

    #[test]
    fn mux_response_roundtrips() {
        roundtrip_response(Response::Mux {
            id: 9,
            inner: Box::new(Response::Range(vec![Some(vec![5; 16]), None])),
        });
        roundtrip_response(Response::Mux {
            id: 1 << 50,
            inner: Box::new(Response::Error("shard offline".into())),
        });
    }

    #[test]
    fn nested_mux_rejected() {
        let req = Request::Mux {
            id: 1,
            inner: Box::new(Request::Mux {
                id: 2,
                inner: Box::new(Request::Health),
            }),
        };
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        let err = read_request(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("nested mux"), "{err}");
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_response(Response::Element(Some(vec![9; 100])));
        roundtrip_response(Response::Element(None));
        roundtrip_response(Response::Put);
        roundtrip_response(Response::Batch(vec![Some(vec![1]), None, Some(vec![])]));
        roundtrip_response(Response::Range(vec![]));
        roundtrip_response(Response::Range(vec![Some(vec![7; 32])]));
        roundtrip_response(Response::Range(vec![None, None, None]));
        // Presence straddling a bitmap byte boundary, with empty and
        // absent elements interleaved.
        let mut items: Vec<Option<Vec<u8>>> = (0..19u8)
            .map(|i| (i % 3 != 0).then(|| vec![i; i as usize]))
            .collect();
        items[8] = Some(vec![]);
        roundtrip_response(Response::Range(items));
        roundtrip_response(Response::Checked(vec![]));
        roundtrip_response(Response::Checked(vec![CheckedElement::Valid(vec![7; 32])]));
        roundtrip_response(Response::Checked(vec![
            CheckedElement::Missing,
            CheckedElement::Corrupt,
            CheckedElement::Missing,
        ]));
        // All three verdicts interleaved, with an empty valid cell.
        roundtrip_response(Response::Checked(vec![
            CheckedElement::Valid(vec![1, 2, 3]),
            CheckedElement::Corrupt,
            CheckedElement::Valid(vec![]),
            CheckedElement::Missing,
            CheckedElement::Valid(vec![0xFF; 4096]),
        ]));
        roundtrip_response(Response::Health { elements: 12345 });
        roundtrip_response(Response::FaultInjected);
        roundtrip_response(Response::Stats(vec![]));
        roundtrip_response(Response::Stats(vec![
            ("serve.get".into(), 42),
            ("serve_us.p99".into(), u64::MAX),
            ("net.retries".into(), 0),
        ]));
        roundtrip_response(Response::Error("disk on fire".into()));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Health).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            read_request(&mut buf.as_slice()),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Health).unwrap();
        buf[4] = VERSION + 1;
        let err = read_request(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn oversized_length_rejected() {
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Health).unwrap();
        buf[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_request(&mut buf.as_slice()),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn truncated_payload_is_io_error() {
        let mut buf = Vec::new();
        write_request(
            &mut buf,
            &Request::PutElement {
                offset: 1,
                bytes: vec![5; 64],
            },
        )
        .unwrap();
        buf.truncate(buf.len() - 10);
        assert!(matches!(
            read_request(&mut buf.as_slice()),
            Err(NetError::Io(_))
        ));
    }

    /// A whole frame around a hand-built payload.
    fn frame(opcode: u8, payload: &[u8]) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.push(VERSION);
        buf.push(opcode);
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(payload);
        buf
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut payload = 3u64.to_le_bytes().to_vec();
        payload.push(0xEE);
        assert!(matches!(
            read_request(&mut frame(OP_GET, &payload).as_slice()),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn bad_checked_status_rejected() {
        // count=1, status byte 7 (only 0/1/2 are defined).
        let mut payload = 1u32.to_le_bytes().to_vec();
        payload.push(7);
        let err = read_response(&mut frame(RESP_CHECKED, &payload).as_slice()).unwrap_err();
        assert!(err.to_string().contains("checked status"), "{err}");
    }

    #[test]
    fn checked_truncated_valid_bytes_rejected() {
        let mut payload = 1u32.to_le_bytes().to_vec();
        payload.push(1); // valid...
        payload.extend_from_slice(&100u32.to_le_bytes()); // ...claiming 100 bytes
        payload.extend_from_slice(&[9; 10]); // but shipping 10
        assert!(matches!(
            read_response(&mut frame(RESP_CHECKED, &payload).as_slice()),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn timeout_errors_classified() {
        let e: NetError = std::io::Error::new(std::io::ErrorKind::WouldBlock, "slow").into();
        assert!(matches!(e, NetError::Timeout));
        let e: NetError = std::io::Error::new(std::io::ErrorKind::TimedOut, "slow").into();
        assert!(matches!(e, NetError::Timeout));
        let e: NetError = std::io::Error::new(std::io::ErrorKind::ConnectionReset, "gone").into();
        assert!(matches!(e, NetError::Io(_)));
    }
}
