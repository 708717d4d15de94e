//! Seeded fragmentation suite for the streaming frame decoder.
//!
//! Every `Request` and `Response` variant — bare and `Mux`-wrapped — is
//! encoded, then fed back through a reader that hands out 1..k-byte
//! fragments interleaved with `WouldBlock`, the way a socket with a short
//! read timeout does. The polling and blocking decoders must both return
//! exactly what a decode of the whole buffered frame returns, and must
//! stop at the frame's end (two frames back to back decode as two).
//! Hostile frames — truncated, trailing bytes, bad magic, bad version,
//! oversize length, implausible counts, nested `Mux` — must still be
//! rejected under the same fragmentation.
//!
//! Deterministic: a fixed seed and a fixed iteration budget, no new
//! dependencies (`ecfrm_util::Rng`).

use std::io::Read;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use ecfrm_net::protocol::{
    read_request, read_request_polling, read_response, read_response_polling, write_request,
    write_response, CheckedElement, CombinePeer, Fault, NetError, PolledRequest, PolledResponse,
    Request, Response, MAGIC, MAX_PAYLOAD, VERSION,
};
use ecfrm_store::Slices;
use ecfrm_util::Rng;

/// Rounds per message: each round picks a new fragment size bound and
/// `WouldBlock` rate.
const ROUNDS: usize = 24;

/// A reader that returns at most `k` bytes per call, and with
/// probability `block` returns `WouldBlock` instead.
struct Fragments {
    data: Vec<u8>,
    pos: usize,
    k: usize,
    block: f64,
    rng: Rng,
}

impl Fragments {
    fn new(data: Vec<u8>, k: usize, block: f64, seed: u64) -> Self {
        Self {
            data,
            pos: 0,
            k,
            block,
            rng: Rng::seed_from_u64(seed),
        }
    }
}

impl Read for Fragments {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.block > 0.0 && self.rng.next_f64() < self.block {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let left = self.data.len() - self.pos;
        if left == 0 || buf.is_empty() {
            return Ok(0);
        }
        let n = self.rng.random_range(1..=self.k).min(left).min(buf.len());
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

fn word(rng: &mut Rng) -> String {
    let len = rng.random_range(0..12usize);
    (0..len)
        .map(|_| char::from(b'a' + rng.random_range(0..26u32) as u8))
        .collect::<String>()
        + if rng.random_range(0..4u32) == 0 {
            "/名前"
        } else {
            ""
        }
}

fn requests(rng: &mut Rng) -> Vec<Request> {
    let plain = vec![
        Request::GetElement {
            offset: rng.next_u64(),
        },
        Request::PutElement {
            offset: rng.next_u64(),
            bytes: vec![],
        },
        Request::PutElement {
            offset: 7,
            bytes: bytes(rng, 65_544),
        },
        Request::BatchGet { offsets: vec![] },
        Request::BatchGet {
            offsets: (0..300).map(|_| rng.next_u64()).collect(),
        },
        Request::GetRange {
            offset: rng.next_u64(),
            count: rng.next_u32(),
        },
        Request::RangeChecked {
            offset: rng.next_u64(),
            count: 9,
            k0: rng.next_u64(),
            k1: rng.next_u64(),
        },
        Request::CombineRange {
            offset: 3,
            count: 3,
            outputs: 2,
            coeffs: bytes(rng, 6),
            k0: rng.next_u64(),
            k1: rng.next_u64(),
            peers: vec![
                CombinePeer {
                    addr: "127.0.0.1:9001".into(),
                    offset: 12,
                    count: 3,
                    coeffs: bytes(rng, 6),
                },
                CombinePeer {
                    addr: "[::1]:80".into(),
                    offset: 0,
                    count: 400,
                    coeffs: bytes(rng, 800),
                },
            ],
        },
        Request::ObjCreate {
            tenant: word(rng),
            object: word(rng),
        },
        Request::ObjWrite {
            tenant: word(rng),
            object: word(rng),
            bytes: bytes(rng, 100_000),
        },
        Request::ObjWrite {
            tenant: String::new(),
            object: word(rng),
            bytes: vec![],
        },
        Request::ObjGet {
            tenant: word(rng),
            object: word(rng),
            start: rng.next_u64(),
            len: u64::MAX,
        },
        Request::ObjStat {
            tenant: word(rng),
            object: word(rng),
        },
        Request::ObjDelete {
            tenant: word(rng),
            object: word(rng),
        },
        Request::Health,
        Request::Stats,
        Request::InjectFault(Fault::Fail),
        Request::InjectFault(Fault::Heal),
        Request::InjectFault(Fault::Wipe),
        Request::InjectFault(Fault::DelayMs(rng.next_u64())),
    ];
    let muxed: Vec<Request> = plain
        .iter()
        .map(|r| Request::Mux {
            id: rng.next_u64(),
            inner: Box::new(r.clone()),
        })
        .collect();
    plain.into_iter().chain(muxed).collect()
}

fn responses(rng: &mut Rng) -> Vec<Response> {
    // ObjData as the front door builds it: ranges of shared buffers.
    let a = Arc::new(bytes(rng, 70_000));
    let b = Arc::new(bytes(rng, 5_000));
    let mut sliced = Slices::default();
    sliced.push(Arc::clone(&a), 1_000..70_000);
    sliced.push(Arc::clone(&b), 0..17);
    sliced.push(b, 300..5_000);
    sliced.push(a, 0..0);
    let plain = vec![
        Response::Element(Some(bytes(rng, 4_104))),
        Response::Element(Some(vec![])),
        Response::Element(None),
        Response::Put,
        Response::Batch(vec![]),
        Response::Batch(vec![Some(bytes(rng, 9)), None, Some(bytes(rng, 70_000))]),
        Response::Range(vec![]),
        Response::Range(
            (0..19)
                .map(|i| (i % 3 != 0).then(|| bytes(rng, 4_104 * (i % 2) + i)))
                .collect(),
        ),
        Response::Range((0..7).map(|_| Some(bytes(rng, 65_544))).collect()),
        Response::Checked(vec![]),
        Response::Checked(vec![
            CheckedElement::Valid(bytes(rng, 65_544)),
            CheckedElement::Corrupt,
            CheckedElement::Valid(vec![]),
            CheckedElement::Missing,
            CheckedElement::Corrupt,
            CheckedElement::Valid(bytes(rng, 300)),
        ]),
        Response::Combined {
            regions: vec![],
            local_status: vec![],
            peer_status: vec![],
        },
        Response::Combined {
            regions: vec![bytes(rng, 32), vec![], bytes(rng, 65_544)],
            local_status: vec![0, 2, 1],
            peer_status: vec![0, 3],
        },
        Response::ObjAck,
        Response::ObjData(Slices::default()),
        Response::ObjData(bytes(rng, 1).into()),
        Response::ObjData(bytes(rng, 655_360).into()),
        Response::ObjData(sliced),
        Response::ObjStat {
            len: rng.next_u64(),
            version: rng.next_u64(),
            extents: rng.next_u32(),
        },
        Response::Health {
            elements: rng.next_u64(),
        },
        Response::FaultInjected,
        Response::Stats(vec![]),
        Response::Stats(
            (0..200)
                .map(|i| (format!("serve.op_{i}.{}", word(rng)), rng.next_u64()))
                .collect(),
        ),
        Response::Error(String::new()),
        Response::Error("range: 12 t/o (a 99-byte read exceeds the reply frame)".into()),
    ];
    let muxed: Vec<Response> = plain
        .iter()
        .map(|r| Response::Mux {
            id: rng.next_u64(),
            inner: Box::new(r.clone()),
        })
        .collect();
    plain.into_iter().chain(muxed).collect()
}

fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    write_request(&mut buf, req).unwrap();
    buf
}

fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    write_response(&mut buf, resp).unwrap();
    buf
}

/// Poll until a frame (or a close) comes out; `Idle` is only legal
/// before a frame's first byte, and the fragment reader always makes
/// progress eventually.
fn poll_request(r: &mut Fragments) -> Option<Request> {
    let stop = AtomicBool::new(false);
    loop {
        match read_request_polling(r, &stop) {
            PolledRequest::Frame(req) => return Some(req),
            PolledRequest::Idle => {}
            PolledRequest::Closed => return None,
        }
    }
}

fn poll_response(r: &mut Fragments) -> Option<Response> {
    let stop = AtomicBool::new(false);
    loop {
        match read_response_polling(r, &stop) {
            PolledResponse::Frame(resp) => return Some(resp),
            PolledResponse::Idle => {}
            PolledResponse::Closed => return None,
        }
    }
}

/// Fragment-size bound and `WouldBlock` rate for one round.
fn round_shape(rng: &mut Rng) -> (usize, f64) {
    let k = match rng.random_range(0..4u32) {
        0 => 1,
        1 => rng.random_range(2..16usize),
        2 => rng.random_range(16..4096usize),
        _ => rng.random_range(4096..200_000usize),
    };
    (k, rng.random_range(0.0..0.6f64))
}

#[test]
fn fragmented_requests_decode_like_buffered() {
    let mut rng = Rng::seed_from_u64(0xF4A6_0001);
    for req in requests(&mut rng) {
        let frame = encode_request(&req);
        let buffered = read_request(&mut frame.as_slice()).unwrap();
        assert_eq!(buffered, req);
        // Two frames back to back: the decoder must stop at each end.
        let twice = [frame.as_slice(), frame.as_slice()].concat();
        for _ in 0..ROUNDS {
            let (k, block) = round_shape(&mut rng);
            let mut r = Fragments::new(twice.clone(), k, block, rng.next_u64());
            assert_eq!(poll_request(&mut r).as_ref(), Some(&buffered), "k={k}");
            assert_eq!(poll_request(&mut r).as_ref(), Some(&buffered), "k={k}");
            assert_eq!(r.pos, twice.len());
            // Blocking decode over the same fragments (no WouldBlock: a
            // blocking socket reports its timeout as an error).
            let mut r = Fragments::new(twice.clone(), k, 0.0, rng.next_u64());
            assert_eq!(read_request(&mut r).unwrap(), buffered);
            assert_eq!(read_request(&mut r).unwrap(), buffered);
        }
    }
}

#[test]
fn fragmented_responses_decode_like_buffered() {
    let mut rng = Rng::seed_from_u64(0xF4A6_0002);
    for resp in responses(&mut rng) {
        let frame = encode_response(&resp);
        let buffered = read_response(&mut frame.as_slice()).unwrap();
        assert_eq!(buffered, resp);
        let twice = [frame.as_slice(), frame.as_slice()].concat();
        for _ in 0..ROUNDS {
            let (k, block) = round_shape(&mut rng);
            let mut r = Fragments::new(twice.clone(), k, block, rng.next_u64());
            assert_eq!(poll_response(&mut r).as_ref(), Some(&buffered), "k={k}");
            assert_eq!(poll_response(&mut r).as_ref(), Some(&buffered), "k={k}");
            assert_eq!(r.pos, twice.len());
            let mut r = Fragments::new(twice.clone(), k, 0.0, rng.next_u64());
            assert_eq!(read_response(&mut r).unwrap(), buffered);
            assert_eq!(read_response(&mut r).unwrap(), buffered);
        }
    }
}

/// A frame with its header rewritten by `edit`, payload untouched.
fn with_header(frame: &[u8], edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
    let mut f = frame.to_vec();
    edit(&mut f[..10]);
    f
}

/// A frame around a hand-built payload.
fn raw_frame(opcode: u8, payload: &[u8]) -> Vec<u8> {
    let mut f = MAGIC.to_vec();
    f.push(VERSION);
    f.push(opcode);
    f.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    f.extend_from_slice(payload);
    f
}

/// Every way to spoil an encoded frame, each a self-contained stream.
fn spoiled(frame: &[u8], rng: &mut Rng) -> Vec<(String, Vec<u8>)> {
    let mut out = vec![
        ("bad magic".into(), with_header(frame, |h| h[0] = b'X')),
        (
            "bad version".into(),
            with_header(frame, |h| h[4] = VERSION + 1),
        ),
        (
            "oversize length".into(),
            with_header(frame, |h| {
                h[6..10].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes())
            }),
        ),
    ];
    // Trailing bytes: one extra payload byte, counted in the length.
    let mut trailing = frame.to_vec();
    trailing.push(0xEE);
    let len = u32::from_le_bytes(trailing[6..10].try_into().unwrap()) + 1;
    trailing[6..10].copy_from_slice(&len.to_le_bytes());
    out.push(("trailing byte".into(), trailing));
    // Truncation anywhere: the stream ends mid-frame.
    for _ in 0..4 {
        let cut = rng.random_range(0..frame.len());
        out.push((format!("truncated at {cut}"), frame[..cut].to_vec()));
    }
    out
}

fn rejected_everywhere<T: std::fmt::Debug>(
    name: &str,
    stream: &[u8],
    rng: &mut Rng,
    blocking: impl Fn(&mut Fragments) -> Result<T, NetError>,
    polling: impl Fn(&mut Fragments) -> Option<T>,
) {
    assert!(
        blocking(&mut Fragments::new(
            stream.to_vec(),
            stream.len().max(1),
            0.0,
            0
        ))
        .is_err(),
        "{name}: buffered decode accepted it"
    );
    for _ in 0..6 {
        let (k, block) = round_shape(rng);
        let got = polling(&mut Fragments::new(
            stream.to_vec(),
            k,
            block,
            rng.next_u64(),
        ));
        assert!(got.is_none(), "{name}: polled decode accepted it: {got:?}");
        let got = blocking(&mut Fragments::new(stream.to_vec(), k, 0.0, rng.next_u64()));
        assert!(
            got.is_err(),
            "{name}: fragmented decode accepted it: {got:?}"
        );
    }
}

#[test]
fn hostile_request_frames_rejected_under_fragmentation() {
    let mut rng = Rng::seed_from_u64(0xF4A6_0003);
    for req in requests(&mut rng) {
        let frame = encode_request(&req);
        for (name, stream) in spoiled(&frame, &mut rng) {
            rejected_everywhere(&name, &stream, &mut rng, read_request, poll_request);
        }
    }
    // Nested mux, and a batch claiming more offsets than it carries.
    let nested = encode_request(&Request::Mux {
        id: 1,
        inner: Box::new(Request::Mux {
            id: 2,
            inner: Box::new(Request::Health),
        }),
    });
    let mut batch = u32::MAX.to_le_bytes().to_vec();
    batch.extend_from_slice(&[0; 16]);
    for (name, stream) in [
        ("nested mux", nested),
        ("batch count", raw_frame(3, &batch)),
        ("unknown opcode", raw_frame(99, &[])),
    ] {
        rejected_everywhere(name, &stream, &mut rng, read_request, poll_request);
    }
}

#[test]
fn hostile_response_frames_rejected_under_fragmentation() {
    let mut rng = Rng::seed_from_u64(0xF4A6_0004);
    for resp in responses(&mut rng) {
        let frame = encode_response(&resp);
        // An error message is the whole rest of its payload, so an extra
        // byte is message, not trailing garbage.
        let is_error = matches!(&resp, Response::Error(_))
            || matches!(&resp, Response::Mux { inner, .. } if matches!(**inner, Response::Error(_)));
        for (name, stream) in spoiled(&frame, &mut rng) {
            if is_error && name == "trailing byte" {
                continue;
            }
            rejected_everywhere(&name, &stream, &mut rng, read_response, poll_response);
        }
    }
    // Implausible counts: more items than any frame could carry.
    let huge = (MAX_PAYLOAD + 1).to_le_bytes();
    let mut combined = 0u32.to_le_bytes().to_vec();
    combined.extend_from_slice(&huge);
    let nested = encode_response(&Response::Mux {
        id: 1,
        inner: Box::new(Response::Mux {
            id: 2,
            inner: Box::new(Response::Put),
        }),
    });
    // An element claiming more bytes than its frame holds.
    let mut short = 1u32.to_le_bytes().to_vec();
    short.push(1);
    short.extend_from_slice(&100u32.to_le_bytes());
    short.extend_from_slice(&[9; 10]);
    for (name, stream) in [
        ("range count", raw_frame(135, &huge)),
        ("checked count", raw_frame(136, &huge)),
        ("combined region count", raw_frame(138, &huge)),
        ("combined status count", raw_frame(138, &combined)),
        ("short checked element", raw_frame(136, &short)),
        ("bad checked status", raw_frame(136, &[1, 0, 0, 0, 7])),
        ("bad option tag", raw_frame(129, &[2])),
        ("nested mux", nested),
    ] {
        rejected_everywhere(name, &stream, &mut rng, read_response, poll_response);
    }
}

/// A writer that only counts.
struct Count(usize);

impl std::io::Write for Count {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn oversized_frames_are_refused_before_any_byte_is_written() {
    let buf = Arc::new(vec![0u8; MAX_PAYLOAD as usize]);
    let reply = |len: usize| {
        let mut s = Slices::default();
        s.push(Arc::clone(&buf), 0..len);
        Response::ObjData(s)
    };
    let mut sink = Count(0);
    let err = write_response(&mut sink, &reply(MAX_PAYLOAD as usize - 3)).unwrap_err();
    assert!(matches!(err, NetError::Protocol(_)), "{err}");
    assert_eq!(sink.0, 0);
    // The largest reply that fits still goes out, in a mux envelope too.
    write_response(&mut sink, &reply(MAX_PAYLOAD as usize - 4)).unwrap();
    assert_eq!(sink.0, 10 + MAX_PAYLOAD as usize);
    let muxed = |len: usize| Response::Mux {
        id: 1,
        inner: Box::new(reply(len)),
    };
    let room = ecfrm_net::protocol::max_obj_reply(true) as usize;
    assert!(write_response(&mut Count(0), &muxed(room + 1)).is_err());
    write_response(&mut Count(0), &muxed(room)).unwrap();
}
