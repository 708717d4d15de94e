//! Seeded inputs: object contents recomputed from (object, offset), and
//! the request streams of each workload. Requests come from
//! `ecfrm_sim::workload`; the system only ever sees the generated
//! requests.

use ecfrm_sim::workload::{DegradedReadWorkload, NormalReadWorkload, Zipf};
use ecfrm_util::Rng;

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fill `out` with bytes `off .. off + out.len()` of object `obj`. The
/// content is a pure function of (object, offset), so the reference for
/// any read is recomputed instead of held in memory.
pub fn fill(obj: u64, off: u64, out: &mut [u8]) {
    let salt = splitmix(obj ^ 0xE2E0_0000_0000_0000);
    let mut pos = off;
    let mut i = 0;
    while i < out.len() {
        let word = splitmix(salt ^ (pos / 8)).to_le_bytes();
        let skip = (pos % 8) as usize;
        let take = (8 - skip).min(out.len() - i);
        out[i..i + take].copy_from_slice(&word[skip..skip + take]);
        i += take;
        pos += take as u64;
    }
}

/// True when `got` equals bytes `off ..` of object `obj`.
pub fn matches(obj: u64, off: u64, got: &[u8]) -> bool {
    let mut want = [0u8; 64 * 1024];
    got.chunks(want.len()).enumerate().all(|(i, chunk)| {
        let want = &mut want[..chunk.len()];
        fill(obj, off + (i * 64 * 1024) as u64, want);
        want == chunk
    })
}

/// A paper-style read: `size` elements from element `start`.
#[derive(Debug, Clone, Copy)]
pub struct Read {
    pub start: u64,
    pub size: usize,
}

/// §VI-B reads over `elements` data elements: uniform start, 1–20
/// elements, never past the end of the data.
pub fn normal_reads(elements: u64, count: usize, seed: u64) -> Vec<Read> {
    let mut w = NormalReadWorkload::paper(elements - 19);
    w.trials = count;
    w.generate(seed)
        .into_iter()
        .map(|r| Read {
            start: r.start,
            size: r.size,
        })
        .collect()
}

/// §VI-C reads. The generator also draws a failed disk per trial; it is
/// dropped, because a failure is store state rather than a request
/// field: the run fails one seed-chosen shard before timing instead.
pub fn degraded_reads(elements: u64, n_disks: usize, count: usize, seed: u64) -> Vec<Read> {
    let mut w = DegradedReadWorkload::paper(elements - 19, n_disks);
    w.trials = count;
    w.generate(seed)
        .into_iter()
        .map(|r| Read {
            start: r.start,
            size: r.size,
        })
        .collect()
}

/// A seed-chosen index in `0..n`, independent of the request stream.
pub fn pick(seed: u64, salt: u64, n: usize) -> usize {
    Rng::seed_from_u64(splitmix(seed ^ salt)).random_range(0..n)
}

/// One operation of the hot mix.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// Read object `obj` whole.
    Get { obj: u32 },
    /// Create object `obj` with `len` bytes.
    Put { obj: u32, len: u32 },
}

/// The hot front-door mix: a starting set of objects, then a stream of
/// zipf(`alpha`) reads with a `put_share` of puts. A new object enters at
/// the head of the popularity order, so it is read soon after it is
/// written.
#[derive(Debug, Clone)]
pub struct HotMix {
    /// Sizes of the starting objects `0..initial.len()`.
    pub initial: Vec<u32>,
    /// The operation stream.
    pub ops: Vec<Op>,
}

pub fn hot_mix(
    set_bytes: u64,
    min_len: u32,
    max_len: u32,
    alpha: f64,
    put_share: f64,
    count: usize,
    seed: u64,
) -> HotMix {
    let mut rng = Rng::seed_from_u64(seed);
    let mut initial = Vec::new();
    let mut total = 0u64;
    while total < set_bytes {
        let len = rng.random_range(min_len..=max_len);
        initial.push(len);
        total += u64::from(len);
    }
    // Rank 0 is the most popular; the starting set's popularity order is
    // a seeded shuffle so hot objects are not adjacent in the stream.
    let mut order: Vec<u32> = (0..initial.len() as u32).collect();
    rng.shuffle(&mut order);
    let mut zipf = Zipf::new(order.len(), alpha);
    let mut next = order.len() as u32;
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        if rng.random::<f64>() < put_share {
            let len = rng.random_range(min_len..=max_len);
            ops.push(Op::Put { obj: next, len });
            order.insert(0, next);
            next += 1;
            zipf = Zipf::new(order.len(), alpha);
        } else {
            ops.push(Op::Get {
                obj: order[zipf.sample(&mut rng)],
            });
        }
    }
    HotMix { initial, ops }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_is_offset_consistent() {
        let mut whole = vec![0u8; 1000];
        fill(3, 0, &mut whole);
        let mut part = vec![0u8; 100];
        fill(3, 437, &mut part);
        assert_eq!(&whole[437..537], &part[..]);
        assert!(matches(3, 5, &whole[5..900]));
        assert!(!matches(4, 5, &whole[5..900]));
    }

    #[test]
    fn streams_repeat_for_a_seed() {
        let a = hot_mix(1 << 20, 4096, 65536, 1.1, 0.1, 500, 7);
        let b = hot_mix(1 << 20, 4096, 65536, 1.1, 0.1, 500, 7);
        assert_eq!(format!("{:?}", a.ops), format!("{:?}", b.ops));
        let r = normal_reads(4096, 100, 9);
        assert!(r.iter().all(|r| r.start + r.size as u64 <= 4096));
    }
}
