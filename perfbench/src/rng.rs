//! A small, self-contained seeded generator for benchmark inputs.
//!
//! The inputs must not change when the program's own `rand` shim changes, so
//! the benchmark carries its own SplitMix64 stream.

/// SplitMix64: a 64-bit counter-based generator with full-period output.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5851_F42D_4C95_7F2D)
    }

    /// An independent stream for input `stream` of the run seeded `seed`.
    pub fn derive(seed: u64, stream: &str) -> Self {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for b in stream.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01B3);
        }
        Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by 128-bit multiply-shift.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`, rounded to 1/1024 so the edge-list text form
    /// round-trips exactly.
    pub fn weight(&mut self, lo: f32, hi: f32) -> f32 {
        let w = lo + (hi - lo) * self.unit() as f32;
        (w * 1024.0).floor() / 1024.0
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::derive(7, "graph");
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::derive(7, "graph");
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::derive(7, "updates");
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(1);
        for n in [1usize, 2, 3, 1000] {
            for _ in 0..1000 {
                assert!(r.below(n) < n);
            }
        }
    }
}
