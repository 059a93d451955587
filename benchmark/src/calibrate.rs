//! Fixed pieces of work that tell how fast the machine is right now.
//!
//! The sizing box is a shared host: the same single-threaded process runs up
//! to 25 % slower or faster from one ten-second stretch to the next, and for
//! minutes on end 30–80 % slower, with the other virtual CPU idle and no steal
//! time reported, so whatever interferes sits below the guest. Ten runs of one
//! workload then spread by 10–30 % of their median, which is every bound this
//! benchmark would like to set.
//!
//! A kernel below is timed right before and right after every segment and
//! every set-up, and the time between is scaled by `reference ÷ kernel time`:
//! the time it would have taken with the machine at its unloaded speed. Nothing
//! in a kernel comes from the program, so a change to the program moves the
//! scaled times exactly as it moves the raw ones.
//!
//! There are two kernels because the host slows two things by different
//! amounts. From a quiet stretch to a loaded one, twenty minutes each, the
//! [`Reference::Cache`] kernel slowed by 1.35 and the [`Reference::Memory`]
//! kernel by 1.91; walk-uniform slowed by 1.38, hit-smallbatch by 1.24,
//! fail-heal by 1.36 and a set-up by 1.29 — the first kernel's factor — but
//! churn-steady by 1.78, the second's: four fifths of its time are the
//! maintainer's scans over the whole node table, which wait for the last-level
//! cache the host's other guests share. Each workload names the kernel its
//! time follows (`Workload::reference`).

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

const KEYS: usize = 4096;
const ROW: usize = 16;
const ROUNDS: usize = 6;
const MEMORY_STEPS: usize = 1 << 16;

/// Which of the machine's speeds a workload's time follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// The program's usual mix — hash-map probes as in the route cache,
    /// sixteen-word row scans over 4 MB chained by their result as in the
    /// greedy walk, records scattered and collected as a batch's outcomes are, a
    /// sort — most of it served by the core's own caches. (An arithmetic-only
    /// loop slowed 9 % where the program slowed 22 %.)
    Cache,
    /// Chained one-line reads scattered over 64 MB: every step waits for the
    /// shared last-level cache.
    Memory,
}

impl Reference {
    /// One pass of the kernel on the unloaded sizing box (2 vCPU Xeon, 2.1 GHz,
    /// 2 MB L2 a core): the fastest seen over the sizing runs. Scaled times are
    /// in this box's unloaded seconds; on another machine they shift by one
    /// constant factor, which no comparison of two commits on that machine sees.
    fn nanos(self) -> f64 {
        match self {
            Reference::Cache => 6.2e6,
            Reference::Memory => 5.5e6,
        }
    }
}

#[derive(Debug)]
pub struct Calibrator {
    map: HashMap<(u64, u64), [u64; 4]>,
    keys: Vec<(u64, u64)>,
    /// 4 MB, for [`Reference::Cache`].
    words: Vec<u32>,
    /// 64 MB, for [`Reference::Memory`].
    far_words: Vec<u32>,
}

impl Default for Calibrator {
    fn default() -> Self {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let keys: Vec<(u64, u64)> = (0..KEYS as u64).map(|i| (i % 64, i / 64)).collect();
        let map = keys
            .iter()
            .map(|&key| (key, [next(), next(), next(), next()]))
            .collect();
        let words = (0..1 << 20).map(|_| (next() >> 20) as u32).collect();
        let far_words = (0..1 << 24).map(|_| (next() >> 20) as u32).collect();
        let calibrator = Self {
            map,
            keys,
            words,
            far_words,
        };
        // The first pass of a process runs on cold caches and reads slow, which
        // would scale the first set-up short: keep it out of the samples.
        calibrator.cache_pass();
        calibrator
    }
}

impl Calibrator {
    fn memory_pass(&self) -> f64 {
        let started = Instant::now();
        let rows = self.far_words.len() / ROW;
        let mut position = 1usize;
        for _ in 0..MEMORY_STEPS {
            let row = (position % rows) * ROW;
            let mut best = u32::MAX;
            for &word in &self.far_words[row..row + ROW] {
                best = best.min(word ^ position as u32);
            }
            position = best as usize ^ (position >> 3);
        }
        black_box(position);
        started.elapsed().as_nanos() as f64
    }

    fn cache_pass(&self) -> f64 {
        let started = Instant::now();
        let mut acc = 0u64;
        let mut position = 1usize;
        for round in 0..ROUNDS {
            for (i, key) in self.keys.iter().enumerate() {
                let probe = self.keys[(i * 2_654_435_761 + round) % KEYS];
                if let Some(value) = self.map.get(&probe) {
                    acc = acc.wrapping_add(value[(key.0 % 4) as usize]);
                }
                for _ in 0..4 {
                    let row = (position % (self.words.len() / ROW)) * ROW;
                    let mut best = u32::MAX;
                    for &word in &self.words[row..row + ROW] {
                        best = best.min(word ^ acc as u32);
                    }
                    position = best as usize ^ (position >> 3);
                }
            }
            // Records streamed out, scattered back into order and collected, as a
            // batch's outcomes are.
            let mut produced: Vec<(usize, [u64; 9])> = Vec::with_capacity(KEYS);
            for i in 0..KEYS {
                produced.push(((i * 2_654_435_761 + round) % KEYS, [acc ^ i as u64; 9]));
            }
            let mut ordered: Vec<Option<[u64; 9]>> = vec![None; KEYS];
            for (index, record) in produced {
                ordered[index] = Some(record);
            }
            let records: Vec<[u64; 9]> = ordered.into_iter().flatten().collect();
            acc = acc.wrapping_add(records[17][3]);
            let mut chunk = self.words[round * KEYS..(round + 1) * KEYS].to_vec();
            chunk.sort_unstable();
            acc = acc.wrapping_add(u64::from(chunk[17]));
        }
        black_box((acc, position));
        started.elapsed().as_nanos() as f64
    }

    /// Nanoseconds one pass of `reference`'s kernel takes just now: the faster
    /// of two, so that a stall that hits one pass is not taken for the machine's
    /// speed.
    pub fn sample(&self, reference: Reference) -> f64 {
        let pass = || match reference {
            Reference::Cache => self.cache_pass(),
            Reference::Memory => self.memory_pass(),
        };
        pass().min(pass())
    }

    /// What the kernels' own tables add to the process's resident memory: they
    /// are written before the first set-up and stay, so every later peak holds
    /// them.
    pub fn resident_mb(&self) -> f64 {
        ((self.words.len() + self.far_words.len()) * std::mem::size_of::<u32>()) as f64
            / f64::from(1 << 20)
    }
}

impl Reference {
    /// The factor that scales a time measured between two samples of this
    /// reference's kernel to the machine's unloaded speed: 1.0 on the unloaded
    /// sizing box, below it on a slowed one.
    pub fn speed(self, before: f64, after: f64) -> f64 {
        self.nanos() / ((before + after) / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernels_take_measurable_time() {
        let calibrator = Calibrator::default();
        for reference in [Reference::Cache, Reference::Memory] {
            let sample = calibrator.sample(reference);
            assert!(sample > 100_000.0, "{reference:?}");
            assert!(reference.speed(sample, sample) > 0.0);
        }
        assert_eq!(calibrator.resident_mb(), 68.0);
    }
}
