//! Per-shard route-cache counters.

/// One shard's cache counters at the moment they were read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Cache lookups answered from the cache.
    pub hits: u64,
    /// Cache lookups that missed and routed.
    pub misses: u64,
    /// Entries evicted by the LRU to make room.
    pub evictions: u64,
    /// Entries inserted after a routed miss.
    pub insertions: u64,
    /// Entries flushed by row invalidation or a full clear.
    pub invalidated: u64,
    /// Entries resident when the counters were read.
    pub occupancy: u64,
}

impl ShardCounters {
    /// Total cache lookups.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit fraction (0 when the shard saw no requests).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.requests() == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests() as f64
        }
    }
}

/// Folds shards into one reading, counter by counter.
impl<'a> std::iter::Sum<&'a ShardCounters> for ShardCounters {
    fn sum<I: Iterator<Item = &'a ShardCounters>>(shards: I) -> Self {
        shards.fold(ShardCounters::default(), |sum, shard| ShardCounters {
            hits: sum.hits + shard.hits,
            misses: sum.misses + shard.misses,
            evictions: sum.evictions + shard.evictions,
            insertions: sum.insertions + shard.insertions,
            invalidated: sum.invalidated + shard.invalidated,
            occupancy: sum.occupancy + shard.occupancy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_folds_every_counter() {
        let shards = [
            ShardCounters {
                hits: 2,
                misses: 1,
                insertions: 1,
                occupancy: 1,
                ..ShardCounters::default()
            },
            ShardCounters {
                misses: 1,
                evictions: 1,
                invalidated: 3,
                ..ShardCounters::default()
            },
        ];
        let merged: ShardCounters = shards.iter().sum();
        assert_eq!(
            merged,
            ShardCounters {
                hits: 2,
                misses: 2,
                evictions: 1,
                insertions: 1,
                invalidated: 3,
                occupancy: 1,
            }
        );
        assert_eq!(merged.requests(), 4);
        assert_eq!(merged.hit_rate(), 0.5);
        assert_eq!(ShardCounters::default().hit_rate(), 0.0);
    }
}
