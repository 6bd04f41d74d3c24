//! Buddy-tree metadata storage backends.
//!
//! The buddy allocator reads and writes 2-bit node states during tree
//! traversal. *Where* those bits live and *how* they are cached is the
//! crux of the paper's design space:
//!
//! * [`WramStore`] — the whole tree resides in scratchpad, as in
//!   UPMEM's stock 64 KB `buddy_alloc()`. Only feasible for tiny heaps.
//! * [`CoarseBufferStore`] — the tree resides in MRAM, with a
//!   software-managed WRAM buffer that caches one contiguous window and
//!   is flushed-and-reloaded wholesale on a miss (straw-man and
//!   PIM-malloc-SW).
//! * [`FineLruStore`] — a software LRU over small granules; fewer DRAM
//!   transfers but heavy per-access instruction overhead (the §IV-B
//!   ablation that regressed 29%).
//! * [`HwCacheStore`] — the paper's hardware buddy cache: a 16-entry
//!   CAM of 4-byte metadata words with single-cycle access
//!   (PIM-malloc-HW/SW).
//! * [`LineCacheStore`] — a line-granular general-purpose cache in
//!   place of the buddy cache (the §VII counterfactual).
//!
//! All stores implement [`MetadataStore`], charging their access costs
//! to the calling tasklet's [`TaskletCtx`].

mod coarse;
mod fine_lru;
mod hw_cache;
mod line_cache;
mod wram_store;

pub use coarse::CoarseBufferStore;
pub use fine_lru::FineLruStore;
pub use hw_cache::HwCacheStore;
pub use line_cache::LineCacheStore;
pub use wram_store::WramStore;

use pim_sim::TaskletCtx;
use serde::{Deserialize, Serialize};

/// The 2-bit state of one buddy-tree node.
///
/// The paper describes three logical states (unallocated / partially
/// allocated / fully allocated); we use the fourth 2-bit codepoint to
/// distinguish "allocated *as a unit*" from "split and full below",
/// which `pim_free` needs to find a block's level from its address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[repr(u8)]
pub enum NodeState {
    /// The block is entirely free (and not split).
    Free = 0,
    /// The block is split; at least one descendant is free.
    Split = 1,
    /// The block is allocated as a unit.
    Allocated = 2,
    /// The block is split and has no free capacity below.
    SplitFull = 3,
}

impl NodeState {
    /// Decodes a 2-bit value.
    ///
    /// # Panics
    ///
    /// Panics if `bits > 3`.
    pub fn from_bits(bits: u8) -> NodeState {
        match bits {
            0 => NodeState::Free,
            1 => NodeState::Split,
            2 => NodeState::Allocated,
            3 => NodeState::SplitFull,
            _ => panic!("invalid node state bits {bits}"),
        }
    }

    /// Encodes to a 2-bit value.
    pub fn to_bits(self) -> u8 {
        self as u8
    }

    /// True if the subtree rooted here has no free capacity.
    pub fn is_full(self) -> bool {
        matches!(self, NodeState::Allocated | NodeState::SplitFull)
    }
}

/// Transfer and hit-rate statistics of a metadata store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetaStats {
    /// Accesses served from on-chip storage.
    pub hits: u64,
    /// Accesses that required a DRAM fetch.
    pub misses: u64,
    /// Metadata bytes read from DRAM.
    pub bytes_read: u64,
    /// Metadata bytes written back to DRAM.
    pub bytes_written: u64,
}

impl MetaStats {
    /// Hit rate in `[0, 1]`; zero if no accesses happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total metadata bytes moved to/from DRAM.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

/// Storage backend for 2-bit buddy-tree node states.
///
/// Implementations charge their access latency (WRAM instructions, DMA
/// transfers, buddy-cache operations) to the provided context.
pub trait MetadataStore {
    /// Reads the state of node `idx`.
    fn get(&mut self, ctx: &mut TaskletCtx<'_>, idx: u32) -> NodeState;

    /// Writes the state of node `idx`.
    fn set(&mut self, ctx: &mut TaskletCtx<'_>, idx: u32, state: NodeState);

    /// Resets every node to [`NodeState::Free`] and clears caches.
    /// Called by `initAllocator`; costs are charged to `ctx`.
    fn reset(&mut self, ctx: &mut TaskletCtx<'_>);

    /// Transfer/hit statistics since construction or the last reset.
    fn stats(&self) -> MetaStats;

    /// Reads a node state *without* charging any simulation cost.
    ///
    /// For invariant checks and tests only — a real DPU has no free
    /// metadata reads.
    fn peek(&self, idx: u32) -> NodeState;
}

/// A flat 2-bit-per-node array: the shared authoritative storage used
/// by every store implementation.
#[derive(Debug, Clone)]
pub(crate) struct BitArray {
    words: Vec<u8>,
    nodes: u32,
}

impl BitArray {
    pub(crate) fn new(nodes: u32) -> Self {
        BitArray {
            words: vec![0u8; ((nodes as usize) + 4) / 4],
            nodes,
        }
    }

    #[inline]
    pub(crate) fn get(&self, idx: u32) -> NodeState {
        debug_assert!(idx >= 1 && idx <= self.nodes, "node {idx} out of range");
        let byte = self.words[(idx / 4) as usize];
        NodeState::from_bits((byte >> ((idx % 4) * 2)) & 0b11)
    }

    #[inline]
    pub(crate) fn set(&mut self, idx: u32, state: NodeState) {
        debug_assert!(idx >= 1 && idx <= self.nodes, "node {idx} out of range");
        let slot = (idx / 4) as usize;
        let shift = (idx % 4) * 2;
        self.words[slot] = (self.words[slot] & !(0b11 << shift)) | (state.to_bits() << shift);
    }

    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Byte offset of the metadata byte holding node `idx`.
    #[inline]
    pub(crate) fn byte_of(idx: u32) -> u32 {
        idx / 4
    }

    pub(crate) fn len_bytes(&self) -> u32 {
        self.words.len() as u32
    }

    /// Highest valid node index.
    pub(crate) fn nodes(&self) -> u32 {
        self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_state_bits_roundtrip() {
        for s in [
            NodeState::Free,
            NodeState::Split,
            NodeState::Allocated,
            NodeState::SplitFull,
        ] {
            assert_eq!(NodeState::from_bits(s.to_bits()), s);
        }
    }

    #[test]
    #[should_panic(expected = "invalid node state")]
    fn bad_bits_panic() {
        NodeState::from_bits(4);
    }

    #[test]
    fn fullness_classification() {
        assert!(!NodeState::Free.is_full());
        assert!(!NodeState::Split.is_full());
        assert!(NodeState::Allocated.is_full());
        assert!(NodeState::SplitFull.is_full());
    }

    #[test]
    fn bitarray_packs_four_nodes_per_byte() {
        let mut a = BitArray::new(16);
        a.set(1, NodeState::Split);
        a.set(2, NodeState::Allocated);
        a.set(3, NodeState::SplitFull);
        a.set(4, NodeState::Allocated);
        assert_eq!(a.get(1), NodeState::Split);
        assert_eq!(a.get(2), NodeState::Allocated);
        assert_eq!(a.get(3), NodeState::SplitFull);
        assert_eq!(a.get(4), NodeState::Allocated);
        // Neighbors unaffected.
        assert_eq!(a.get(5), NodeState::Free);
        a.clear();
        assert_eq!(a.get(3), NodeState::Free);
    }

    #[test]
    fn bitarray_byte_mapping() {
        assert_eq!(BitArray::byte_of(1), 0);
        assert_eq!(BitArray::byte_of(4), 1);
        assert_eq!(BitArray::byte_of(7), 1);
        assert_eq!(BitArray::byte_of(8), 2);
    }

    #[test]
    fn meta_stats_hit_rate() {
        let s = MetaStats {
            hits: 3,
            misses: 1,
            bytes_read: 10,
            bytes_written: 2,
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(s.total_bytes(), 12);
        assert_eq!(MetaStats::default().hit_rate(), 0.0);
    }
}
