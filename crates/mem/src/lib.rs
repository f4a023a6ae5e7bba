//! # ksr-mem
//!
//! The KSR-1 ALLCACHE memory system for the scalability-study
//! reproduction: a cache-only memory architecture (COMA) in which no
//! System Virtual Address has a fixed home — data lives wherever it was
//! last used, and an invalidation-based protocol over 128 B sub-pages
//! keeps the picture sequentially consistent (§2 of the paper).
//!
//! Layering:
//!
//! * [`geometry`] — the paper's exact cache geometry (256 KB 2-way
//!   sub-cache in 2 KB blocks / 64 B sub-blocks; 32 MB 16-way local cache
//!   in 16 KB pages / 128 B sub-pages) plus address decomposition;
//! * [`state`] — sub-page coherence states (invalid place holder, shared,
//!   exclusive, atomic);
//! * [`subcache`], [`localcache`] — per-cell residency structures with the
//!   random replacement policy the paper's methodology works around;
//! * [`directory`] — the simulator's O(1) answer to "who holds sub-page
//!   S?" (the hardware is directoryless; timing still flows through the
//!   ring);
//! * [`sva`] — the authoritative data plane;
//! * [`timing`] — calibrated latency constants (2 / 18 / 175 cycles);
//! * [`perfmon`] — the per-cell hardware performance monitor;
//! * [`protocol`] — the coherence engine: read/write misses, upgrades,
//!   `get_sub_page`/`release_sub_page`, `prefetch`, `poststore`,
//!   read-snarfing, hot-spot serialization, and page/block allocation
//!   overheads.

#![warn(missing_docs)]

pub mod directory;
pub mod geometry;
pub mod localcache;
pub mod perfmon;
pub mod protocol;
pub mod state;
pub mod subcache;
pub mod sva;
pub mod timing;

pub use directory::{Directory, Holders};
pub use geometry::{
    block_of, page_of, subblock_of, subpage_of, MemGeometry, BLOCK_BYTES, PAGE_BYTES,
    SUBBLOCK_BYTES, SUBPAGE_BYTES,
};
pub use localcache::{LocalCache, PageAlloc};
pub use perfmon::PerfMon;
pub use protocol::{MemOp, MemorySystem, Outcome, ProtocolFault, ProtocolOptions};
pub use state::SubpageState;
pub use subcache::{SubCache, SubCacheFill};
pub use sva::SvaStore;
pub use timing::CacheTiming;
