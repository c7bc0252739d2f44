//! `rupcxx-net` — the communication substrate of the `rupcxx` PGAS library.
//!
//! This crate plays the role GASNet plays under UPC++ (paper Fig. 2): it
//! provides a *fabric* of N endpoints (one per SPMD rank) supporting
//!
//! * **active messages** (von Eicken et al., ISCA '92): small control
//!   messages carrying a registered handler id + payload, or an opaque
//!   boxed task, delivered FIFO per (source, destination) pair and executed
//!   by the destination's progress engine;
//! * **one-sided RMA**: `put`/`get` of byte ranges into a remote rank's
//!   *segment* with **no involvement of the target CPU**, exactly the
//!   property RDMA hardware provides. Strided (vector) transfers are
//!   supported for multidimensional-array ghost copies;
//! * **traffic counters** per endpoint, consumed by `rupcxx-perfmodel` to
//!   project measured runs onto paper-scale machines.
//!
//! The "network" is the host's shared memory: ranks are OS threads of one
//! process. Each rank's globally addressable memory is a [`Segment`] — an
//! arena of `AtomicU64` words accessed with `Relaxed` ordering. This makes
//! concurrent conflicting accesses *defined behaviour* (you observe some
//! written value), which is a faithful, safe-Rust rendering of the paper's
//! relaxed memory-consistency model (§III-F).

pub mod aggregate;
pub mod cache;
pub mod conduit;
pub mod fabric;
pub mod faults;
pub mod inbox;
pub mod pod;
pub mod reliable;
pub(crate) mod remote;
pub mod rma;
pub mod schedule;
pub mod segment;
pub mod stats;

pub use aggregate::{AggConfig, BatchReader, Frame};
pub use cache::{CacheConfig, CacheState};
pub use conduit::{
    Conduit, ConduitEvent, ConduitSel, LoopbackConduit, RemoteConfig, ShmConduit, SocketConduit,
    CONDUIT_SYNTAX,
};
pub use fabric::{
    AmMessage, AmPayload, Endpoint, Fabric, FabricConfig, GlobalAddr, SimNet, TaskFn,
};
pub use faults::{Fate, FaultPlan, LinkRule};
pub use inbox::Inbox;
// The pinned ledger (`crates/bench/src/bin/ledger/micro.rs`) imports the
// inbox under the name it had while it was sharded; this line goes when a
// benchmark-only PR renames it there.
pub use inbox::Inbox as ShardedInbox;
pub use pod::Pod;
pub use reliable::PeerUnreachable;
pub use rma::RmaOp;
pub use rupcxx_check::{CheckConfig, Checker};
pub use rupcxx_trace::ProfConfig;
pub use schedule::{
    new_recorder, DeliveryRecord, RecordLog, SchedCounts, Schedule, ScheduleConfig,
    ScheduleRecorder,
};
pub use segment::Segment;
pub use stats::{CommCounts, CommStats};

/// A rank id (SPMD execution-unit index), `0..ranks()`.
pub type Rank = usize;
