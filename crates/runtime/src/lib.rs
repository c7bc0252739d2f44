//! `rupcxx-runtime` — the SPMD runtime under the `rupcxx` PGAS API.
//!
//! This crate is the analogue of the "UPC++ Runtime" box in the paper's
//! implementation stack (Fig. 2). It provides:
//!
//! * an **SPMD launcher** ([`spmd`](fn@spmd)): runs the same closure on N ranks
//!   (OS threads here; the paper maps ranks to OS processes — threads give
//!   identical SPMD semantics in one process and enable genuinely one-sided
//!   RMA, see `rupcxx-net`);
//! * a **progress engine** ([`Ctx::advance`]): drains the rank's active-
//!   message inbox and executes incoming tasks, exactly the paper's
//!   `advance()` (§IV);
//! * **events**, **futures** and the RAII **finish** construct for
//!   asynchronous task graphs (§III-G);
//! * an AM-based **dissemination barrier**, memory **fence**, and tree
//!   **collectives** (broadcast, reduce, allreduce, gather(v), exchange);
//! * **global locks** built on remote compare-and-swap;
//! * a per-rank **segment allocator** backing `rupcxx::allocate` — including
//!   allocation on *remote* ranks, the feature the paper highlights as
//!   unavailable in UPC and MPI (§III-C).

pub mod alloc;
pub mod barrier;
pub mod collectives;
pub mod config;
pub mod ctx;
pub mod event;
pub mod finish;
pub mod lock;
pub mod proc;
pub mod shared;
pub mod spmd;
pub mod team;

pub use config::RuntimeConfig;
pub use ctx::Ctx;
pub use event::{Event, RtFuture};
pub use finish::FinishScope;
pub use lock::GlobalLock;
pub use proc::{spmd_procs, ProcOutcome};
pub use shared::{HandlerFn, HandlerId, HandlerRegistry, Shared};
pub use spmd::{spmd, spmd_with_handlers};
pub use team::Team;

pub use rupcxx_check::WaitInfo;
pub use rupcxx_net::{ConduitSel, Rank};
