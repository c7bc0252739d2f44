//! `rupcxx` — a PGAS extension for Rust, reproducing the UPC++ library
//! (Zheng et al., *UPC++: A PGAS Extension for C++*, IPDPS 2014).
//!
//! UPC++ demonstrates that a *library* ("compiler-free") can provide the
//! partitioned-global-address-space programming model of languages like
//! UPC and Titanium with equivalent performance. This crate is the Rust
//! rendition of the paper's core API (its Table I):
//!
//! | UPC idiom | UPC++ | `rupcxx` |
//! |---|---|---|
//! | `THREADS` | `ranks()` | [`Ctx::ranks`] |
//! | `MYTHREAD` | `myrank()` | [`Ctx::rank`] |
//! | `shared Type v` | `shared_var<Type>` | [`SharedVar`] |
//! | `shared [BS] T A[n]` | `shared_array<T, BS>` | [`SharedArray`] |
//! | `shared T *p` | `global_ptr<T>` | [`GlobalPtr`] |
//! | `upc_alloc` | `allocate<T>(rank, n)` | [`allocate`] |
//! | `upc_memcpy` | `copy<T>(src, dst, n)` | [`copy`](fn@copy) |
//! | `upc_barrier` / `upc_fence` | `barrier()` / `fence()` | [`Ctx::barrier`] / [`Ctx::fence`] |
//! | — | `async(place)(f, args…)` | [`async_on`] |
//! | — | `finish { … }` | [`Ctx::finish`] |
//!
//! # Execution model
//!
//! SPMD, as in UPC: [`rupcxx_runtime::spmd()`] launches N ranks that all run
//! the same closure. Ranks communicate through one-sided reads/writes of
//! *shared objects* and through asynchronous remote function invocation.
//!
//! ```
//! use rupcxx::prelude::*;
//!
//! let sums = spmd(RuntimeConfig::new(4).segment_mib(1), |ctx| {
//!     // A cyclic shared array across all ranks (UPC: shared uint64_t A[16]).
//!     let a = SharedArray::<u64>::new(ctx, 16, 1);
//!     for i in (ctx.rank()..16).step_by(ctx.ranks()) {
//!         a.write(ctx, i, i as u64); // affinity-owned elements
//!     }
//!     ctx.barrier();
//!     (0..16).map(|i| a.read(ctx, i)).sum::<u64>()
//! });
//! assert!(sums.iter().all(|&s| s == 120));
//! ```
//!
//! # Differences from the paper, by design
//!
//! * Ranks are OS threads of one process; the "network" is the host's
//!   memory (see `rupcxx-net` for why this preserves one-sidedness).
//! * `global_ptr` → local raw pointer casts and the "escalate a private
//!   object to shared" feature (§III-C) are not provided: they require
//!   GASNet's segment-everything mode; data must live in segments here.
//! * Block size of [`SharedArray`] is a runtime value rather than a
//!   template parameter — strictly more general, same semantics
//!   (default 1 = cyclic, as in UPC).

pub mod copy;
pub mod forall;
pub mod global_ptr;
pub mod mem;
pub mod remote_fn;
pub mod rpc;
pub mod shared_array;
pub mod shared_var;
pub mod upc_mode;

pub use copy::{async_copy, async_copy_fence, copy};
pub use forall::{forall_blocked, forall_cyclic};
pub use global_ptr::GlobalPtr;
pub use mem::{allocate, allocate_init, deallocate};
pub use remote_fn::{spmd_registered, FnRegistry, RemoteFn};
pub use rpc::{async_after, async_on, async_on_all, async_with_event};
pub use shared_array::SharedArray;
pub use shared_var::SharedVar;
pub use upc_mode::UpcDirectTable;

pub use rupcxx_net::{GlobalAddr, Pod, Rank};
pub use rupcxx_runtime::{
    spmd, Ctx, Event, FinishScope, GlobalLock, RtFuture, RuntimeConfig, Team,
};

/// Convenient glob-import of the whole public API.
pub mod prelude {
    pub use crate::copy::{async_copy, async_copy_fence, copy};
    pub use crate::forall::{forall_blocked, forall_cyclic};
    pub use crate::global_ptr::GlobalPtr;
    pub use crate::mem::{allocate, allocate_init, deallocate};
    pub use crate::remote_fn::{spmd_registered, FnRegistry, RemoteFn};
    pub use crate::rpc::{async_after, async_on, async_on_all, async_with_event};
    pub use crate::shared_array::SharedArray;
    pub use crate::shared_var::SharedVar;
    pub use crate::upc_mode::UpcDirectTable;
    pub use rupcxx_net::{GlobalAddr, Pod, Rank};
    pub use rupcxx_runtime::{
        spmd, Ctx, Event, FinishScope, GlobalLock, RtFuture, RuntimeConfig, Team,
    };
}
