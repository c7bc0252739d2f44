//! Typed registered-function RPC — the paper's actual `async`
//! implementation strategy (§IV), exposed as a safe, typed API.
//!
//! "UPC++ uses helper function templates to pack the task function pointer
//! and its arguments into a contiguous buffer and then sends it to the
//! target node with an active message … We assume that the function entry
//! points on all processes are either all identical or have an offset that
//! can be collected at program loading time."
//!
//! [`FnRegistry`] is that assumption made explicit: every rank registers
//! the same functions in the same order *before* launch, yielding
//! [`RemoteFn`] handles whose ids agree across ranks. A call packs the
//! `Pod` argument after a reply token; the reply handler routes the packed
//! return value back to the caller's future. Unlike the boxed-closure path
//! ([`crate::async_on`]), nothing but plain bytes crosses ranks — this is
//! the path a real multi-process runtime must use, and the benchmarkable
//! baseline for the closure shortcut.
//!
//! ```
//! use rupcxx::prelude::*;
//! use rupcxx::remote_fn::FnRegistry;
//!
//! let mut reg = FnRegistry::new();
//! let square = reg.register(|_ctx: &Ctx, x: u64| x * x);
//! let out = rupcxx::spmd_registered(
//!     RuntimeConfig::new(2).segment_mib(1),
//!     reg,
//!     move |ctx| {
//!         if ctx.rank() == 0 {
//!             square.call(ctx, 1, 9).get(ctx)
//!         } else {
//!             0
//!         }
//!     },
//! );
//! assert_eq!(out[0], 81);
//! ```

use rupcxx_net::{Pod, Rank};
use rupcxx_runtime::shared::HandlerRegistry;
use rupcxx_runtime::{Ctx, RtFuture, RuntimeConfig};
use rupcxx_util::Bytes;
use std::marker::PhantomData;
use std::sync::atomic::Ordering;

/// A handle to a function registered identically on every rank.
pub struct RemoteFn<A: Pod, R: Pod> {
    id: u16,
    _sig: PhantomData<fn(A) -> R>,
}

impl<A: Pod, R: Pod> Clone for RemoteFn<A, R> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<A: Pod, R: Pod> Copy for RemoteFn<A, R> {}

/// Builder for the shared function table. Register every remote function
/// before launching the job (the paper's load-time function-entry
/// collection), then pass the registry to [`crate::spmd_registered`].
#[derive(Default)]
pub struct FnRegistry {
    handlers: HandlerRegistry,
    reply_id: Option<u16>,
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Split `[token][packed T]` as it arrived from `src`. The bytes may come
/// off a socket: a payload of any other length is refused
/// (`Fabric::refuse_message`) and the caller drops the message.
fn unpack<T: Pod>(ctx: &Ctx, src: Rank, bytes: &[u8]) -> Option<(u64, T)> {
    if bytes.len() != 8 + std::mem::size_of::<T>() {
        let why = format_args!("RPC payload of {} bytes", bytes.len());
        ctx.fabric().refuse_message(ctx.rank(), src, &why);
        return None;
    }
    let (token, value) = bytes.split_at(8);
    let token = u64::from_le_bytes(token.try_into().expect("8 bytes"));
    Some((token, T::read_from(value)))
}

impl FnRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        let mut me = FnRegistry::default();
        // Handler 0: the reply router. Payload = [token][packed R]; the
        // continuation stored under the token knows R.
        let reply_id = me.handlers.register(|ctx, src, bytes| {
            let token = bytes
                .get(..8)
                .map(|t| u64::from_le_bytes(t.try_into().expect("8 bytes")));
            let replies = &ctx.shared().own[ctx.rank()].pending_replies;
            match token.and_then(|token| replies.lock().remove(&token)) {
                Some(cont) => cont(ctx, src, bytes),
                None => {
                    let why = "RPC reply without a pending call";
                    ctx.fabric().refuse_message(ctx.rank(), src, &why)
                }
            }
        });
        me.reply_id = Some(reply_id);
        me
    }

    /// Register `f`; every rank must perform the same registrations in
    /// the same order (SPMD discipline — checked implicitly by the shared
    /// table being built once, pre-launch).
    pub fn register<A: Pod, R: Pod>(
        &mut self,
        f: impl Fn(&Ctx, A) -> R + Send + Sync + 'static,
    ) -> RemoteFn<A, R> {
        let reply_id = self.reply_id.expect("registry initialized");
        let id = self.handlers.register(move |ctx, src, bytes| {
            // Payload = [token][packed A]; run and reply with [token][R].
            let Some((token, arg)) = unpack::<A>(ctx, src, &bytes) else {
                return;
            };
            let ret = f(ctx, arg);
            let mut reply = Vec::with_capacity(8 + std::mem::size_of::<R>());
            put_u64(&mut reply, token);
            reply.extend_from_slice(&ret.to_bytes());
            ctx.send_handler(src, reply_id, Bytes::from(reply));
        });
        RemoteFn {
            id,
            _sig: PhantomData,
        }
    }

    /// Freeze into the runtime handler table.
    pub fn into_handlers(self) -> HandlerRegistry {
        self.handlers
    }
}

impl<A: Pod, R: Pod> RemoteFn<A, R> {
    /// Asynchronously invoke on rank `place` with `arg` — the typed
    /// `async(place)(function, args…)`. Returns a future for the result.
    pub fn call(&self, ctx: &Ctx, place: Rank, arg: A) -> RtFuture<R> {
        let me = ctx.rank();
        let (future, setter) = RtFuture::<R>::pending();
        let own = &ctx.shared().own[me];
        let token = own.reply_tokens.fetch_add(1, Ordering::Relaxed);
        own.pending_replies.lock().insert(
            token,
            Box::new(move |ctx: &Ctx, src, reply: Bytes| {
                if let Some((_, value)) = unpack::<R>(ctx, src, &reply) {
                    setter.set(value);
                }
            }),
        );
        let mut payload = Vec::with_capacity(8 + std::mem::size_of::<A>());
        put_u64(&mut payload, token);
        payload.extend_from_slice(&arg.to_bytes());
        ctx.send_handler(place, self.id, Bytes::from(payload));
        future
    }

    /// Invoke and wait (convenience).
    pub fn call_blocking(&self, ctx: &Ctx, place: Rank, arg: A) -> R {
        self.call(ctx, place, arg).get(ctx)
    }

    /// The raw handler id (diagnostics).
    pub fn id(&self) -> u16 {
        self.id
    }
}

/// Launch an SPMD job with a pre-built [`FnRegistry`] (wrapper around
/// `rupcxx_runtime::spmd_with_handlers`).
pub fn spmd_registered<Ret, F>(config: RuntimeConfig, registry: FnRegistry, body: F) -> Vec<Ret>
where
    Ret: Send,
    F: Fn(&Ctx) -> Ret + Send + Sync,
{
    rupcxx_runtime::spmd_with_handlers(config, registry.into_handlers(), body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: usize) -> RuntimeConfig {
        RuntimeConfig::new(n).segment_mib(1)
    }

    #[test]
    fn typed_call_roundtrip() {
        let mut reg = FnRegistry::new();
        let double = reg.register(|_: &Ctx, x: u64| x * 2);
        let out = spmd_registered(cfg(3), reg, move |ctx| {
            if ctx.rank() == 0 {
                double.call_blocking(ctx, 2, 21)
            } else {
                0
            }
        });
        assert_eq!(out[0], 42);
    }

    #[test]
    fn multiple_functions_and_float_args() {
        let mut reg = FnRegistry::new();
        let add = reg.register(|_: &Ctx, xy: [f64; 2]| xy[0] + xy[1]);
        let which_rank = reg.register(|ctx: &Ctx, _: u64| ctx.rank() as u64);
        let out = spmd_registered(cfg(2), reg, move |ctx| {
            if ctx.rank() == 1 {
                let s = add.call_blocking(ctx, 0, [1.5, 2.25]);
                let r = which_rank.call_blocking(ctx, 0, 0);
                (s, r)
            } else {
                (0.0, 99)
            }
        });
        assert_eq!(out[1], (3.75, 0));
    }

    #[test]
    fn many_outstanding_calls_resolve_in_any_order() {
        let mut reg = FnRegistry::new();
        let echo = reg.register(|_: &Ctx, x: u64| x + 1000);
        let out = spmd_registered(cfg(4), reg, move |ctx| {
            if ctx.rank() != 0 {
                return 0u64;
            }
            let futures: Vec<RtFuture<u64>> = (0..60)
                .map(|i| echo.call(ctx, 1 + (i as usize % 3), i))
                .collect();
            futures.into_iter().map(|f| f.get(ctx)).sum()
        });
        let expect: u64 = (0..60).map(|i| i + 1000).sum();
        assert_eq!(out[0], expect);
    }

    #[test]
    fn self_call_works() {
        let mut reg = FnRegistry::new();
        let neg = reg.register(|_: &Ctx, x: i64| -x);
        let out = spmd_registered(cfg(1), reg, move |ctx| neg.call_blocking(ctx, 0, 7));
        assert_eq!(out[0], -7);
    }

    #[test]
    fn remote_fn_composes_with_finish_style_fanout() {
        // Fan a typed call to every rank; futures all resolve.
        let mut reg = FnRegistry::new();
        let rank_sq = reg.register(|ctx: &Ctx, _: u64| (ctx.rank() * ctx.rank()) as u64);
        let out = spmd_registered(cfg(4), reg, move |ctx| {
            if ctx.rank() != 0 {
                return 0;
            }
            let fs: Vec<_> = (0..ctx.ranks()).map(|r| rank_sq.call(ctx, r, 0)).collect();
            fs.into_iter().map(|f| f.get(ctx)).sum::<u64>()
        });
        assert_eq!(out[0], 14); // 0² + 1² + 2² + 3²
    }
}
