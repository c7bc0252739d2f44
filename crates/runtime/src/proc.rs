//! Multi-process SPMD launch over a transport conduit.
//!
//! [`spmd`](crate::spmd()) maps ranks to OS threads of one process. This
//! module maps them to OS *processes* wired together by a `rupcxx-net`
//! conduit (`shm:`, `tcp:` or `uds:`), the way the paper's GASNet
//! deployment does. The launch protocol is re-exec:
//!
//! * the program calls [`spmd_procs`] exactly where it would call `spmd`;
//! * with no conduit configured (or `loopback`) it IS `spmd` — threads,
//!   one process, [`ProcOutcome::InProcess`];
//! * with a conduit configured and no `RUPCXX_PROC_RANK` in the
//!   environment, the call becomes the *launcher*: it spawns `ranks`
//!   copies of the current executable (same arguments) with
//!   `RUPCXX_PROC_RANK=r`, supervises them, and returns
//!   [`ProcOutcome::Launcher`] with the per-rank exit statuses;
//! * with `RUPCXX_PROC_RANK=r` set, the call runs rank `r`'s closure over
//!   the conduit and returns [`ProcOutcome::Rank`].
//!
//! Every program built on `spmd_procs` is therefore its own launcher;
//! there is no separate one.

use crate::config::RuntimeConfig;
use crate::ctx::Ctx;
use crate::shared::{HandlerRegistry, Shared};
use crate::spmd::{run_hosted, spmd_with_handlers};
use rupcxx_net::{ConduitSel, Rank, RemoteConfig};
use std::process::{Command, ExitStatus};
use std::time::{Duration, Instant};

/// Environment variable carrying a child process's rank.
pub const PROC_RANK_ENV: &str = "RUPCXX_PROC_RANK";

/// How one [`spmd_procs`] call participated in the job.
#[derive(Debug)]
pub enum ProcOutcome<R> {
    /// No conduit (or `loopback`): the job ran as threads in this
    /// process; all ranks' results in rank order, exactly [`crate::spmd`].
    InProcess(Vec<R>),
    /// This process was the launcher parent: per-rank child exit
    /// statuses, indexed by rank.
    Launcher(Vec<ExitStatus>),
    /// This process was one rank of a multi-process job.
    Rank(Rank, R),
}

impl<R> ProcOutcome<R> {
    /// True when every rank succeeded (launcher: all children exited 0;
    /// otherwise trivially true — a failed rank panics instead).
    pub fn success(&self) -> bool {
        match self {
            ProcOutcome::Launcher(statuses) => statuses.iter().all(|s| s.success()),
            _ => true,
        }
    }
}

/// Launch an SPMD job that may span OS processes. See the module docs
/// for the protocol; `config.conduit` (usually seeded from
/// `RUPCXX_CONDUIT`) selects the transport.
pub fn spmd_procs<R, F>(config: RuntimeConfig, handlers: HandlerRegistry, body: F) -> ProcOutcome<R>
where
    R: Send,
    F: Fn(&Ctx) -> R + Send + Sync,
{
    let rank_env = std::env::var(PROC_RANK_ENV).ok();
    match (&config.conduit, rank_env) {
        (None | Some(ConduitSel::Loopback), None) => {
            ProcOutcome::InProcess(spmd_with_handlers(config, handlers, body))
        }
        (None | Some(ConduitSel::Loopback), Some(r)) => panic!(
            "{PROC_RANK_ENV}={r} is set but no multi-process conduit is \
             configured (RUPCXX_CONDUIT is unset or loopback)"
        ),
        (Some(sel), None) => ProcOutcome::Launcher(launch_children(&config, &sel.clone())),
        (Some(sel), Some(raw)) => {
            let me: Rank = raw
                .parse()
                .unwrap_or_else(|_| panic!("{PROC_RANK_ENV}={raw}: not a rank"));
            assert!(
                me < config.ranks,
                "{PROC_RANK_ENV}={me} out of range for {} ranks",
                config.ranks
            );
            // Child half: this process is rank `me` of a conduit-connected
            // job; its drain runs the conduit FIN handshake.
            let remote = RemoteConfig {
                my_rank: me,
                conduit: sel.clone(),
            };
            let shared = Shared::new_full(config.fabric_config(Some(remote)), handlers);
            let mut results = run_hosted(&config, shared, body);
            ProcOutcome::Rank(me, results.pop().expect("a process hosts one rank"))
        }
    }
}

/// Parent half: spawn one copy of the current executable per rank and
/// supervise. When any child fails, the survivors are given a grace
/// period to notice the dead peer (`PeerUnreachable` through the conduit
/// `Closed` event) and are killed if they outlive it, so a launcher
/// never hangs on a crashed job.
fn launch_children(config: &RuntimeConfig, sel: &ConduitSel) -> Vec<ExitStatus> {
    let exe = std::env::current_exe().expect("launcher: current_exe");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut children = Vec::with_capacity(config.ranks);
    for rank in 0..config.ranks {
        let child = Command::new(&exe)
            .args(&args)
            .env(PROC_RANK_ENV, rank.to_string())
            .env("RUPCXX_CONDUIT", sel.to_string())
            .spawn()
            .unwrap_or_else(|e| panic!("launcher: spawn rank {rank}: {e}"));
        children.push((rank, child, None::<ExitStatus>));
    }
    const GRACE: Duration = Duration::from_secs(20);
    let mut failed_at: Option<Instant> = None;
    loop {
        let mut running = 0usize;
        for (rank, child, status) in children.iter_mut() {
            if status.is_some() {
                continue;
            }
            match child.try_wait() {
                Ok(Some(s)) => {
                    if !s.success() && failed_at.is_none() {
                        eprintln!("rupcxx launcher: rank {rank} exited with {s}");
                        failed_at = Some(Instant::now());
                    }
                    *status = Some(s);
                }
                Ok(None) => running += 1,
                Err(e) => panic!("launcher: wait rank {rank}: {e}"),
            }
        }
        if running == 0 {
            break;
        }
        if let Some(t0) = failed_at {
            if t0.elapsed() > GRACE {
                for (rank, child, status) in children.iter_mut() {
                    if status.is_none() {
                        eprintln!("rupcxx launcher: killing stuck rank {rank}");
                        let _ = child.kill();
                    }
                }
                failed_at = None; // killed children will report via try_wait
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    children
        .into_iter()
        .map(|(_, _, s)| s.expect("launcher: child status"))
        .collect()
}
