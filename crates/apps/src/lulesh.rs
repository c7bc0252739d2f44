//! MiniLulesh — the shock-hydrodynamics proxy of paper §V-E
//! (LULESH substitute; see DESIGN.md substitutions).
//!
//! LULESH's essential computational structure is kept:
//!
//! * a 3-D structured domain decomposed over a **perfect cube** of ranks
//!   (the paper's `n³` process requirement);
//! * a **Lagrange-leapfrog-style time step**: pressure-gradient forces →
//!   velocity update → divergence/strain → density & energy update →
//!   equation of state + artificial viscosity;
//! * a **26-neighbour ghost exchange** of four fields per step, with
//!   non-contiguous faces/edges/corners packed and unpacked by hand
//!   (exactly the packing strategy the paper describes);
//! * a global **Courant dt reduction** (allreduce min) per step.
//!
//! The physics is a cell-centered compressible-flow proxy (ideal-gas EOS,
//! Sedov-like point-blast initial condition, periodic domain) rather than
//! LULESH's full hexahedral FEM — the communication pattern, data volumes
//! and synchronization structure are the reproduced quantities.
//!
//! Three transports reproduce Fig. 8's comparison and extend it:
//! * [`Transport::TwoSided`] — `rupcxx-mpi` non-blocking `isend`/`irecv`
//!   (the paper's MPI version);
//! * [`Transport::OneSided`] — `rupcxx` one-sided puts into pre-published
//!   landing buffers with handle-less fence synchronization (the paper's
//!   UPC++ version);
//! * [`Transport::PgasArrays`] — a periodic `DistArray` program: each
//!   exchanged field is a [`DistArray::periodic`] over the global domain,
//!   and its ghost faces move by the face copies the array planned at
//!   construction, no packing (the paper's §V-E future work).
//!
//! Every transport runs one kernel on one `(edge+2)³` layout — plain
//! `Vec`s for the packing transports, the privatized array blocks for
//! `PgasArrays` — so they produce **bitwise identical** physics, the
//! cross-variant correctness check, and a FOM gap between them is the
//! exchange's alone.

use rupcxx::prelude::*;
use rupcxx_mpi::{MpiWorld, RecvReq, SendReq};
use rupcxx_ndarray::{DistArray, LocalGrid, Point, RectDomain};
use rupcxx_util::Timer;
use std::ops::Range;
use std::sync::Arc;

const GAMMA: f64 = 1.4;
const DX: f64 = 1.0;
const NFIELDS: usize = 4; // p+q, u, v, w travel in the ghost exchange
const NDIRS: usize = 26;

/// Communication flavour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// One-sided UPC++-style exchange (manual pack/unpack, as the paper's
    /// UPC++ port of LULESH does).
    OneSided,
    /// Two-sided MPI-style exchange.
    TwoSided,
    /// The paper's future-work variant (§V-E), a periodic `DistArray`
    /// program: p+q and the velocities are periodic distributed arrays,
    /// and their ghost faces move by the one-sided strided copies each
    /// array planned once — **no explicit packing or unpacking at all**.
    /// Only the 6 faces the 7-point kernels read are exchanged. Produces
    /// bitwise-identical physics.
    PgasArrays,
}

/// Benchmark parameters.
#[derive(Clone, Copy, Debug)]
pub struct LuleshConfig {
    /// Zones per rank per dimension (paper runs 30–48³ per rank).
    pub edge: usize,
    /// Ranks per dimension; `q³` must equal the rank count.
    pub q: usize,
    /// Time steps.
    pub steps: usize,
    /// Transport variant.
    pub transport: Transport,
}

/// Result of a run.
#[derive(Clone, Copy, Debug)]
pub struct LuleshResult {
    /// Wall seconds (max over ranks).
    pub seconds: f64,
    /// Figure of merit: zone-updates per second, aggregate.
    pub fom_zps: f64,
    /// Global total energy (ρe summed over zones) — conservation check.
    pub total_energy: f64,
    /// Global maximum |velocity| — the blast is moving.
    pub max_speed: f64,
}

/// One rank's zonal fields: `(edge+2)³` cells, ghost shell included, `k`
/// contiguous. The velocities live with the transport, in the same layout.
struct State {
    e1: usize, // edge
    s: usize,  // stride = edge + 2
    rho: Vec<f64>,
    en: Vec<f64>,
    p: Vec<f64>,
    q: Vec<f64>,
}

impl State {
    /// Uniform gas after the initial EOS; `hot` (the rank owning the
    /// global center) holds the Sedov-like point blast.
    fn new(edge: usize, hot: bool) -> Self {
        let s = edge + 2;
        let n = s * s * s;
        let mut st = State {
            e1: edge,
            s,
            rho: vec![1.0; n],
            en: vec![1e-6; n],
            p: vec![0.0; n],
            q: vec![0.0; n],
        };
        if hot {
            let c = st.idx(edge / 2 + 1, edge / 2 + 1, edge / 2 + 1);
            st.en[c] = 1.0;
        }
        for c in 0..n {
            st.p[c] = (GAMMA - 1.0) * st.rho[c] * st.en[c];
        }
        st
    }

    #[inline]
    fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        (i * self.s + j) * self.s + k
    }

    /// The interior, one contiguous `k` row per `(i, j)`. Holds no
    /// borrow of the state.
    fn rows(&self) -> impl Iterator<Item = Range<usize>> {
        let (e, s) = (self.e1, self.s);
        (1..=e).flat_map(move |i| {
            (1..=e)
                .map(move |j| (i * s + j) * s)
                .map(move |r| r + 1..r + e + 1)
        })
    }

    /// Cells of the slab toward or from `dir` (`send_range` or
    /// `recv_range`), in the lexicographic order both ends share.
    fn slab(
        &self,
        dir: (i64, i64, i64),
        range: fn(i64, usize) -> (usize, usize),
    ) -> impl Iterator<Item = usize> + '_ {
        let [(i0, i1), (j0, j1), (k0, k1)] = [dir.0, dir.1, dir.2].map(|d| range(d, self.e1));
        (i0..=i1)
            .flat_map(move |i| (j0..=j1).flat_map(move |j| self.idx(i, j, k0)..=self.idx(i, j, k1)))
    }

    /// Interior p+q into `pq`, the array the kernel's force reads.
    fn publish_pq(&self, pq: &mut [f64]) {
        for c in self.rows().flatten() {
            pq[c] = self.p[c] + self.q[c];
        }
    }

    /// Global total energy and maximum speed.
    fn diagnostics(&self, ctx: &Ctx, [u, v, w]: [&[f64]; 3]) -> (f64, f64) {
        let mut energy = 0.0;
        let mut speed: f64 = 0.0;
        for c in self.rows().flatten() {
            let v2 = u[c] * u[c] + v[c] * v[c] + w[c] * w[c];
            energy += self.rho[c] * self.en[c] + 0.5 * self.rho[c] * v2;
            speed = speed.max(v2.sqrt());
        }
        (
            ctx.allreduce(energy, |a, b| a + b),
            ctx.allreduce(speed, f64::max),
        )
    }
}

/// The Lagrange-leapfrog proxy step over one rank's block, every
/// transport's: force, velocity, divergence, continuity/energy and
/// viscosity, then the EOS. Reads `pq` and `u, v, w` with their ghosts
/// filled, writes the interior of `un, vn, wn` and of the zonal fields,
/// and returns the rank's Courant limit. A zone reads no other zone's
/// zonal values, so those update in place.
fn zone_step(
    st: &mut State,
    pq: &[f64],
    [u, v, w]: [&[f64]; 3],
    [un, vn, wn]: [&mut [f64]; 3],
    dt: f64,
    dx: f64,
) -> f64 {
    let (s, s2) = (st.s, st.s * st.s);
    let (rows, eos_rows) = (st.rows(), st.rows());
    let State { rho, en, p, q, .. } = st;
    let inv2dx = 0.5 / dx;
    let mut max_speed: f64 = 0.0;
    for row in rows {
        for c in row {
            // Force: -∇(p+q)/ρ.
            let ax = -(pq[c + s2] - pq[c - s2]) * inv2dx / rho[c];
            let ay = -(pq[c + s] - pq[c - s]) * inv2dx / rho[c];
            let az = -(pq[c + 1] - pq[c - 1]) * inv2dx / rho[c];
            un[c] = u[c] + dt * ax;
            vn[c] = v[c] + dt * ay;
            wn[c] = w[c] + dt * az;
            // Divergence of the (old) velocity field.
            let div = (u[c + s2] - u[c - s2] + v[c + s] - v[c - s] + w[c + 1] - w[c - 1]) * inv2dx;
            // Continuity & energy (compression work).
            let new_rho = (rho[c] - dt * rho[c] * div).max(1e-10);
            en[c] = (en[c] - dt * (p[c] + q[c]) * div / rho[c]).max(1e-12);
            rho[c] = new_rho;
            let speed = (un[c] * un[c] + vn[c] * vn[c] + wn[c] * wn[c]).sqrt();
            max_speed = max_speed.max(speed);
            // Artificial viscosity on compression.
            q[c] = if div < 0.0 {
                2.0 * new_rho * div * div * dx * dx
            } else {
                0.0
            };
        }
    }
    // EOS.
    let mut max_cs: f64 = 0.0;
    for row in eos_rows {
        for c in row {
            p[c] = (GAMMA - 1.0) * rho[c] * en[c];
            max_cs = max_cs.max((GAMMA * p[c] / rho[c]).sqrt());
        }
    }
    0.3 * dx / (max_cs + max_speed + 1e-12)
}

/// Runs `steps` time steps between two barriers and returns the wall
/// seconds (max over ranks). `step(n, dt)` advances the state by `dt` and
/// returns the rank's Courant limit; the global minimum bounds the next dt.
fn time_steps(ctx: &Ctx, steps: usize, step: &mut dyn FnMut(usize, f64) -> f64) -> f64 {
    let mut dt = 0.05;
    ctx.barrier();
    let t = Timer::start();
    for n in 0..steps {
        let global_limit = ctx.allreduce(step(n, dt), f64::min);
        dt = (dt * 1.1).min(global_limit).min(0.05);
    }
    ctx.barrier();
    ctx.allreduce(t.seconds(), f64::max)
}

/// The 26 neighbour direction vectors, in a fixed order shared by both
/// packing transports (deterministic packing order).
fn directions() -> [(i64, i64, i64); NDIRS] {
    let mut dirs = [(0i64, 0i64, 0i64); NDIRS];
    let mut n = 0;
    for dx in -1..=1i64 {
        for dy in -1..=1i64 {
            for dz in -1..=1i64 {
                if (dx, dy, dz) != (0, 0, 0) {
                    dirs[n] = (dx, dy, dz);
                    n += 1;
                }
            }
        }
    }
    dirs
}

/// Index range (inclusive) of the interior slab to SEND toward `d`.
fn send_range(d: i64, edge: usize) -> (usize, usize) {
    match d {
        -1 => (1, 1),
        1 => (edge, edge),
        _ => (1, edge),
    }
}

/// Index range (inclusive) of the ghost slab to RECEIVE from `d`.
fn recv_range(d: i64, edge: usize) -> (usize, usize) {
    match d {
        -1 => (0, 0),
        1 => (edge + 1, edge + 1),
        _ => (1, edge),
    }
}

fn slab_len(dir: (i64, i64, i64), edge: usize) -> usize {
    let n = |d: i64| if d == 0 { edge } else { 1 };
    n(dir.0) * n(dir.1) * n(dir.2)
}

/// Pack the exchanged fields (p+q, u, v, w) for direction `dir`, cell by
/// cell.
fn pack(st: &State, dir: (i64, i64, i64), fields: [&[f64]; NFIELDS]) -> Vec<f64> {
    let mut out = Vec::with_capacity(NFIELDS * slab_len(dir, st.e1));
    for c in st.slab(dir, send_range) {
        out.extend(fields.map(|f| f[c]));
    }
    out
}

/// Unpack a slab received from direction `dir` into the fields' ghost
/// shell.
fn unpack(st: &State, dir: (i64, i64, i64), data: &[f64], mut fields: [&mut [f64]; NFIELDS]) {
    assert_eq!(
        data.len(),
        NFIELDS * slab_len(dir, st.e1),
        "slab size mismatch"
    );
    for (c, cell) in st.slab(dir, recv_range).zip(data.chunks_exact(NFIELDS)) {
        for (f, &x) in fields.iter_mut().zip(cell) {
            f[c] = x;
        }
    }
}

fn rank_of(c: (i64, i64, i64), q: usize) -> usize {
    let q = q as i64;
    let wrap = |x: i64| ((x % q) + q) % q;
    (wrap(c.0) + wrap(c.1) * q + wrap(c.2) * q * q) as usize
}

fn coords_of(rank: usize, q: usize) -> (i64, i64, i64) {
    (
        (rank % q) as i64,
        ((rank / q) % q) as i64,
        (rank / (q * q)) as i64,
    )
}

/// Landing buffers for the one-sided exchange: one per incoming direction.
struct OneSidedBufs {
    /// `mine[d]` = landing buffer for data arriving from direction d.
    mine: Vec<GlobalPtr<f64>>,
    /// `all[r][d]` = rank r's landing buffer for direction d.
    all: Vec<Vec<GlobalPtr<f64>>>,
}

fn setup_one_sided(ctx: &Ctx, edge: usize) -> OneSidedBufs {
    let dirs = directions();
    let mine: Vec<GlobalPtr<f64>> = dirs
        .iter()
        .map(|&d| {
            allocate::<f64>(ctx, ctx.rank(), NFIELDS * slab_len(d, edge)).expect("landing buffer")
        })
        .collect();
    let flat: Vec<GlobalPtr<f64>> = ctx.allgatherv(&mine);
    let all: Vec<Vec<GlobalPtr<f64>>> = flat.chunks(NDIRS).map(|c| c.to_vec()).collect();
    OneSidedBufs { mine, all }
}

/// Run MiniLulesh collectively. `world` is required for the two-sided
/// transport (pass a fresh `MpiWorld` of the right size); ignored for
/// the others.
pub fn run(ctx: &Ctx, cfg: &LuleshConfig, world: Option<&Arc<MpiWorld>>) -> LuleshResult {
    let q = cfg.q;
    assert_eq!(q * q * q, ctx.ranks(), "ranks must be a perfect cube q³");
    let edge = cfg.edge;
    assert!(edge >= 2, "edge must be at least 2");
    let center_rank = rank_of((q as i64 / 2, q as i64 / 2, q as i64 / 2), q);
    let st = State::new(edge, ctx.rank() == center_rank);
    let (seconds, (total_energy, max_speed)) = match cfg.transport {
        Transport::PgasArrays => run_pgas_arrays(ctx, cfg, st),
        _ => run_packed(ctx, cfg, st, world),
    };
    let zones = (edge * edge * edge * ctx.ranks()) as f64;
    LuleshResult {
        seconds,
        fom_zps: zones * cfg.steps as f64 / seconds,
        total_energy,
        max_speed,
    }
}

/// The packing transports: velocities in double-buffered `Vec`s, ghosts
/// moved by 26 hand-packed slabs a step. Returns the timed seconds and
/// the diagnostics.
fn run_packed(
    ctx: &Ctx,
    cfg: &LuleshConfig,
    mut st: State,
    world: Option<&Arc<MpiWorld>>,
) -> (f64, (f64, f64)) {
    let (edge, q) = (cfg.edge, cfg.q);
    let my_c = coords_of(ctx.rank(), q);
    let dirs = directions();
    // Neighbour rank per direction (periodic domain).
    let nbr: Vec<usize> = dirs
        .iter()
        .map(|&(dx, dy, dz)| rank_of((my_c.0 + dx, my_c.1 + dy, my_c.2 + dz), q))
        .collect();
    // The direction index the *neighbour* sees me from (opposite dir).
    let opposite: Vec<usize> = dirs
        .iter()
        .map(|&(dx, dy, dz)| {
            dirs.iter()
                .position(|&o| o == (-dx, -dy, -dz))
                .expect("opposite direction")
        })
        .collect();

    let one_sided = (cfg.transport == Transport::OneSided).then(|| setup_one_sided(ctx, edge));
    let comm = world.map(|w| w.comm(ctx));
    if cfg.transport == Transport::TwoSided {
        assert!(comm.is_some(), "TwoSided transport needs an MpiWorld");
    }

    let n = st.s * st.s * st.s;
    let mut pq = vec![0.0f64; n];
    // `vel[step % 2]` is read, `vel[1 - step % 2]` written.
    let mut vel: [[Vec<f64>; 3]; 2] =
        std::array::from_fn(|_| std::array::from_fn(|_| vec![0.0; n]));

    let seconds = time_steps(ctx, cfg.steps, &mut |step, dt| {
        let [a, b] = &mut vel;
        let (cur, nxt) = if step % 2 == 0 { (a, b) } else { (b, a) };
        st.publish_pq(&mut pq);
        // --- Ghost exchange of (p+q, u, v, w), 26 neighbours. ---
        let out: [&[f64]; NFIELDS] = [&pq, &cur[0], &cur[1], &cur[2]];
        let arrived: Vec<Vec<f64>> = match cfg.transport {
            Transport::TwoSided => {
                let comm = comm.as_ref().expect("checked");
                // Post all receives first (tag = direction I receive
                // from). Pack and send: the neighbour in direction d
                // receives my slab tagged with the direction it sees me
                // from.
                let recvs: Vec<RecvReq> =
                    (0..NDIRS).map(|d| comm.irecv(nbr[d], d as u64)).collect();
                let sends: Vec<SendReq> = (0..NDIRS)
                    .map(|d| comm.isend_slice(nbr[d], opposite[d] as u64, &pack(&st, dirs[d], out)))
                    .collect();
                let arrived = comm.waitall_recvs(&recvs);
                comm.waitall_sends(&sends);
                arrived
                    .iter()
                    .map(|(_, bytes)| rupcxx_net::pod::unpack_slice::<f64>(bytes))
                    .collect()
            }
            Transport::OneSided => {
                let bufs = one_sided.as_ref().expect("checked");
                // Put my slab straight into the neighbour's landing
                // buffer for the direction it sees me from ("handle-less"
                // non-blocking one-sided, synchronized by a single fence).
                for d in 0..NDIRS {
                    bufs.all[nbr[d]][opposite[d]].rput_slice(ctx, &pack(&st, dirs[d], out));
                }
                async_copy_fence(ctx);
                ctx.barrier();
                (0..NDIRS)
                    .map(|d| {
                        let mut data = vec![0.0f64; NFIELDS * slab_len(dirs[d], edge)];
                        bufs.mine[d].rget_slice(ctx, &mut data);
                        data
                    })
                    .collect()
            }
            Transport::PgasArrays => unreachable!("runs in run_pgas_arrays"),
        };
        for (&dir, data) in dirs.iter().zip(&arrived) {
            let [u, v, w] = cur.each_mut().map(Vec::as_mut_slice);
            unpack(&st, dir, data, [&mut pq, u, v, w]);
        }
        zone_step(
            &mut st,
            &pq,
            cur.each_ref().map(Vec::as_slice),
            nxt.each_mut().map(Vec::as_mut_slice),
            dt,
            DX,
        )
    });
    let diagnostics = st.diagnostics(ctx, vel[cfg.steps % 2].each_ref().map(Vec::as_slice));

    ctx.barrier();
    if let Some(bufs) = one_sided {
        for p in bufs.mine {
            deallocate(ctx, p);
        }
    }
    (seconds, diagnostics)
}

/// The pack-free variant, a periodic `DistArray` program. Returns the
/// timed seconds and the diagnostics.
fn run_pgas_arrays(ctx: &Ctx, cfg: &LuleshConfig, mut st: State) -> (f64, (f64, f64)) {
    // Rank r's block of the `(q·edge)³` domain is the one
    // `coords_of(r, q)` names, one ghost layer around it.
    let global = RectDomain::new(Point::zero(), Point::splat((cfg.q * cfg.edge) as i64));
    let array = || DistArray::<f64, 3>::periodic(ctx, global, [cfg.q; 3], 1);
    // p+q (single buffer) and double-buffered u, v, w (`vel[step % 2]`
    // read, `vel[1 - step % 2]` written).
    let pq = array();
    let vel: [[DistArray<f64, 3>; 3]; 2] =
        std::array::from_fn(|_| std::array::from_fn(|_| array()));
    for a in vel.iter().flatten().chain([&pq]) {
        a.local().fill(ctx, 0.0);
    }

    // Privatized blocks (`LocalGrid::view`) in `State`'s layout: the
    // kernel indexes them as it indexes the zonal fields.
    let pq_g = LocalGrid::<f64, 3>::new(ctx, &pq.local());
    assert_eq!(pq_g.strides(), (st.s * st.s, st.s), "halo layout");
    let view = |a: &DistArray<f64, 3>| LocalGrid::<f64, 3>::new(ctx, &a.local()).view();
    let view_mut = |a: &DistArray<f64, 3>| LocalGrid::<f64, 3>::new(ctx, &a.local()).view_mut();
    let seconds = time_steps(ctx, cfg.steps, &mut |step, dt| {
        let (cur, nxt) = (step % 2, 1 - step % 2);
        // Publish interior p+q, no pack/unpack. The allreduce that closed
        // the last step keeps a peer's face pull of `pq` out of this
        // write, the barrier below keeps the next pull out of it.
        st.publish_pq(pq_g.view_mut());
        ctx.barrier();
        // Face ghost exchange, one-sided, planned at construction.
        for a in [&pq].into_iter().chain(&vel[cur]) {
            a.exchange_ghosts(ctx);
        }
        // Peers only read `pq` and the `cur` velocities until the
        // allreduce that ends the step, and never touch the `nxt` ones.
        zone_step(
            &mut st,
            pq_g.view(),
            vel[cur].each_ref().map(view),
            vel[nxt].each_ref().map(view_mut),
            dt,
            DX,
        )
    });
    let diagnostics = st.diagnostics(ctx, vel[cfg.steps % 2].each_ref().map(view));

    for a in vel.into_iter().flatten().chain([pq]) {
        a.destroy(ctx);
    }
    (seconds, diagnostics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupcxx_runtime::{spmd, RuntimeConfig};

    fn rt(n: usize) -> RuntimeConfig {
        RuntimeConfig::new(n).segment_mib(4)
    }

    fn cfg(edge: usize, q: usize, steps: usize, transport: Transport) -> LuleshConfig {
        LuleshConfig {
            edge,
            q,
            steps,
            transport,
        }
    }

    #[test]
    fn transports_produce_identical_physics() {
        let one = spmd(rt(8), |ctx| {
            run(ctx, &cfg(4, 2, 5, Transport::OneSided), None)
        });
        let world = MpiWorld::new(8);
        let two = spmd(rt(8), move |ctx| {
            run(ctx, &cfg(4, 2, 5, Transport::TwoSided), Some(&world))
        });
        assert_eq!(one[0].total_energy, two[0].total_energy, "bitwise equal");
        assert_eq!(one[0].max_speed, two[0].max_speed);
    }

    #[test]
    fn pgas_arrays_variant_is_bitwise_identical() {
        // The pack-free multidimensional-array variant (the paper's §V-E
        // future work) must reproduce the packing variants exactly.
        let packed = spmd(rt(8), |ctx| {
            run(ctx, &cfg(4, 2, 5, Transport::OneSided), None)
        });
        let arrays = spmd(rt(8), |ctx| {
            run(ctx, &cfg(4, 2, 5, Transport::PgasArrays), None)
        });
        assert_eq!(packed[0].total_energy, arrays[0].total_energy);
        assert_eq!(packed[0].max_speed, arrays[0].max_speed);
    }

    #[test]
    fn pgas_arrays_single_rank_periodic() {
        let a = spmd(rt(1), |ctx| {
            run(ctx, &cfg(6, 1, 6, Transport::OneSided), None)
        });
        let b = spmd(rt(1), |ctx| {
            run(ctx, &cfg(6, 1, 6, Transport::PgasArrays), None)
        });
        assert_eq!(a[0].total_energy, b[0].total_energy);
    }

    #[test]
    fn multirank_matches_single_rank() {
        // Same global domain (8³ zones): 1 rank of edge 8 vs 8 ranks of
        // edge 4. Double-buffered updates make the arithmetic identical.
        let single = spmd(rt(1), |ctx| {
            run(ctx, &cfg(8, 1, 4, Transport::OneSided), None)
        });
        let multi = spmd(rt(8), |ctx| {
            run(ctx, &cfg(4, 2, 4, Transport::OneSided), None)
        });
        let (a, b) = (single[0].total_energy, multi[0].total_energy);
        assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0), "{a} vs {b}");
    }

    #[test]
    fn blast_wave_moves_and_energy_stays_bounded() {
        let out = spmd(rt(1), |ctx| {
            run(ctx, &cfg(8, 1, 10, Transport::OneSided), None)
        });
        let r = out[0];
        assert!(r.max_speed > 0.0, "blast must accelerate material");
        assert!(r.total_energy.is_finite());
        // Initial total energy ≈ 1 (hot zone) + background; the proxy
        // integrator is not exactly conservative but must stay bounded.
        assert!(r.total_energy > 0.1 && r.total_energy < 10.0);
        assert!(r.fom_zps > 0.0);
    }

    #[test]
    #[should_panic(expected = "perfect cube")]
    fn non_cube_rank_count_rejected() {
        spmd(rt(2), |ctx| {
            run(ctx, &cfg(4, 2, 1, Transport::OneSided), None);
        });
    }

    #[test]
    fn directions_are_26_unique_with_opposites() {
        let dirs = directions();
        let set: std::collections::HashSet<_> = dirs.iter().collect();
        assert_eq!(set.len(), 26);
        for d in dirs {
            assert!(dirs.contains(&(-d.0, -d.1, -d.2)));
        }
    }

    #[test]
    fn periodic_rank_arithmetic() {
        assert_eq!(rank_of((-1, 0, 0), 2), 1);
        assert_eq!(rank_of((2, 0, 0), 2), 0);
        for r in 0..27 {
            let c = coords_of(r, 3);
            assert_eq!(rank_of(c, 3), r);
        }
    }
}
