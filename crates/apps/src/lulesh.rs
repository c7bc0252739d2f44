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
//! Two transports reproduce Fig. 8's comparison:
//! * [`Transport::TwoSided`] — `rupcxx-mpi` non-blocking `isend`/`irecv`
//!   (the paper's MPI version);
//! * [`Transport::OneSided`] — `rupcxx` one-sided puts into pre-published
//!   landing buffers with handle-less fence synchronization (the paper's
//!   UPC++ version).
//!
//! Both transports pack/unpack in identical order, so they produce
//! **bitwise identical** physics — the cross-variant correctness check.

use rupcxx::prelude::*;
use rupcxx_mpi::{MpiWorld, RecvReq, SendReq};
use rupcxx_util::Timer;
use std::sync::Arc;

const GAMMA: f64 = 1.4;
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
    /// The paper's future-work variant (§V-E): state lives in
    /// multidimensional global arrays and ghost planes move with the
    /// domain-intersecting one-sided array copy — **no explicit packing
    /// or unpacking at all**. Only the 6 faces the 7-point kernels read
    /// are exchanged. Produces bitwise-identical physics.
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

/// One rank's field state: `(edge+2)³` cells, ghost shell included.
struct State {
    e1: usize, // edge
    s: usize,  // stride = edge + 2
    rho: Vec<f64>,
    en: Vec<f64>,
    p: Vec<f64>,
    q: Vec<f64>,
    u: Vec<f64>,
    v: Vec<f64>,
    w: Vec<f64>,
}

impl State {
    fn new(edge: usize) -> Self {
        let s = edge + 2;
        let n = s * s * s;
        State {
            e1: edge,
            s,
            rho: vec![1.0; n],
            en: vec![1e-6; n],
            p: vec![0.0; n],
            q: vec![0.0; n],
            u: vec![0.0; n],
            v: vec![0.0; n],
            w: vec![0.0; n],
        }
    }

    #[inline]
    fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        (i * self.s + j) * self.s + k
    }
}

/// The 26 neighbour direction vectors, in a fixed order shared by both
/// transports (deterministic packing order).
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

/// Pack the four exchanged fields for direction `dir` (deterministic
/// lexicographic order).
fn pack(st: &State, dir: (i64, i64, i64)) -> Vec<f64> {
    let (i0, i1) = send_range(dir.0, st.e1);
    let (j0, j1) = send_range(dir.1, st.e1);
    let (k0, k1) = send_range(dir.2, st.e1);
    let mut out = Vec::with_capacity(NFIELDS * slab_len(dir, st.e1));
    for i in i0..=i1 {
        for j in j0..=j1 {
            for k in k0..=k1 {
                let c = st.idx(i, j, k);
                out.push(st.p[c] + st.q[c]);
                out.push(st.u[c]);
                out.push(st.v[c]);
                out.push(st.w[c]);
            }
        }
    }
    out
}

/// Unpack a received slab from direction `dir` into the ghost shell.
/// `pq_ghost` receives the combined p+q field.
fn unpack(st: &mut State, dir: (i64, i64, i64), data: &[f64], pq_ghost: &mut [f64]) {
    let (i0, i1) = recv_range(dir.0, st.e1);
    let (j0, j1) = recv_range(dir.1, st.e1);
    let (k0, k1) = recv_range(dir.2, st.e1);
    let mut it = data.iter();
    for i in i0..=i1 {
        for j in j0..=j1 {
            for k in k0..=k1 {
                let c = st.idx(i, j, k);
                pq_ghost[c] = *it.next().expect("slab size");
                st.u[c] = *it.next().expect("slab size");
                st.v[c] = *it.next().expect("slab size");
                st.w[c] = *it.next().expect("slab size");
            }
        }
    }
    assert!(it.next().is_none(), "slab size mismatch");
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
    /// `dirs_of[r][d]` = rank r's landing buffer for direction d.
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
/// one-sided.
pub fn run(ctx: &Ctx, cfg: &LuleshConfig, world: Option<&Arc<MpiWorld>>) -> LuleshResult {
    let q = cfg.q;
    assert_eq!(q * q * q, ctx.ranks(), "ranks must be a perfect cube q³");
    let edge = cfg.edge;
    assert!(edge >= 2, "edge must be at least 2");
    if cfg.transport == Transport::PgasArrays {
        return pgas::run_pgas_arrays(ctx, cfg);
    }
    let me = ctx.rank();
    let my_c = coords_of(me, q);
    let dirs = directions();
    // Neighbour rank per direction (periodic domain).
    let nbr: Vec<usize> = dirs
        .iter()
        .map(|&(dx, dy, dz)| rank_of((my_c.0 + dx, my_c.1 + dy, my_c.2 + dz), q))
        .collect();
    // The direction index the *neighbour* sees me from (opposite dir).
    #[allow(clippy::needless_range_loop)]
    let opposite: Vec<usize> = dirs
        .iter()
        .map(|&(dx, dy, dz)| {
            dirs.iter()
                .position(|&o| o == (-dx, -dy, -dz))
                .expect("opposite direction")
        })
        .collect();

    let mut st = State::new(edge);
    // Sedov-like point blast: the rank owning the global center gets a
    // hot zone.
    let center_rank = rank_of((q as i64 / 2, q as i64 / 2, q as i64 / 2), q);
    if me == center_rank {
        let c = st.idx(edge / 2 + 1, edge / 2 + 1, edge / 2 + 1);
        st.en[c] = 1.0;
    }
    // Initial EOS.
    let ncells = st.s * st.s * st.s;
    for c in 0..ncells {
        st.p[c] = (GAMMA - 1.0) * st.rho[c] * st.en[c];
    }

    let one_sided = (cfg.transport == Transport::OneSided).then(|| setup_one_sided(ctx, edge));
    let comm = world.map(|w| w.comm(ctx));
    if cfg.transport == Transport::TwoSided {
        assert!(comm.is_some(), "TwoSided transport needs an MpiWorld");
    }

    let dx = 1.0;
    let mut dt = 0.05;
    let mut pq_ghost = vec![0.0f64; ncells];

    ctx.barrier();
    let t = Timer::start();
    for _step in 0..cfg.steps {
        // --- Ghost exchange of (p+q, u, v, w), 26 neighbours. ---
        match cfg.transport {
            Transport::TwoSided => {
                let comm = comm.as_ref().expect("checked");
                // Post all receives first (tag = direction I receive from).
                let recvs: Vec<RecvReq> =
                    (0..NDIRS).map(|d| comm.irecv(nbr[d], d as u64)).collect();
                // Pack and send: the neighbour in direction d receives my
                // slab tagged with the direction it sees me from.
                let sends: Vec<SendReq> = (0..NDIRS)
                    .map(|d| {
                        let payload = pack(&st, dirs[d]);
                        comm.isend_slice(nbr[d], opposite[d] as u64, &payload)
                    })
                    .collect();
                let arrived = comm.waitall_recvs(&recvs);
                comm.waitall_sends(&sends);
                for (d, (_, bytes)) in arrived.into_iter().enumerate() {
                    let data = rupcxx_net::pod::unpack_slice::<f64>(&bytes);
                    unpack(&mut st, dirs[d], &data, &mut pq_ghost);
                }
            }
            Transport::PgasArrays => unreachable!("dispatched to pgas::run_pgas_arrays"),
            Transport::OneSided => {
                let bufs = one_sided.as_ref().expect("checked");
                // Put my slab straight into the neighbour's landing buffer
                // for the direction it sees me from ("handle-less"
                // non-blocking one-sided, synchronized by a single fence).
                #[allow(clippy::needless_range_loop)]
                for d in 0..NDIRS {
                    let payload = pack(&st, dirs[d]);
                    bufs.all[nbr[d]][opposite[d]].rput_slice(ctx, &payload);
                }
                async_copy_fence(ctx);
                ctx.barrier();
                for (d, &dir) in dirs.iter().enumerate() {
                    let len = NFIELDS * slab_len(dir, edge);
                    let mut data = vec![0.0f64; len];
                    bufs.mine[d].rget_slice(ctx, &mut data);
                    unpack(&mut st, dir, &data, &mut pq_ghost);
                }
            }
        }
        // Interior p+q into the work array (ghosts already filled).
        for i in 1..=edge {
            for j in 1..=edge {
                for k in 1..=edge {
                    let c = st.idx(i, j, k);
                    pq_ghost[c] = st.p[c] + st.q[c];
                }
            }
        }

        // --- Lagrange leapfrog proxy step (double-buffered updates). ---
        let inv2dx = 0.5 / dx;
        let mut new_u = st.u.clone();
        let mut new_v = st.v.clone();
        let mut new_w = st.w.clone();
        let mut new_rho = st.rho.clone();
        let mut new_en = st.en.clone();
        let mut max_speed: f64 = 0.0;
        let mut max_cs: f64 = 0.0;
        for i in 1..=edge {
            for j in 1..=edge {
                for k in 1..=edge {
                    let c = st.idx(i, j, k);
                    let (xp, xm) = (st.idx(i + 1, j, k), st.idx(i - 1, j, k));
                    let (yp, ym) = (st.idx(i, j + 1, k), st.idx(i, j - 1, k));
                    let (zp, zm) = (st.idx(i, j, k + 1), st.idx(i, j, k - 1));
                    // Force: -∇(p+q)/ρ.
                    let ax = -(pq_ghost[xp] - pq_ghost[xm]) * inv2dx / st.rho[c];
                    let ay = -(pq_ghost[yp] - pq_ghost[ym]) * inv2dx / st.rho[c];
                    let az = -(pq_ghost[zp] - pq_ghost[zm]) * inv2dx / st.rho[c];
                    new_u[c] = st.u[c] + dt * ax;
                    new_v[c] = st.v[c] + dt * ay;
                    new_w[c] = st.w[c] + dt * az;
                    // Divergence of the (old) velocity field.
                    let div =
                        (st.u[xp] - st.u[xm] + st.v[yp] - st.v[ym] + st.w[zp] - st.w[zm]) * inv2dx;
                    // Continuity & energy (compression work).
                    new_rho[c] = (st.rho[c] - dt * st.rho[c] * div).max(1e-10);
                    new_en[c] = (st.en[c] - dt * (st.p[c] + st.q[c]) * div / st.rho[c]).max(1e-12);
                    let speed =
                        (new_u[c] * new_u[c] + new_v[c] * new_v[c] + new_w[c] * new_w[c]).sqrt();
                    max_speed = max_speed.max(speed);
                    // Artificial viscosity on compression.
                    st.q[c] = if div < 0.0 {
                        2.0 * new_rho[c] * div * div * dx * dx
                    } else {
                        0.0
                    };
                }
            }
        }
        st.u = new_u;
        st.v = new_v;
        st.w = new_w;
        st.rho = new_rho;
        st.en = new_en;
        // EOS.
        for i in 1..=edge {
            for j in 1..=edge {
                for k in 1..=edge {
                    let c = st.idx(i, j, k);
                    st.p[c] = (GAMMA - 1.0) * st.rho[c] * st.en[c];
                    max_cs = max_cs.max((GAMMA * st.p[c] / st.rho[c]).sqrt());
                }
            }
        }
        // --- Courant dt (global). ---
        let local_limit = 0.3 * dx / (max_cs + max_speed + 1e-12);
        let global_limit = ctx.allreduce(local_limit, f64::min);
        dt = (dt * 1.1).min(global_limit).min(0.05);
    }
    ctx.barrier();
    let seconds = ctx.allreduce(t.seconds(), f64::max);

    // Diagnostics.
    let mut local_energy = 0.0;
    let mut local_speed: f64 = 0.0;
    for i in 1..=edge {
        for j in 1..=edge {
            for k in 1..=edge {
                let c = st.idx(i, j, k);
                local_energy += st.rho[c] * st.en[c]
                    + 0.5 * st.rho[c] * (st.u[c] * st.u[c] + st.v[c] * st.v[c] + st.w[c] * st.w[c]);
                local_speed = local_speed
                    .max((st.u[c] * st.u[c] + st.v[c] * st.v[c] + st.w[c] * st.w[c]).sqrt());
            }
        }
    }
    let total_energy = ctx.allreduce(local_energy, |a, b| a + b);
    let max_speed = ctx.allreduce(local_speed, f64::max);

    ctx.barrier();
    if let Some(bufs) = one_sided {
        for p in bufs.mine {
            deallocate(ctx, p);
        }
    }
    let zones = (edge * edge * edge * ctx.ranks()) as f64;
    LuleshResult {
        seconds,
        fom_zps: zones * cfg.steps as f64 / seconds,
        total_energy,
        max_speed,
    }
}

/// The pack-free variant: state in multidimensional global arrays.
mod pgas {
    use super::*;
    use rupcxx_ndarray::{pt, LocalGrid, NdArray, Point, RectDomain};

    /// Periodic pull of the 6 face ghost planes of `arr` from the
    /// neighbours' interiors (translating wrapped neighbours into this
    /// rank's ghost coordinate frame).
    fn exchange_faces(
        ctx: &Ctx,
        arr: &NdArray<f64, 3>,
        dirs: &[NdArray<f64, 3>],
        interior: RectDomain<3>,
        my_c: (i64, i64, i64),
        q: usize,
        edge: usize,
    ) {
        let (qi, ei) = (q as i64, edge as i64);
        for dim in 0..3usize {
            for side in [-1i8, 1] {
                let mut nc = [my_c.0, my_c.1, my_c.2];
                nc[dim] += side as i64;
                let mut shift = Point::<3>::zero();
                if nc[dim] < 0 || nc[dim] >= qi {
                    // Periodic wrap: the neighbour's block sits a full
                    // domain length away in this rank's coordinates.
                    shift[dim] = side as i64 * qi * ei;
                }
                let nb = rank_of((nc[0], nc[1], nc[2]), q);
                let src = dirs[nb].translate(shift);
                arr.copy_ghost_from(ctx, &src, interior, dim, side, 1);
            }
        }
    }

    pub(super) fn run_pgas_arrays(ctx: &Ctx, cfg: &LuleshConfig) -> LuleshResult {
        let q = cfg.q;
        let edge = cfg.edge;
        let me = ctx.rank();
        let my_c = coords_of(me, q);
        let ei = edge as i64;
        let lo = pt![my_c.0 * ei, my_c.1 * ei, my_c.2 * ei];
        let interior = RectDomain::new(lo, lo + Point::splat(ei));
        let halo = RectDomain::new(lo - Point::ones(), lo + Point::splat(ei + 1));

        // Global arrays: p+q (single buffer) and double-buffered u, v, w.
        let pq_arr = NdArray::<f64, 3>::new(ctx, halo);
        let vel: Vec<NdArray<f64, 3>> = (0..6).map(|_| NdArray::<f64, 3>::new(ctx, halo)).collect();
        pq_arr.fill(ctx, 0.0);
        for a in &vel {
            a.fill(ctx, 0.0);
        }
        let pq_dirs: Vec<NdArray<f64, 3>> = ctx.allgatherv(&[pq_arr]);
        let vel_dirs: Vec<Vec<NdArray<f64, 3>>> =
            (0..6).map(|k| ctx.allgatherv(&[vel[k]])).collect();

        // Rank-local zonal state (never needs ghosts): same layout and
        // initialization as the packing variants.
        let mut st = State::new(edge);
        let center_rank = rank_of((q as i64 / 2, q as i64 / 2, q as i64 / 2), q);
        if me == center_rank {
            let c = st.idx(edge / 2 + 1, edge / 2 + 1, edge / 2 + 1);
            st.en[c] = 1.0;
        }
        let ncells = st.s * st.s * st.s;
        for c in 0..ncells {
            st.p[c] = (GAMMA - 1.0) * st.rho[c] * st.en[c];
        }

        // Privatized blocks (`LocalGrid::view`). Every array has `halo`'s
        // layout, so `pq_g`'s offsets and strides serve all seven.
        let pq_g = LocalGrid::<f64, 3>::new(ctx, &pq_arr);
        let (si, sj) = pq_g.strides();
        let view = |a: &NdArray<f64, 3>| LocalGrid::<f64, 3>::new(ctx, a).view();
        let view_mut = |a: &NdArray<f64, 3>| LocalGrid::<f64, 3>::new(ctx, a).view_mut();
        let dx = 1.0;
        let mut dt = 0.05;
        ctx.barrier();
        let t = Timer::start();
        for step in 0..cfg.steps {
            let cur = step % 2; // velocity buffer indices: cur*3..cur*3+3
            let nxt = 1 - cur;
            // Publish interior p+q into the global array — the *only*
            // data movement besides the array copies; no pack/unpack. The
            // allreduce that closed the last step is what keeps a peer's
            // face pull of `pq` out of this write, the barrier below what
            // keeps the next pull out of it: until then the block is ours.
            let pq_out = pq_g.view_mut();
            for i in 0..ei {
                for j in 0..ei {
                    let o = pq_g.offset(lo[0] + i, lo[1] + j, lo[2]);
                    for k in 0..edge {
                        let c = st.idx(i as usize + 1, j as usize + 1, k + 1);
                        pq_out[o + k] = st.p[c] + st.q[c];
                    }
                }
            }
            ctx.barrier();
            // Face ghost exchange, one-sided, domain-intersecting.
            exchange_faces(ctx, &pq_arr, &pq_dirs, interior, my_c, q, edge);
            for k in 0..3 {
                exchange_faces(
                    ctx,
                    &vel[cur * 3 + k],
                    &vel_dirs[cur * 3 + k],
                    interior,
                    my_c,
                    q,
                    edge,
                );
            }
            // Kernel: identical arithmetic/order to the packing variants,
            // on privatized blocks. Peers only read `pq` and the `cur`
            // velocities until the allreduce below, and touch the `nxt`
            // ones not at all.
            let pq = pq_g.view();
            let [u, v, w] = [0, 1, 2].map(|d| view(&vel[cur * 3 + d]));
            let [un, vn, wn] = [0, 1, 2].map(|d| view_mut(&vel[nxt * 3 + d]));
            let inv2dx = 0.5 / dx;
            let mut new_rho = st.rho.clone();
            let mut new_en = st.en.clone();
            let mut max_speed: f64 = 0.0;
            let mut max_cs: f64 = 0.0;
            for li in 1..=edge {
                for lj in 1..=edge {
                    let o = pq_g.offset(lo[0] + li as i64 - 1, lo[1] + lj as i64 - 1, lo[2]);
                    for lk in 1..=edge {
                        let c = st.idx(li, lj, lk);
                        let x = o + lk - 1;
                        let ax = -(pq[x + si] - pq[x - si]) * inv2dx / st.rho[c];
                        let ay = -(pq[x + sj] - pq[x - sj]) * inv2dx / st.rho[c];
                        let az = -(pq[x + 1] - pq[x - 1]) * inv2dx / st.rho[c];
                        un[x] = u[x] + dt * ax;
                        vn[x] = v[x] + dt * ay;
                        wn[x] = w[x] + dt * az;
                        let div = (u[x + si] - u[x - si] + v[x + sj] - v[x - sj] + w[x + 1]
                            - w[x - 1])
                            * inv2dx;
                        new_rho[c] = (st.rho[c] - dt * st.rho[c] * div).max(1e-10);
                        new_en[c] =
                            (st.en[c] - dt * (st.p[c] + st.q[c]) * div / st.rho[c]).max(1e-12);
                        let (nu, nv, nw) = (un[x], vn[x], wn[x]);
                        let speed = (nu * nu + nv * nv + nw * nw).sqrt();
                        max_speed = max_speed.max(speed);
                        st.q[c] = if div < 0.0 {
                            2.0 * new_rho[c] * div * div * dx * dx
                        } else {
                            0.0
                        };
                    }
                }
            }
            st.rho = new_rho;
            st.en = new_en;
            for i in 1..=edge {
                for j in 1..=edge {
                    for k in 1..=edge {
                        let c = st.idx(i, j, k);
                        st.p[c] = (GAMMA - 1.0) * st.rho[c] * st.en[c];
                        max_cs = max_cs.max((GAMMA * st.p[c] / st.rho[c]).sqrt());
                    }
                }
            }
            let local_limit = 0.3 * dx / (max_cs + max_speed + 1e-12);
            let global_limit = ctx.allreduce(local_limit, f64::min);
            dt = (dt * 1.1).min(global_limit).min(0.05);
        }
        ctx.barrier();
        let seconds = ctx.allreduce(t.seconds(), f64::max);

        // Diagnostics: velocities live in the arrays (buffer parity of the
        // last completed step).
        let cur = cfg.steps % 2;
        let [uv, vv, wv] = [0, 1, 2].map(|d| view(&vel[cur * 3 + d]));
        let mut local_energy = 0.0;
        let mut local_speed: f64 = 0.0;
        for li in 1..=edge {
            for lj in 1..=edge {
                let o = pq_g.offset(lo[0] + li as i64 - 1, lo[1] + lj as i64 - 1, lo[2]);
                for lk in 1..=edge {
                    let c = st.idx(li, lj, lk);
                    let x = o + lk - 1;
                    let (u, v, w) = (uv[x], vv[x], wv[x]);
                    local_energy +=
                        st.rho[c] * st.en[c] + 0.5 * st.rho[c] * (u * u + v * v + w * w);
                    local_speed = local_speed.max((u * u + v * v + w * w).sqrt());
                }
            }
        }
        let total_energy = ctx.allreduce(local_energy, |a, b| a + b);
        let max_speed = ctx.allreduce(local_speed, f64::max);
        ctx.barrier();
        pq_arr.destroy(ctx);
        for a in vel {
            a.destroy(ctx);
        }
        let zones = (edge * edge * edge * ctx.ranks()) as f64;
        LuleshResult {
            seconds,
            fom_zps: zones * cfg.steps as f64 / seconds,
            total_energy,
            max_speed,
        }
    }
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
