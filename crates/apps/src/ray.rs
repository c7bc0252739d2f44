//! MiniRay — the distributed ray tracer of paper §V-D (Embree substitute).
//!
//! The paper extends Embree's sample renderer (Monte-Carlo path tracing)
//! to distributed memory: the image plane is divided into tiles, tiles are
//! distributed **statically and cyclically** over UPC++ ranks, each rank
//! balances its tiles dynamically over local threads (OpenMP there, a
//! work-queue thread pool here), and a final gather/sum-reduction combines
//! the partial images. Scene geometry is replicated on every rank.
//!
//! Embree's vectorized intersection kernels are replaced by a from-scratch
//! path tracer (spheres + ground plane, diffuse/mirror/emissive materials);
//! Fig. 7 measures the *scaling* of an embarrassingly parallel renderer,
//! which is preserved exactly (see DESIGN.md substitutions).
//!
//! Determinism: every pixel's sample stream is seeded by pixel index and
//! sample number only, so the rendered image is bit-identical for any rank
//! count — the cross-rank correctness check.

use rupcxx::prelude::*;
use rupcxx_util::{SplitMix64, ThreadPool, Timer};

/// A 3-component vector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Vec3 {
    /// x component.
    pub x: f64,
    /// y component.
    pub y: f64,
    /// z component.
    pub z: f64,
}

impl Vec3 {
    /// Construct.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }
    /// Zero vector.
    pub const fn zero() -> Self {
        Vec3::new(0.0, 0.0, 0.0)
    }
    /// Dot product.
    pub fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }
    /// Euclidean norm.
    pub fn len(self) -> f64 {
        self.dot(self).sqrt()
    }
    /// Unit vector.
    pub fn norm(self) -> Vec3 {
        self * (1.0 / self.len())
    }
    /// Componentwise product.
    pub fn hadamard(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x * o.x, self.y * o.y, self.z * o.z)
    }
    /// Cross product.
    pub fn cross(self, o: Vec3) -> Vec3 {
        Vec3::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }
}

impl std::ops::Add for Vec3 {
    type Output = Vec3;
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}
impl std::ops::Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}
impl std::ops::Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, k: f64) -> Vec3 {
        Vec3::new(self.x * k, self.y * k, self.z * k)
    }
}

/// Surface material.
#[derive(Clone, Copy, Debug)]
pub struct Material {
    /// Diffuse albedo.
    pub albedo: Vec3,
    /// Emitted radiance.
    pub emission: Vec3,
    /// Probability of a mirror bounce (0 = pure diffuse).
    pub mirror: f64,
}

/// A sphere primitive.
#[derive(Clone, Copy, Debug)]
pub struct Sphere {
    /// Center.
    pub center: Vec3,
    /// Radius.
    pub radius: f64,
    /// Material.
    pub material: Material,
}

/// The replicated scene: ground plane at y=0 plus spheres plus sky light.
#[derive(Clone, Debug)]
pub struct Scene {
    /// Spheres.
    pub spheres: Vec<Sphere>,
    /// Ground material (checkerboard darkens alternate squares).
    pub ground: Material,
    /// Sky radiance (hit when a ray escapes).
    pub sky: Vec3,
}

impl Scene {
    /// The standard benchmark scene: a grid of mixed diffuse/mirror
    /// spheres and one emissive sphere, deterministic for a given seed.
    pub fn benchmark(nspheres: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut spheres = Vec::with_capacity(nspheres + 1);
        // Area light.
        spheres.push(Sphere {
            center: Vec3::new(0.0, 6.0, -2.0),
            radius: 2.0,
            material: Material {
                albedo: Vec3::zero(),
                emission: Vec3::new(8.0, 7.5, 7.0),
                mirror: 0.0,
            },
        });
        for i in 0..nspheres {
            let gx = (i % 4) as f64 - 1.5;
            let gz = (i / 4) as f64;
            let r = 0.35 + 0.25 * rng.next_f64();
            spheres.push(Sphere {
                center: Vec3::new(gx * 1.6 + 0.4 * (rng.next_f64() - 0.5), r, -1.0 - gz * 1.4),
                radius: r,
                material: Material {
                    albedo: Vec3::new(
                        0.3 + 0.6 * rng.next_f64(),
                        0.3 + 0.6 * rng.next_f64(),
                        0.3 + 0.6 * rng.next_f64(),
                    ),
                    emission: Vec3::zero(),
                    mirror: if i % 3 == 0 { 0.85 } else { 0.0 },
                },
            });
        }
        Scene {
            spheres,
            ground: Material {
                albedo: Vec3::new(0.65, 0.65, 0.6),
                emission: Vec3::zero(),
                mirror: 0.0,
            },
            sky: Vec3::new(0.35, 0.45, 0.6),
        }
    }

    fn hit(&self, o: Vec3, d: Vec3) -> Option<(f64, Vec3, Material)> {
        let mut best: Option<(f64, Vec3, Material)> = None;
        let mut closest = f64::INFINITY;
        // Ground plane y = 0.
        if d.y < -1e-9 {
            let t = -o.y / d.y;
            if t > 1e-6 && t < closest {
                closest = t;
                let p = o + d * t;
                let checker = ((p.x.floor() + p.z.floor()) as i64).rem_euclid(2) == 0;
                let mut m = self.ground;
                if checker {
                    m.albedo = m.albedo * 0.45;
                }
                best = Some((t, Vec3::new(0.0, 1.0, 0.0), m));
            }
        }
        for s in &self.spheres {
            let oc = o - s.center;
            let b = oc.dot(d);
            let c = oc.dot(oc) - s.radius * s.radius;
            let disc = b * b - c;
            if disc <= 0.0 {
                continue;
            }
            let sq = disc.sqrt();
            for t in [-b - sq, -b + sq] {
                if t > 1e-6 && t < closest {
                    closest = t;
                    let n = ((o + d * t) - s.center).norm();
                    best = Some((t, n, s.material));
                    break;
                }
            }
        }
        best
    }
}

fn cosine_hemisphere(n: Vec3, rng: &mut SplitMix64) -> Vec3 {
    let u1 = rng.next_f64();
    let u2 = rng.next_f64();
    let r = u1.sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    let w = n;
    let a = if w.x.abs() > 0.9 {
        Vec3::new(0.0, 1.0, 0.0)
    } else {
        Vec3::new(1.0, 0.0, 0.0)
    };
    let u = w.cross(a).norm();
    let v = w.cross(u);
    (u * (r * theta.cos()) + v * (r * theta.sin()) + w * (1.0 - u1).sqrt()).norm()
}

/// Trace one path: Monte-Carlo integration of the rendering equation with
/// multi-bounce diffuse + mirror reflections (the paper's sample renderer
/// feature set, simplified).
pub fn trace(scene: &Scene, mut o: Vec3, mut d: Vec3, rng: &mut SplitMix64) -> Vec3 {
    let mut radiance = Vec3::zero();
    let mut throughput = Vec3::new(1.0, 1.0, 1.0);
    for bounce in 0..6 {
        match scene.hit(o, d) {
            None => {
                radiance = radiance + throughput.hadamard(scene.sky);
                break;
            }
            Some((t, n, m)) => {
                radiance = radiance + throughput.hadamard(m.emission);
                let p = o + d * t;
                if rng.next_f64() < m.mirror {
                    // Mirror bounce.
                    d = d - n * (2.0 * d.dot(n));
                } else {
                    throughput = throughput.hadamard(m.albedo);
                    d = cosine_hemisphere(n, rng);
                }
                o = p + n * 1e-6;
                // Russian roulette after a few bounces.
                if bounce >= 3 {
                    let pcont = throughput.x.max(throughput.y).max(throughput.z).min(0.95);
                    if rng.next_f64() > pcont {
                        break;
                    }
                    throughput = throughput * (1.0 / pcont);
                }
            }
        }
    }
    radiance
}

/// Tile scheduling policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Schedule {
    /// Static cyclic distribution over ranks (the paper's §V-D choice).
    #[default]
    StaticCyclic,
    /// Global dynamic load balancing through a PGAS work queue: tiles are
    /// claimed with remote atomic fetch-add on a shared counter — the
    /// "distributed work queues" the paper names as future work ("Others
    /// have found PGAS a natural paradigm for implementing such schemes").
    GlobalQueue,
}

/// Renderer configuration.
#[derive(Clone, Debug)]
pub struct RayConfig {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Samples per pixel.
    pub spp: usize,
    /// Square tile edge in pixels.
    pub tile: usize,
    /// Worker threads per rank (the paper's OpenMP threads).
    pub threads_per_rank: usize,
    /// Scene sphere count.
    pub nspheres: usize,
    /// Scene/sampling seed.
    pub seed: u64,
}

/// Result of a distributed render.
#[derive(Clone, Debug)]
pub struct RayResult {
    /// Wall seconds (max over ranks).
    pub seconds: f64,
    /// Sum over all channels of the final image — the determinism check
    /// (identical for every rank count). Valid on every rank.
    pub checksum: f64,
    /// The final image (RGB f64 triples, row-major), only at rank 0.
    pub image: Option<Vec<f64>>,
    /// Tiles rendered by this rank.
    pub my_tiles: usize,
}

fn render_pixel(scene: &Scene, cfg: &RayConfig, px: usize, py: usize) -> Vec3 {
    let w = cfg.width as f64;
    let h = cfg.height as f64;
    let cam_pos = Vec3::new(0.0, 1.8, 3.5);
    let look = Vec3::new(0.0, 0.8, -1.5);
    let fwd = (look - cam_pos).norm();
    let right = fwd.cross(Vec3::new(0.0, 1.0, 0.0)).norm();
    let up = right.cross(fwd);
    let fov = 0.9;
    let mut acc = Vec3::zero();
    for s in 0..cfg.spp {
        // Pixel-indexed stream: identical for any rank/tile decomposition.
        let mut rng = SplitMix64::new(
            cfg.seed
                ^ ((py * cfg.width + px) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (s as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        let jx = rng.next_f64();
        let jy = rng.next_f64();
        let u = ((px as f64 + jx) / w - 0.5) * fov * (w / h);
        let v = (0.5 - (py as f64 + jy) / h) * fov;
        let dir = (fwd + right * u + up * v).norm();
        acc = acc + trace(scene, cam_pos, dir, &mut rng);
    }
    acc * (1.0 / cfg.spp as f64)
}

/// Run the distributed render collectively with the paper's static
/// cyclic tile distribution.
pub fn run(ctx: &Ctx, cfg: &RayConfig) -> RayResult {
    run_scheduled(ctx, cfg, Schedule::StaticCyclic)
}

/// Run the distributed render collectively with an explicit scheduling
/// policy.
fn run_scheduled(ctx: &Ctx, cfg: &RayConfig, schedule: Schedule) -> RayResult {
    let scene = Scene::benchmark(cfg.nspheres, cfg.seed);
    let tiles_x = cfg.width.div_ceil(cfg.tile);
    let tiles_y = cfg.height.div_ceil(cfg.tile);
    let ntiles = tiles_x * tiles_y;
    let me = ctx.rank();
    let n = ctx.ranks();

    // The global work counter for dynamic scheduling lives in rank 0's
    // segment; tiles are claimed with a remote atomic fetch-add.
    let queue: Option<GlobalPtr<u64>> = match schedule {
        Schedule::StaticCyclic => None,
        Schedule::GlobalQueue => {
            let p = if me == 0 {
                let p = allocate::<u64>(ctx, 0, 1).expect("work counter");
                p.rput(ctx, 0);
                ctx.broadcast(0, p)
            } else {
                ctx.broadcast(0, GlobalPtr::from_addr(GlobalAddr::new(0, 0)))
            };
            Some(p)
        }
    };

    ctx.barrier();
    let t = Timer::start();
    let partial = rupcxx_util::sync::Mutex::new(vec![0.0f64; cfg.width * cfg.height * 3]);
    let tiles_done = std::sync::atomic::AtomicUsize::new(0);
    let pool = ThreadPool::new(cfg.threads_per_rank);

    let render_tile = |tile: usize| {
        let tx = (tile % tiles_x) * cfg.tile;
        let ty = (tile / tiles_x) * cfg.tile;
        let x1 = (tx + cfg.tile).min(cfg.width);
        let y1 = (ty + cfg.tile).min(cfg.height);
        let mut buf = Vec::with_capacity((x1 - tx) * (y1 - ty) * 3);
        for py in ty..y1 {
            for px in tx..x1 {
                let c = render_pixel(&scene, cfg, px, py);
                buf.extend_from_slice(&[c.x, c.y, c.z]);
            }
        }
        // Commit the tile under the lock (cheap relative to tracing).
        let mut img = partial.lock();
        let mut it = buf.into_iter();
        for py in ty..y1 {
            for px in tx..x1 {
                let base = (py * cfg.width + px) * 3;
                img[base] = it.next().expect("tile buffer");
                img[base + 1] = it.next().expect("tile buffer");
                img[base + 2] = it.next().expect("tile buffer");
            }
        }
        tiles_done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    };

    match schedule {
        Schedule::StaticCyclic => {
            // Static cyclic distribution over ranks, dynamic over local
            // threads (the paper's §V-D structure).
            let my_tiles: Vec<usize> = (me..ntiles).step_by(n).collect();
            pool.parallel_for(my_tiles.len(), |ti| render_tile(my_tiles[ti]));
        }
        Schedule::GlobalQueue => {
            // Every local worker claims tiles straight off the global
            // PGAS counter until the image is exhausted.
            let counter = queue.expect("allocated above");
            pool.parallel_for(cfg.threads_per_rank.max(1), |_| loop {
                let tile = counter.radd(ctx, 1) as usize;
                if tile >= ntiles {
                    break;
                }
                render_tile(tile);
            });
        }
    }
    let partial = partial.into_inner();
    let my_tiles = tiles_done.into_inner();

    // Final gather: sum-reduction of the partial images at rank 0
    // (the paper's compromise instead of a tile gatherv).
    let gathered = ctx.gatherv(0, rupcxx_net::pod::pack_slice(&partial));
    let image = gathered.map(|parts| {
        let mut sum = vec![0.0f64; cfg.width * cfg.height * 3];
        for part in parts {
            for (dst, v) in sum
                .iter_mut()
                .zip(rupcxx_net::pod::unpack_slice::<f64>(&part))
            {
                *dst += v;
            }
        }
        sum
    });
    let seconds = ctx.allreduce(t.seconds(), f64::max);
    let checksum_root = image.as_ref().map_or(0.0, |img| img.iter().sum());
    let checksum = ctx.broadcast(0, checksum_root);
    ctx.barrier();
    if let Some(p) = queue {
        if me == 0 {
            deallocate(ctx, p);
        }
    }

    RayResult {
        seconds,
        checksum,
        image,
        my_tiles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupcxx_runtime::{spmd, RuntimeConfig};

    fn small_cfg() -> RayConfig {
        RayConfig {
            width: 40,
            height: 30,
            spp: 2,
            tile: 8,
            threads_per_rank: 1,
            nspheres: 6,
            seed: 11,
        }
    }

    fn rt(n: usize) -> RuntimeConfig {
        RuntimeConfig::new(n).segment_mib(2)
    }

    #[test]
    fn image_identical_across_rank_counts() {
        let c1 = spmd(rt(1), |ctx| run(ctx, &small_cfg()))[0].checksum;
        let c3 = spmd(rt(3), |ctx| run(ctx, &small_cfg()))[0].checksum;
        let c4 = spmd(rt(4), |ctx| run(ctx, &small_cfg()))[0].checksum;
        assert_eq!(c1, c3, "decomposition must not change the image");
        assert_eq!(c1, c4);
        assert!(c1 > 0.0, "image is not black");
    }

    #[test]
    fn intra_rank_threads_do_not_change_image() {
        let mut cfg = small_cfg();
        let a = spmd(rt(2), {
            let cfg = cfg.clone();
            move |ctx| run(ctx, &cfg)
        })[0]
            .checksum;
        cfg.threads_per_rank = 3;
        let b = spmd(rt(2), move |ctx| run(ctx, &cfg))[0].checksum;
        assert_eq!(a, b);
    }

    #[test]
    fn tiles_partition_the_image() {
        let out = spmd(rt(3), |ctx| run(ctx, &small_cfg()));
        let total: usize = out.iter().map(|r| r.my_tiles).sum();
        // 40x30 with 8px tiles → 5×4 = 20 tiles.
        assert_eq!(total, 20);
        assert!(out[0].image.is_some());
        assert!(out[1].image.is_none());
    }

    #[test]
    fn global_queue_schedule_matches_static_image() {
        // The paper's future-work load balancer must not change the image
        // (per-pixel seeding) and must render every tile exactly once.
        let stat = spmd(rt(2), |ctx| run(ctx, &small_cfg()));
        let dynq = spmd(rt(2), |ctx| {
            run_scheduled(ctx, &small_cfg(), Schedule::GlobalQueue)
        });
        assert_eq!(stat[0].checksum, dynq[0].checksum);
        let total: usize = dynq.iter().map(|r| r.my_tiles).sum();
        assert_eq!(total, 20, "every tile claimed exactly once");
    }

    #[test]
    fn global_queue_single_rank_multithreaded() {
        let mut cfg = small_cfg();
        cfg.threads_per_rank = 3;
        let out = spmd(rt(1), move |ctx| {
            run_scheduled(ctx, &cfg, Schedule::GlobalQueue)
        });
        assert_eq!(out[0].my_tiles, 20);
        assert!(out[0].checksum > 0.0);
    }

    #[test]
    fn sphere_intersection_basics() {
        let scene = Scene {
            spheres: vec![Sphere {
                center: Vec3::new(0.0, 0.0, -5.0),
                radius: 1.0,
                material: Material {
                    albedo: Vec3::new(1.0, 1.0, 1.0),
                    emission: Vec3::zero(),
                    mirror: 0.0,
                },
            }],
            ground: Material {
                albedo: Vec3::zero(),
                emission: Vec3::zero(),
                mirror: 0.0,
            },
            sky: Vec3::zero(),
        };
        let hit = scene.hit(Vec3::new(0.0, 0.0, 0.0), Vec3::new(0.0, 0.0, -1.0));
        let (t, n, _) = hit.expect("ray hits sphere");
        assert!((t - 4.0).abs() < 1e-9);
        assert!((n.z - 1.0).abs() < 1e-9);
        // Miss.
        assert!(scene
            .hit(Vec3::new(0.0, 3.0, 0.0), Vec3::new(0.0, 0.0, -1.0))
            .is_none());
    }

    #[test]
    fn vec3_algebra() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-1.0, 0.5, 2.0);
        assert_eq!(a.dot(b), -1.0 + 1.0 + 6.0);
        assert_eq!((a + b).x, 0.0);
        assert_eq!((a - b).z, 1.0);
        let c = a.cross(b);
        assert!(c.dot(a).abs() < 1e-12 && c.dot(b).abs() < 1e-12);
        assert!((Vec3::new(3.0, 4.0, 0.0).len() - 5.0).abs() < 1e-12);
        assert!((Vec3::new(0.0, 0.0, 9.0).norm().z - 1.0).abs() < 1e-12);
    }
}
