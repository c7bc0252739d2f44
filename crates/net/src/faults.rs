//! Deterministic fault injection for the fabric.
//!
//! A [`FaultPlan`] describes a *seeded, replayable* chaos schedule: for
//! every link (ordered source → destination rank pair) a [`LinkRule`]
//! gives the probability that a frame is dropped, duplicated, reordered
//! or delayed on the wire. The fate of a frame is a **pure function** of
//! `(seed, src, dst, seq, attempt)` — no RNG state, no wall clock — so a
//! chaos run with a given seed injects byte-identical faults every time,
//! and the reliable-delivery layer (`crate::reliable`) performs an
//! identical number of retransmissions. That is what makes a failing
//! chaos seed replayable: re-run with the same `RUPCXX_FAULTS` string and
//! the same frames are lost in the same order.
//!
//! Plans come from [`FaultPlan::from_env`] (`RUPCXX_FAULTS=…`) or are
//! built programmatically for tests. Syntax:
//!
//! ```text
//! RUPCXX_FAULTS=seed=42,drop=0.10,dup=0.02,reorder=0.05,delay=0.01
//! RUPCXX_FAULTS=seed=7,drop=0.05;link=0->1,drop=1.0   # per-link override
//! ```
//!
//! Segments are separated by `;`. The first segment sets the seed, the
//! default link rule and the protocol knobs (`max_attempts=`, `hold=`);
//! each later segment starts with `link=SRC->DST` and overrides the rule
//! for that one directed link (e.g. `drop=1.0` simulates a dead peer,
//! which the runtime surfaces as a `PeerUnreachable` failure).

use crate::Rank;

/// Probability knobs for one directed link, in parts per million.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkRule {
    /// Probability a transmission attempt is lost on the wire.
    pub drop_ppm: u32,
    /// Probability a delivered frame arrives twice.
    pub dup_ppm: u32,
    /// Probability a delivered frame is held back behind later traffic
    /// (a short hold, exercising the receiver's reorder buffer).
    pub reorder_ppm: u32,
    /// Probability a delivered frame is delayed (a longer hold).
    pub delay_ppm: u32,
}

impl LinkRule {
    /// True when every probability is zero (the link is fault-free).
    fn is_clean(&self) -> bool {
        self.drop_ppm == 0 && self.dup_ppm == 0 && self.reorder_ppm == 0 && self.delay_ppm == 0
    }
}

/// Convert a probability in `[0, 1]` to parts per million.
fn to_ppm(p: f64) -> u32 {
    (p.clamp(0.0, 1.0) * 1e6).round() as u32
}

/// A complete, seeded chaos schedule for a job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed mixed into every fate decision.
    pub seed: u64,
    /// Rule applied to every link without an override.
    pub base: LinkRule,
    /// Per-link overrides, keyed by `(src, dst)`.
    pub overrides: Vec<((Rank, Rank), LinkRule)>,
    /// Total transmission attempts per frame before the link is declared
    /// dead and the job fails with `PeerUnreachable` instead of hanging.
    pub max_attempts: u32,
    /// Upper bound on how many progress-engine ticks a reordered or
    /// delayed frame is held in limbo (reorder holds `1..=hold/4`,
    /// delay holds `1..=hold`).
    pub max_hold_ticks: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::new(0)
    }
}

impl FaultPlan {
    /// A plan with clean links — faults are opted into via the builders.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            base: LinkRule::default(),
            overrides: Vec::new(),
            max_attempts: 32,
            max_hold_ticks: 16,
        }
    }

    /// Set the default drop probability (0.0–1.0).
    pub fn drop(mut self, p: f64) -> Self {
        self.base.drop_ppm = to_ppm(p);
        self
    }

    /// Set the default duplication probability.
    pub fn dup(mut self, p: f64) -> Self {
        self.base.dup_ppm = to_ppm(p);
        self
    }

    /// Set the default reorder probability.
    pub fn reorder(mut self, p: f64) -> Self {
        self.base.reorder_ppm = to_ppm(p);
        self
    }

    /// Set the default delay probability.
    pub fn delay(mut self, p: f64) -> Self {
        self.base.delay_ppm = to_ppm(p);
        self
    }

    /// Override the rule for the directed link `src -> dst`.
    pub fn link(mut self, src: Rank, dst: Rank, rule: LinkRule) -> Self {
        self.overrides.retain(|(l, _)| *l != (src, dst));
        self.overrides.push(((src, dst), rule));
        self
    }

    /// Set the per-frame attempt budget.
    pub fn max_attempts(mut self, n: u32) -> Self {
        assert!(n > 0, "max_attempts must be at least 1");
        self.max_attempts = n;
        self
    }

    /// The rule in effect for `src -> dst`.
    fn rule(&self, src: Rank, dst: Rank) -> &LinkRule {
        self.overrides
            .iter()
            .find(|(l, _)| *l == (src, dst))
            .map(|(_, r)| r)
            .unwrap_or(&self.base)
    }

    /// True when no link can experience a fault (the plan is a no-op).
    pub fn is_noop(&self) -> bool {
        self.base.is_clean() && self.overrides.iter().all(|(_, r)| r.is_clean())
    }

    /// Parse the `RUPCXX_FAULTS` environment variable. Unset, empty or
    /// `off` mean no fault injection; a malformed value aborts with a
    /// clear message (chaos must be opted into explicitly — a typo must
    /// never silently turn a chaos run into a clean one).
    pub fn from_env() -> Option<FaultPlan> {
        rupcxx_util::env::parse_env(
            "RUPCXX_FAULTS",
            "seed=N[,drop=P][,dup=P][,reorder=P][,delay=P][;link=SRC->DST,...]",
            Self::parse,
        )
    }

    /// Parse a plan string (the `RUPCXX_FAULTS` syntax). `Ok(None)` means
    /// explicitly disabled.
    pub fn parse(s: &str) -> Result<Option<FaultPlan>, String> {
        let s = s.trim();
        if s.is_empty() || s == "off" || s == "0" || s == "none" {
            return Ok(None);
        }
        let mut plan = FaultPlan::new(0);
        for (i, segment) in s.split(';').enumerate() {
            // Every segment starts from the base rule: overrides *replace*
            // a link's probabilities, they don't compose with later edits
            // to the base.
            let mut rule = plan.base;
            let mut link: Option<(Rank, Rank)> = None;
            for kv in segment.split(',') {
                let kv = kv.trim();
                if kv.is_empty() {
                    continue;
                }
                let (key, val) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("expected key=value, got {kv:?}"))?;
                let (key, val) = (key.trim(), val.trim());
                let prob = |v: &str| -> Result<u32, String> {
                    let p: f64 = v
                        .parse()
                        .map_err(|_| format!("bad probability {v:?} for {key}"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("{key}={v} outside [0, 1]"));
                    }
                    Ok(to_ppm(p))
                };
                match key {
                    "seed" => {
                        plan.seed = val.parse().map_err(|_| format!("bad seed {val:?}"))?;
                    }
                    "drop" => rule.drop_ppm = prob(val)?,
                    "dup" => rule.dup_ppm = prob(val)?,
                    "reorder" => rule.reorder_ppm = prob(val)?,
                    "delay" => rule.delay_ppm = prob(val)?,
                    "max_attempts" => {
                        plan.max_attempts = val
                            .parse()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| format!("bad max_attempts {val:?}"))?;
                    }
                    "hold" => {
                        plan.max_hold_ticks = val
                            .parse()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| format!("bad hold {val:?}"))?;
                    }
                    "link" => {
                        let (a, b) = val
                            .split_once("->")
                            .ok_or_else(|| format!("bad link {val:?}, expected SRC->DST"))?;
                        let src = a.trim().parse().map_err(|_| format!("bad rank {a:?}"))?;
                        let dst = b.trim().parse().map_err(|_| format!("bad rank {b:?}"))?;
                        link = Some((src, dst));
                    }
                    other => return Err(format!("unknown key {other:?}")),
                }
            }
            match link {
                None if i == 0 => plan.base = rule,
                None => return Err("link segments must start with link=SRC->DST".to_string()),
                Some((src, dst)) => plan = plan.link(src, dst, rule),
            }
        }
        if plan.is_noop() {
            return Ok(None);
        }
        Ok(Some(plan))
    }
}

/// What the wire does with one transmission attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    /// The frame is lost; the reliable layer will retransmit it.
    Drop,
    /// The frame arrives. `hold_ticks > 0` parks it in the receiver's
    /// limbo for that many progress ticks (reorder/delay); `duplicate`
    /// makes a second copy arrive, to be discarded by the dedup window.
    Deliver {
        /// A second copy of the frame also arrives.
        duplicate: bool,
        /// Progress-engine ticks the frame is held before delivery.
        hold_ticks: u32,
    },
}

/// Decision salts — distinct streams per question asked about a frame.
const SALT_DROP: u64 = 0xD0;
const SALT_DUP: u64 = 0xD1;
const SALT_HOLD: u64 = 0xD2;
const SALT_HOLD_LEN: u64 = 0xD3;

/// Stateless mixer: a SplitMix64-style finalizer folded over the
/// identifying words of a decision. Pure, so every fate is replayable.
fn mix(seed: u64, src: u64, dst: u64, seq: u64, attempt: u64, salt: u64) -> u64 {
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15;
    for w in [src, dst, seq, attempt, salt] {
        z = z.wrapping_add(w).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
    }
    z
}

/// Draw in `[0, 1_000_000)` for one decision.
fn draw(plan: &FaultPlan, src: Rank, dst: Rank, seq: u64, attempt: u32, salt: u64) -> u64 {
    mix(plan.seed, src as u64, dst as u64, seq, attempt as u64, salt) % 1_000_000
}

/// Decide the fate of transmission `attempt` of frame `seq` on link
/// `src -> dst`. Pure: the same inputs always yield the same fate, which
/// is what makes retransmit/dup/drop counts reproducible across runs.
pub fn decide(plan: &FaultPlan, src: Rank, dst: Rank, seq: u64, attempt: u32) -> Fate {
    let rule = plan.rule(src, dst);
    if rule.is_clean() {
        return Fate::Deliver {
            duplicate: false,
            hold_ticks: 0,
        };
    }
    if draw(plan, src, dst, seq, attempt, SALT_DROP) < rule.drop_ppm as u64 {
        return Fate::Drop;
    }
    let duplicate = draw(plan, src, dst, seq, attempt, SALT_DUP) < rule.dup_ppm as u64;
    let hold_draw = draw(plan, src, dst, seq, attempt, SALT_HOLD);
    let hold_ticks = if hold_draw < rule.reorder_ppm as u64 {
        // Short hold: just enough to slip behind later traffic.
        1 + (draw(plan, src, dst, seq, attempt, SALT_HOLD_LEN)
            % (plan.max_hold_ticks as u64 / 4).max(1)) as u32
    } else if hold_draw < (rule.reorder_ppm + rule.delay_ppm) as u64 {
        1 + (draw(plan, src, dst, seq, attempt, SALT_HOLD_LEN) % plan.max_hold_ticks as u64) as u32
    } else {
        0
    };
    Fate::Deliver {
        duplicate,
        hold_ticks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fates_are_deterministic() {
        let plan = FaultPlan::new(42).drop(0.3).dup(0.1).reorder(0.2);
        for seq in 0..200 {
            for attempt in 0..4 {
                assert_eq!(
                    decide(&plan, 0, 1, seq, attempt),
                    decide(&plan, 0, 1, seq, attempt),
                );
            }
        }
    }

    #[test]
    fn distinct_links_and_seeds_get_distinct_streams() {
        let a = FaultPlan::new(1).drop(0.5);
        let b = FaultPlan::new(2).drop(0.5);
        let fates_a: Vec<_> = (0..64).map(|s| decide(&a, 0, 1, s, 0)).collect();
        let fates_b: Vec<_> = (0..64).map(|s| decide(&b, 0, 1, s, 0)).collect();
        let fates_rev: Vec<_> = (0..64).map(|s| decide(&a, 1, 0, s, 0)).collect();
        assert_ne!(fates_a, fates_b, "seed must change the stream");
        assert_ne!(fates_a, fates_rev, "link direction must change the stream");
    }

    #[test]
    fn drop_rate_roughly_matches_probability() {
        let plan = FaultPlan::new(7).drop(0.25);
        let drops = (0..10_000)
            .filter(|&s| decide(&plan, 0, 1, s, 0) == Fate::Drop)
            .count();
        assert!((2000..3000).contains(&drops), "drops={drops}");
    }

    #[test]
    fn clean_rule_always_delivers() {
        let plan = FaultPlan::new(3).link(0, 1, LinkRule::default()).drop(1.0);
        // Link 0->1 is overridden clean; 1->0 inherits drop=1.0.
        for s in 0..50 {
            assert_eq!(
                decide(&plan, 0, 1, s, 0),
                Fate::Deliver {
                    duplicate: false,
                    hold_ticks: 0
                }
            );
            assert_eq!(decide(&plan, 1, 0, s, 0), Fate::Drop);
        }
    }

    #[test]
    fn attempts_redraw_the_fate() {
        // With drop=0.5, some frame must fail attempt 0 and pass attempt 1.
        let plan = FaultPlan::new(11).drop(0.5);
        let recovered = (0..200).any(|s| {
            decide(&plan, 0, 1, s, 0) == Fate::Drop && decide(&plan, 0, 1, s, 1) != Fate::Drop
        });
        assert!(recovered);
    }

    #[test]
    fn hold_ticks_bounded() {
        let mut plan = FaultPlan::new(5).delay(1.0);
        plan.max_hold_ticks = 8;
        for s in 0..500 {
            match decide(&plan, 0, 1, s, 0) {
                Fate::Deliver { hold_ticks, .. } => {
                    assert!((1..=8).contains(&hold_ticks), "hold={hold_ticks}")
                }
                Fate::Drop => panic!("drop with drop_ppm=0"),
            }
        }
    }

    #[test]
    fn parse_full_syntax() {
        let plan = FaultPlan::parse(
            "seed=42,drop=0.10,dup=0.02,reorder=0.05,delay=0.01,max_attempts=16,hold=32;\
             link=0->1,drop=1.0",
        )
        .unwrap()
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.base.drop_ppm, 100_000);
        assert_eq!(plan.base.dup_ppm, 20_000);
        assert_eq!(plan.base.reorder_ppm, 50_000);
        assert_eq!(plan.base.delay_ppm, 10_000);
        assert_eq!(plan.max_attempts, 16);
        assert_eq!(plan.max_hold_ticks, 32);
        assert_eq!(plan.rule(0, 1).drop_ppm, 1_000_000);
        // The override replaces the whole rule for that link.
        assert_eq!(plan.rule(0, 1).dup_ppm, plan.base.dup_ppm);
        assert_eq!(plan.rule(1, 0).drop_ppm, 100_000);
    }

    #[test]
    fn parse_disabled_and_noop_forms() {
        assert_eq!(FaultPlan::parse("").unwrap(), None);
        assert_eq!(FaultPlan::parse("off").unwrap(), None);
        assert_eq!(FaultPlan::parse("seed=9").unwrap(), None, "no-op plan");
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(FaultPlan::parse("drop").is_err());
        assert!(FaultPlan::parse("drop=2.0").is_err());
        assert!(FaultPlan::parse("drop=x").is_err());
        assert!(FaultPlan::parse("frob=1").is_err());
        assert!(
            FaultPlan::parse("drop=0.1;dup=0.5").is_err(),
            "missing link="
        );
        assert!(FaultPlan::parse("drop=0.1;link=0-1,dup=0.5").is_err());
        assert!(FaultPlan::parse("max_attempts=0").is_err());
    }

    #[test]
    fn link_override_replaces_previous() {
        let plan = FaultPlan::new(1)
            .link(
                0,
                1,
                LinkRule {
                    drop_ppm: 5,
                    ..Default::default()
                },
            )
            .link(
                0,
                1,
                LinkRule {
                    drop_ppm: 9,
                    ..Default::default()
                },
            );
        assert_eq!(plan.overrides.len(), 1);
        assert_eq!(plan.rule(0, 1).drop_ppm, 9);
    }
}
