//! Exploration over the planted-bug corpus: every PR-4 pattern (and the
//! schedule-dependent showcase) must be found by `rupcxx_explore::explore`
//! starting from the bug-agnostic canonical schedule, and each found
//! bug's minimized schedule must replay the same verdict.
//!
//! The `smoke_` tests are the `make explore-smoke` CI subset: a bounded
//! exhaustive run over two corpus bugs plus a clean benchmark.

use rupcxx_apps::{gups, sample_sort, stencil};
use rupcxx_explore::corpus::{self, config_for, find};
use rupcxx_explore::{explore, run_schedule, ExploreConfig, Program};
use rupcxx_net::Schedule;

/// Explore one corpus entry and check the contract: the expected finding
/// kind is surfaced, and the minimized schedule reproduces it.
fn assert_entry_found(name: &str) {
    let e = find(name);
    let cfg = config_for(e);
    let ex = explore(&cfg, &e.make);
    let bug = ex.bug_with(e.expect).unwrap_or_else(|| {
        // Exploration starts from the canonical order; show one, the
        // pairs it offers to swap are what the search had to work with.
        let canonical = run_schedule(&cfg, Schedule::canonical(), &e.make).record;
        panic!(
            "{name}: exploration ({} schedules) never surfaced {:?}; found {:?}; \
             a canonical run delivers {:#?}",
            ex.explored,
            e.expect,
            ex.bugs
                .iter()
                .map(|b| b.verdict.clone())
                .collect::<Vec<_>>(),
            canonical
        )
    });
    if e.schedule_dependent {
        assert!(
            !bug.minimized.is_empty(),
            "{name}: a schedule-dependent bug cannot minimize to the \
             canonical order"
        );
    } else {
        assert_eq!(
            bug.minimized,
            vec![],
            "{name}: the PR-4 corpus manifests on the canonical order, so \
             the minimal schedule is empty"
        );
    }
    // The minimized schedule replays to (at least) the same verdict.
    let replay = run_schedule(&cfg, bug.minimized_schedule(), &e.make);
    assert!(
        replay.verdict.contains(&e.expect),
        "{name}: minimized schedule {:?} lost the bug on replay: {:?}",
        bug.minimized,
        replay.verdict
    );
}

// Two corpus bugs in the smoke subset: one race, one deadlock-pass bug.
#[test]
fn smoke_explore_finds_race_put_vs_read() {
    assert_entry_found("race_put_vs_read");
}

#[test]
fn smoke_explore_finds_event_never_signaled() {
    assert_entry_found("event_never_signaled");
}

#[test]
fn explore_finds_race_write_write() {
    assert_entry_found("race_write_write");
}

#[test]
fn explore_finds_race_agg_put() {
    assert_entry_found("race_agg_put");
}

#[test]
fn explore_finds_lock_across_barrier() {
    assert_entry_found("lock_across_barrier");
}

#[test]
fn explore_finds_deadlock_abba() {
    assert_entry_found("deadlock_abba");
}

#[test]
fn explore_finds_deadlock_self_reacquire() {
    assert_entry_found("deadlock_self_reacquire");
}

#[test]
fn explore_finds_barrier_mismatch() {
    assert_entry_found("barrier_mismatch");
}

#[test]
fn explore_finds_order_sensitive_event() {
    assert_entry_found("order_sensitive_event");
}

/// The showcase bug is invisible to a single canonical run — only
/// exploration's reordering exposes it. (This is what separates the
/// model checker from plain checked execution.)
#[test]
fn order_sensitive_event_is_clean_on_canonical() {
    let e = find("order_sensitive_event");
    let out = run_schedule(&config_for(e), Schedule::canonical(), &e.make);
    assert!(
        out.verdict.is_empty(),
        "the canonical order must be clean, got {:?}",
        out.verdict
    );
    assert_eq!(out.results, Some(vec![1, 0, 0]));
}

// ---- the clean suite under exploration ----------------------------------
//
// Correctly synchronized benchmarks must stay finding-free on *every*
// explored schedule within the bound, not just the canonical one. The
// programs are large, so `max_schedules` keeps each test bounded; the
// point is that reordering concurrent deliveries never manufactures a
// finding.

fn assert_clean_everywhere(what: &str, cfg: &ExploreConfig, make: &dyn Fn() -> Program) {
    let ex = explore(cfg, make);
    assert!(
        ex.bugs.is_empty(),
        "{what}: exploration ({} schedules) reported findings: {:?}",
        ex.explored,
        ex.bugs
            .iter()
            .map(|b| b.verdict.clone())
            .collect::<Vec<_>>()
    );
    assert!(ex.explored >= 1);
}

fn gups_program() -> Program {
    Box::new(|ctx| {
        let out = gups::run(
            ctx,
            &gups::GupsConfig {
                table_size: 1 << 8,
                updates_per_rank: 200,
                variant: gups::Variant::Upcxx,
                verify: true,
            },
        );
        assert!(out.verified);
        out.updates as u64
    })
}

#[test]
fn smoke_clean_gups_under_exploration() {
    let mut cfg = ExploreConfig::new(2).max_schedules(4);
    cfg.segment_bytes = 1 << 20;
    assert_clean_everywhere("gups plain", &cfg, &gups_program);
}

#[test]
fn clean_gups_aggregated_under_exploration() {
    let mut cfg = ExploreConfig::new(2).max_schedules(4);
    cfg.segment_bytes = 1 << 20;
    cfg.agg = true;
    assert_clean_everywhere("gups aggregated", &cfg, &|| {
        Box::new(|ctx| {
            let out = gups::run(
                ctx,
                &gups::GupsConfig {
                    table_size: 1 << 8,
                    updates_per_rank: 200,
                    variant: gups::Variant::UpcxxAgg,
                    verify: true,
                },
            );
            assert!(out.verified);
            out.updates as u64
        })
    });
}

#[test]
fn clean_stencil_under_exploration() {
    let reference = stencil::serial_reference((8, 8, 4), 2, 0.1);
    let mut cfg = ExploreConfig::new(4).max_schedules(4);
    cfg.segment_bytes = 1 << 20;
    assert_clean_everywhere("stencil", &cfg, &move || {
        Box::new(move |ctx| {
            let out = stencil::run(
                ctx,
                &stencil::StencilConfig {
                    local_edge: 4,
                    grid: (2, 2, 1),
                    iters: 2,
                    variant: stencil::Variant::Optimized,
                    c: 0.1,
                },
            );
            assert!((out.checksum - reference).abs() < 1e-9);
            out.checksum.to_bits()
        })
    });
}

#[test]
fn clean_sample_sort_under_exploration() {
    let mut cfg = ExploreConfig::new(2).max_schedules(4);
    cfg.segment_bytes = 1 << 20;
    cfg.agg = true;
    assert_clean_everywhere("sample sort", &cfg, &|| {
        Box::new(|ctx| {
            let out = sample_sort::run(
                ctx,
                &sample_sort::SortConfig {
                    keys_per_rank: 500,
                    oversample: 16,
                    variant: sample_sort::Variant::UpcxxAgg,
                    seed: 7,
                },
            );
            assert!(out.verified);
            out.my_keys as u64
        })
    });
}

// ---- regression-schedule regeneration -----------------------------------

/// Regenerate the committed `tests/schedules/*.sched` files from a fresh
/// exploration of every corpus entry. Ignored in normal runs (the
/// committed files are the regression artifact `explore_replay.rs`
/// verifies); run explicitly after corpus changes:
/// `cargo test --test explore_corpus regen_schedules -- --ignored`
#[test]
#[ignore = "writes tests/schedules/*.sched; run manually after corpus changes"]
fn regen_schedules() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/schedules");
    std::fs::create_dir_all(dir).unwrap();
    for e in corpus::ENTRIES {
        let cfg = config_for(e);
        let ex = explore(&cfg, &e.make);
        let bug = ex
            .bug_with(e.expect)
            .unwrap_or_else(|| panic!("{}: bug not found", e.name));
        let text = bug.minimized_schedule().to_text();
        let path = format!("{dir}/{}.sched", e.name);
        std::fs::write(&path, &text).unwrap();
        println!(
            "{}: explored {} schedules, minimized {} -> {} picks, wrote {path}",
            e.name,
            ex.explored,
            bug.picks.len(),
            bug.minimized.len()
        );
    }
}
