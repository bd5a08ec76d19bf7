//! The seeded world every workload runs against, and the study shapes.
//!
//! A run repeats its workload, each repetition on its own world drawn
//! from `--seed`, so one run averages over several worlds instead of
//! resting on one. The seed feeds both the scenario generator and the
//! service sampler; seed 0's first world keeps the repository defaults,
//! so it is exactly the world `experiments --quick` studies.

use sift_core::StudyParams;
use sift_simtime::{Hour, HourRange};
use sift_trends::{Scenario, ScenarioParams, ServiceConfig, TrendsService};
use std::sync::Arc;

/// Background-event scale of every workload's world (`experiments --quick`).
pub const SCALE: f64 = 0.25;

/// Worker threads and connections a workload may use: the two cores of
/// the reference host, fewer where fewer are available.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// `(scenario seed, service seed)` of repetition `rep` of a run seeded
/// `seed`. Seed 0's repetition 0 keeps both repository defaults.
fn seeds(seed: u64, rep: usize) -> (u64, u64) {
    let mix =
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (rep as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    (
        ScenarioParams::default().seed ^ mix,
        ServiceConfig::default().seed ^ mix.rotate_left(29),
    )
}

/// Builds the quarter-scale, 51-region, two-year world of repetition
/// `rep` of a run seeded `seed`.
pub fn world(seed: u64, rep: usize) -> Arc<TrendsService> {
    let (scenario_seed, service_seed) = seeds(seed, rep);
    let scenario = Scenario::generate(ScenarioParams {
        seed: scenario_seed,
        background_scale: SCALE,
        ..ScenarioParams::default()
    });
    Arc::new(TrendsService::new(
        scenario,
        ServiceConfig {
            seed: service_seed,
            ..ServiceConfig::default()
        },
    ))
}

/// The `batch` study: every region, the full window, weekly rising only.
pub fn batch_params(threads: usize) -> StudyParams {
    StudyParams {
        threads,
        daily_rising: false,
        ..StudyParams::default()
    }
}

/// The `sharded` study (`exp_cluster --quick`): every region, hours
/// 0–2000, weekly rising only.
pub fn sharded_params() -> StudyParams {
    StudyParams {
        range: HourRange::new(Hour(0), Hour(2_000)),
        threads: nproc(),
        daily_rising: false,
        ..StudyParams::default()
    }
}
