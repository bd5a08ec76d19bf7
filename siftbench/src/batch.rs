//! `batch`: the paper's study path, in-process `run_study`.
//!
//! Untraced, the study runs at `threads = nproc`, on a new world per
//! repetition, until the run's time is up. Traced, the same study is
//! driven layer by layer through the public entry points —
//! `plan_frames`, `run_region_study` per region, `assemble_study` —
//! serially, with the simulator behind a [`TimedClient`]; the context
//! and area phases are then replayed on the same outcomes
//! (`heavy_hitters`, `annotate`, `cluster_spikes`) and the replay must
//! equal what `assemble_study` produced.

use crate::oracle;
use crate::probe::{self, median, Phase};
use crate::timed::{Tally, TimedClient};
use crate::world;
use crate::{Args, Outcome};
use sift_core::context::{annotate, heavy_hitters, AnnotatedSpike};
use sift_core::{
    assemble_study, cluster_spikes, plan_frames, run_region_study, run_study, RegionOutcome, Spike,
    StudyParams, StudyResult,
};
use sift_trends::{RisingTerm, TrendsClient, TrendsService};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Measures the untraced or the traced study, as `--trace` asks.
pub fn measure(args: &Args, pinned: Option<&str>, out: &mut Outcome) -> Result<(), String> {
    if args.trace {
        traced(args, pinned, out)
    } else {
        untraced(args, pinned, out)
    }
}

/// Checks the pinned digest, which covers seed 0's first world.
fn check_pinned(result: &StudyResult, pinned: Option<&str>) -> Result<(), String> {
    let digest = oracle::digest_hex(result);
    match pinned {
        Some(want) if digest != want => Err(format!("digest {digest}, pinned {want}")),
        _ => Ok(()),
    }
}

/// One untraced repetition: a fresh world, then the study on it.
struct Rep {
    setup_s: f64,
    study: Phase,
    frames: u64,
}

/// Studies a new world per repetition until `--seconds` are spent.
fn untraced(args: &Args, pinned: Option<&str>, out: &mut Outcome) -> Result<(), String> {
    let params = world::batch_params(world::nproc());
    let (reps, peak_rss_mb) = probe::repeat(args.seconds, |i| {
        let (service, setup) = probe::timed(|| world::world(args.seed, i));
        let (result, study) = probe::timed(|| run_study(service.as_ref(), &params));
        let result = result.map_err(|e| {
            // The client call that failed ended the study.
            out.attempted += 1;
            out.failed += 1;
            format!("study failed: {e}")
        })?;
        out.attempted += result.stats.frames_requested + result.stats.rising_requested;
        oracle::consistent(&result, &params)
            .map_err(|e| format!("batch result inconsistent: {e}"))?;
        if i == 0 {
            check_pinned(&result, pinned)?;
        }
        eprintln!(
            "# batch {i}: {} spikes, {} clusters, {} frames, {:.3}s, digest {}",
            result.spikes.len(),
            result.clusters.len(),
            result.stats.frames_requested,
            study.wall_s,
            oracle::digest_hex(&result)
        );
        Ok(Rep {
            setup_s: setup.wall_s,
            study,
            frames: result.stats.frames_requested,
        })
    })?;
    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    out.metric("setup_s", med(&|r| r.setup_s));
    out.metric("study_s", med(&|r| r.study.wall_s));
    out.metric("frames_per_s", med(&|r| r.frames as f64 / r.study.wall_s));
    out.metric("cpu_s", med(&|r| r.study.cpu_s));
    out.metric("peak_rss_mb", peak_rss_mb);
    Ok(())
}

/// The layer numbers of one traced serial pass.
struct Pass {
    result: StudyResult,
    wall_s: f64,
    region_s: f64,
    trends: Tally,
    assemble_s: f64,
    rounds: u64,
    converged: u64,
    replay: Replay,
}

/// The context and area phases replayed outside `assemble_study`.
struct Replay {
    /// [`oracle::digest`] of the replayed spikes, heavy hitters and
    /// clusters.
    digest: u64,
    heavy_hitters_s: f64,
    annotate_s: f64,
    annotate_calls: u64,
    cluster_s: f64,
    phrases_embedded: u64,
    distinct_phrases: u64,
}

/// Alternates untraced and traced serial studies of the run's first
/// world until `--seconds` are spent, checking every traced pass.
fn traced(args: &Args, pinned: Option<&str>, out: &mut Outcome) -> Result<(), String> {
    let service = world::world(args.seed, 0);
    // The parallel study every serial pass must reproduce.
    let reference = run_study(service.as_ref(), &world::batch_params(world::nproc()))
        .map_err(|e| format!("study failed: {e}"))?;
    check_pinned(&reference, pinned)?;
    let params = world::batch_params(1);
    let mut untraced_s = Vec::new();
    let (passes, _) = probe::repeat(args.seconds, |_| {
        let (plain, phase) = probe::timed(|| run_study(service.as_ref(), &params));
        plain.map_err(|e| format!("serial study failed: {e}"))?;
        untraced_s.push(phase.wall_s);
        let pass = traced_pass(&service, &params)?;
        check_pass(&pass, &reference)?;
        Ok(pass)
    })?;

    let med = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let wall = med(&|p| p.wall_s);
    let assemble = med(&|p| p.assemble_s);
    // Counts are the same on every pass of one world.
    let pass = &passes[0];
    out.attempted += pass.trends.calls();
    out.failed += pass.trends.errors;
    out.metric("trends.frame_calls", pass.trends.frame_calls as f64);
    out.metric("trends.frame_busy_s", med(&|p| p.trends.frame_busy_s));
    out.metric("trends.rising_calls", pass.trends.rising_calls as f64);
    out.metric("trends.rising_busy_s", med(&|p| p.trends.rising_busy_s));
    out.metric(
        "core.region_self_s",
        med(&|p| p.region_s - p.trends.busy_s()),
    );
    out.metric("core.refetch_rounds", pass.rounds as f64);
    out.metric("core.converged_regions", pass.converged as f64);
    out.metric("core.assemble_s", assemble);
    out.metric("core.serial_share", assemble / wall);
    out.metric(
        "core.context.heavy_hitters_s",
        med(&|p| p.replay.heavy_hitters_s),
    );
    out.metric("core.context.annotate_s", med(&|p| p.replay.annotate_s));
    out.metric(
        "core.context.annotate_calls",
        pass.replay.annotate_calls as f64,
    );
    out.metric("core.area.cluster_s", med(&|p| p.replay.cluster_s));
    let replay = &pass.replay;
    out.metric("nlp.phrases_embedded", replay.phrases_embedded as f64);
    out.metric("nlp.distinct_terms", replay.distinct_phrases as f64);
    out.metric(
        "nlp.reuse_ratio",
        1.0 - replay.distinct_phrases as f64 / replay.phrases_embedded.max(1) as f64,
    );
    out.metric("trace_overhead_frac", wall / median(&untraced_s) - 1.0);
    eprintln!(
        "# batch traced: {} passes, wall {wall:.3}s, trends {:.3}s, assemble {assemble:.3}s",
        passes.len(),
        pass.trends.busy_s()
    );
    Ok(())
}

/// The oracles of a traced pass: it equals the parallel study, its
/// replayed phases equal `assemble_study`'s output, and its layers
/// account for its wall time.
fn check_pass(pass: &Pass, reference: &StudyResult) -> Result<(), String> {
    oracle::same_study(&pass.result, reference)
        .map_err(|e| format!("serial traced study differs from the parallel one: {e}"))?;
    let r = &pass.result;
    if pass.replay.digest != oracle::digest(r) {
        return Err("replayed context/area phases differ from assemble_study".into());
    }
    // Every client call the study counted went through the timer, inside
    // a region; simulator time + SIFT's own region time + the serial
    // global phase must then cover the traced wall time, leaving only
    // frame planning and loop overhead.
    let calls = r.stats.frames_requested + r.stats.rising_requested;
    if pass.trends.calls() != calls {
        return Err(format!(
            "timer saw {} calls, the study {calls}",
            pass.trends.calls()
        ));
    }
    let region_self = pass.region_s - pass.trends.busy_s();
    let accounted = pass.trends.busy_s() + region_self + pass.assemble_s;
    let gap = (pass.wall_s - accounted) / pass.wall_s;
    if region_self < 0.0 || !(0.0..0.01).contains(&gap) {
        return Err(format!(
            "layers account for {accounted:.3}s of {:.3}s traced wall time",
            pass.wall_s
        ));
    }
    Ok(())
}

/// One serial pass through the study's public layers.
fn traced_pass(service: &Arc<TrendsService>, params: &StudyParams) -> Result<Pass, String> {
    let timed = TimedClient::new(Arc::clone(service) as Arc<dyn TrendsClient>);
    let t0 = Instant::now();
    let plan = plan_frames(params.range, params.plan);
    let mut outcomes: Vec<RegionOutcome> = Vec::with_capacity(params.regions.len());
    let mut region_s = 0.0;
    for &state in &params.regions {
        let r0 = Instant::now();
        let outcome = run_region_study(&timed, params, &plan.frames, state, None)
            .map_err(|e| format!("region study failed: {e}"))?;
        region_s += r0.elapsed().as_secs_f64();
        outcomes.push(outcome);
    }
    let regions_wall = t0.elapsed().as_secs_f64();
    let trends = timed.tally();

    // The replay's input, in `assemble_study`'s region order, copied
    // outside the timed path.
    outcomes.sort_by_key(|o| o.state.index());
    let suggested: Vec<Suggested> = outcomes.iter().map(|o| o.spikes.clone()).collect();
    let rounds = outcomes.iter().map(|o| u64::from(o.rounds)).sum();
    let converged = outcomes.iter().filter(|o| o.converged).count() as u64;

    let a0 = Instant::now();
    let result = assemble_study(params, outcomes, false);
    let assemble_s = a0.elapsed().as_secs_f64();

    let replay = replay(params, &suggested);
    Ok(Pass {
        result,
        wall_s: regions_wall + assemble_s,
        region_s,
        trends,
        assemble_s,
        rounds,
        converged,
        replay,
    })
}

/// One region's spikes with the rising suggestions gathered for each.
type Suggested = Vec<(Spike, Vec<RisingTerm>)>;

/// Replays `assemble_study`'s context and area phases, timing each.
fn replay(params: &StudyParams, regions: &[Suggested]) -> Replay {
    let spikes = || regions.iter().flatten();

    let h0 = Instant::now();
    let sets = spikes().map(|(_, sugg)| sugg.iter().map(|t| t.term.clone()).collect::<Vec<_>>());
    let (heavy, distinct) = heavy_hitters(sets, params.context.heavy_hitter_mass);
    let heavy_hitters_s = h0.elapsed().as_secs_f64();

    let a0 = Instant::now();
    let mut annotated: Vec<AnnotatedSpike> = spikes()
        .map(|(spike, sugg)| annotate(*spike, sugg, &heavy, &params.context))
        .collect();
    let annotate_s = a0.elapsed().as_secs_f64();
    annotated.sort_by_key(|a| (a.spike.start, a.spike.state.index()));

    let c0 = Instant::now();
    let bare: Vec<Spike> = annotated.iter().map(|a| a.spike).collect();
    let clusters = cluster_spikes(&bare, params.cluster_slack_h);
    let cluster_s = c0.elapsed().as_secs_f64();

    // `annotate` merges a spike's duplicate phrasings, then embeds each
    // distinct phrase once per call.
    let mut all: HashSet<&str> = HashSet::new();
    let mut phrases_embedded = 0u64;
    for (_, sugg) in spikes() {
        let per_spike: HashSet<&str> = sugg.iter().map(|t| t.term.as_str()).collect();
        phrases_embedded += per_spike.len() as u64;
        all.extend(per_spike);
    }
    Replay {
        annotate_calls: annotated.len() as u64,
        digest: oracle::digest_parts(&annotated, &heavy, distinct, &clusters),
        heavy_hitters_s,
        annotate_s,
        cluster_s,
        phrases_embedded,
        distinct_phrases: all.len() as u64,
    }
}
