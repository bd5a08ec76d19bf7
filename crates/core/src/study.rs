//! The end-to-end study driver.
//!
//! [`run_study`] performs the full SIFT workflow of Fig. 2 for a set of
//! regions: plan frames → collect with re-fetch averaging → detect spikes
//! → gather rising suggestions (weekly crawl + daily drill-downs on spike
//! days) → heavy hitters → annotate → cluster across states.

use crate::area::{cluster_spikes, OutageCluster};
use crate::context::{AnnotatedSpike, ContextParams, TermTable};
use crate::detect::DetectParams;
use crate::durable::{RegionJournal, StudyDurability};
use crate::plan::{plan_frames, PlanParams};
use crate::refetch::{averaged_timeline, averaged_timeline_durable, RefetchError, RefetchParams};
use crate::timeline::Timeline;
use serde::{Deserialize, Serialize};
use sift_geo::State;
use sift_simtime::{HourRange, STUDY_RANGE};
use sift_trends::api::RisingTerm;
use sift_trends::client::{FetchError, TrendsClient};
use sift_trends::{RisingRequest, SearchTerm};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The four pipeline stages a study's critical path is bucketed into, in
/// pipeline order, each with the span names whose self-time it absorbs:
/// stitch → re-fetch averaging (collection inclusive of HTTP attempts) →
/// prominence walk → annotation (rising gathering, heavy hitters,
/// clustering). The bench binaries and `scripts/check.sh`'s regression
/// gate report per-stage seconds under these names.
pub const PIPELINE_STAGES: &[(&str, &[&str])] = &[
    ("stitch", &["stitch"]),
    (
        "refetch",
        &["fetch", "frame", "request", "serve", "region", "plan"],
    ),
    ("detect", &["detect"]),
    ("annotate", &["annotate", "context", "cluster", "rising"]),
];

/// Parameters of one study.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StudyParams {
    /// The time range to analyse.
    pub range: HourRange,
    /// Regions to analyse.
    pub regions: Vec<State>,
    /// The tracked search term (the paper: the `<Internet outage>` topic).
    pub term: SearchTerm,
    /// Frame planning.
    pub plan: PlanParams,
    /// Re-fetch averaging.
    pub refetch: RefetchParams,
    /// Spike detection.
    pub detect: DetectParams,
    /// Context analysis.
    pub context: ContextParams,
    /// Slack when matching concurrent spikes across regions, in hours.
    pub cluster_slack_h: i64,
    /// Fetch daily rising drill-downs on spike days (the paper does; turn
    /// off to halve request volume in quick runs).
    pub daily_rising: bool,
    /// Cap on daily drill-downs per spike (long spikes span many days).
    pub max_daily_per_spike: usize,
    /// Weight multiplier applied to daily drill-down suggestions when
    /// merging with the weekly crawl's: the daily frames are "more
    /// targeted and fine-grained" (§3.1), so they should dominate the
    /// annotation ranking for their spike.
    pub daily_weight_boost: f64,
    /// Worker threads across regions.
    pub threads: usize,
}

impl Default for StudyParams {
    fn default() -> Self {
        StudyParams {
            range: STUDY_RANGE,
            regions: State::ALL.to_vec(),
            term: SearchTerm::parse("topic:Internet outage"),
            plan: PlanParams::default(),
            refetch: RefetchParams::default(),
            detect: DetectParams::default(),
            context: ContextParams::default(),
            cluster_slack_h: 1,
            daily_rising: true,
            max_daily_per_spike: 3,
            daily_weight_boost: 3.0,
            threads: 8,
        }
    }
}

/// Request accounting and convergence summary.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct StudyStats {
    /// Time frames requested (the paper reports 160 238 over its study).
    pub frames_requested: u64,
    /// Rising-suggestion requests.
    pub rising_requested: u64,
    /// Re-fetch rounds used per region.
    pub rounds_by_state: Vec<(State, u32)>,
    /// Regions whose spike set converged before the round cap.
    pub converged_regions: usize,
    /// Fresh-fetch share of frame slots per region (1.0 = no frame was
    /// degraded to a previous round's sample).
    #[serde(default)]
    pub coverage_by_state: Vec<(State, f64)>,
    /// Frame slots filled from a previous round after a fetch failure,
    /// across all regions.
    #[serde(default)]
    pub frames_degraded: u64,
    /// Regions whose re-fetch loop halted early because the client's
    /// circuit breaker opened (see `RefetchOutcome::halted`).
    #[serde(default)]
    pub halted_regions: usize,
    /// Per region, the re-fetch round the loop resumed at — nonzero only
    /// when a durable study picked up work a previous (crashed) run had
    /// already sealed. All zeros on a fresh or non-durable run.
    #[serde(default)]
    pub resumed_from_round: Vec<(State, u32)>,
    /// Of `frames_requested`, slots served from a recovered journal
    /// instead of the network, across all regions (durable resumes only).
    #[serde(default)]
    pub frames_replayed: u64,
    /// Per-stage span timings recorded while this study ran.
    pub telemetry: sift_obs::TelemetrySnapshot,
}

/// Everything a study produces.
#[derive(Clone, Debug)]
pub struct StudyResult {
    /// Annotated spikes over all regions, sorted by (start, region).
    pub spikes: Vec<AnnotatedSpike>,
    /// The calibrated timeline per region.
    pub timelines: Vec<(State, Timeline)>,
    /// Cross-region outage clusters.
    pub clusters: Vec<OutageCluster>,
    /// The global heavy-hitter terms with their frequencies.
    pub heavy_hitters: Vec<(String, u64)>,
    /// Distinct suggested terms observed across all spikes, counted in
    /// normalised form (see [`crate::context::heavy_hitters`]).
    pub distinct_terms: usize,
    /// Request accounting.
    pub stats: StudyStats,
}

impl StudyResult {
    /// The bare spikes (without annotations), in the same order.
    pub fn bare_spikes(&self) -> Vec<crate::detect::Spike> {
        self.spikes.iter().map(|a| a.spike).collect()
    }

    /// The timeline of one region, if it was part of the study.
    pub fn timeline(&self, state: State) -> Option<&Timeline> {
        self.timelines
            .iter()
            .find(|(s, _)| *s == state)
            .map(|(_, t)| t)
    }
}

/// Study failures, tagged with the region being processed.
#[derive(Debug)]
pub enum StudyError {
    /// Collection or stitching failed for a region.
    Region {
        /// The region that failed.
        state: State,
        /// The underlying failure.
        source: RefetchError,
    },
    /// A rising-suggestions request failed.
    Rising {
        /// The region that failed.
        state: State,
        /// The underlying failure.
        source: FetchError,
    },
    /// The region's write-ahead journal or checkpoint could not be read
    /// or written (durable studies only).
    Durability {
        /// The region that failed.
        state: State,
        /// The underlying I/O failure.
        source: std::io::Error,
    },
}

impl fmt::Display for StudyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyError::Region { state, source } => {
                write!(f, "study failed for {state}: {source}")
            }
            StudyError::Rising { state, source } => {
                write!(f, "rising suggestions failed for {state}: {source}")
            }
            StudyError::Durability { state, source } => {
                write!(f, "durability failed for {state}: {source}")
            }
        }
    }
}

impl std::error::Error for StudyError {}

/// Per-region intermediate result produced by the parallel phase.
///
/// This is the unit of work a study shards over: [`run_region_study`]
/// produces one per region, [`assemble_study`] folds a complete set back
/// into a [`StudyResult`]. It is serializable so a cluster worker
/// (`sift-cluster`) can compute it remotely and upload it to the
/// coordinator over the wire — the global phase then runs on outcomes
/// regardless of where they were computed.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RegionOutcome {
    /// The region this outcome describes.
    pub state: State,
    /// The calibrated, re-fetch-averaged timeline.
    pub timeline: Timeline,
    /// Re-fetch rounds used.
    pub rounds: u32,
    /// Whether the spike set converged before the round cap.
    pub converged: bool,
    /// Time frames requested while collecting this region.
    pub frames_requested: u64,
    /// Frame slots filled from a previous round after a fetch failure.
    pub frames_degraded: u64,
    /// Fresh-fetch share of frame slots (1.0 = nothing degraded).
    pub coverage: f64,
    /// Whether the re-fetch loop halted early on an open circuit breaker.
    pub halted: bool,
    /// The re-fetch round a durable resume picked up at (0 = fresh run).
    pub resumed_from_round: u32,
    /// Frame slots served from a recovered journal instead of the network.
    pub frames_replayed: u64,
    /// Rising-suggestion requests issued for this region.
    pub rising_requested: u64,
    /// `(spike, its gathered suggestions)`.
    pub spikes: Vec<(crate::detect::Spike, Vec<RisingTerm>)>,
}

/// Runs the full study.
///
/// The client may be the in-process service or an HTTP fetcher unit; pass
/// a round-robin combinator (see `sift-fetcher`) to spread the crawl over
/// several units.
pub fn run_study(
    client: &dyn TrendsClient,
    params: &StudyParams,
) -> Result<StudyResult, StudyError> {
    run_study_impl(client, params, None)
}

/// [`run_study`] with crash-safe durability: every region journals its
/// responses and seals each completed re-fetch round with an atomic
/// checkpoint under the durability directory, so a study killed in round
/// *k* of a region resumes at round *k* with rounds `< k` intact —
/// re-fetching at most the one response that was in flight — and produces
/// the same [`StudyResult`] an uninterrupted run would have.
/// [`StudyStats::resumed_from_round`] records, per region, where the
/// resumed loop picked up.
pub fn run_study_durable(
    client: &dyn TrendsClient,
    params: &StudyParams,
    durability: &StudyDurability,
) -> Result<StudyResult, StudyError> {
    run_study_impl(client, params, Some(durability))
}

fn run_study_impl(
    client: &dyn TrendsClient,
    params: &StudyParams,
    durability: Option<&StudyDurability>,
) -> Result<StudyResult, StudyError> {
    // The study span is the end-to-end root every stage hangs off: the
    // bench binaries derive their timings from this trace tree.
    let study_span = sift_obs::span("study");
    let study_ctx = study_span.context();
    let baseline = sift_obs::SpanBaseline::capture();
    let plan = {
        let _span = sift_obs::span("plan");
        plan_frames(params.range, params.plan)
    };

    // ---- Parallel per-region phase: collect, average, detect, gather
    // rising suggestions.
    let threads = params.threads.clamp(1, params.regions.len().max(1));
    let chunks: Vec<Vec<State>> = (0..threads)
        .map(|t| {
            params
                .regions
                .iter()
                .copied()
                .skip(t)
                .step_by(threads)
                .collect()
        })
        .collect();

    let outcomes: Vec<Result<RegionOutcome, StudyError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                let plan = &plan;
                scope.spawn(move || {
                    chunk
                        .into_iter()
                        .map(|state| {
                            // Reopen the study context on this worker
                            // thread; its own span stack is empty and
                            // would orphan every region's spans.
                            let _region_span = sift_obs::span_in(study_ctx, "region");
                            run_region_study(client, params, &plan.frames, state, durability)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            // sift-lint: allow(no-panic) — re-raising a worker panic on join is the only sane option
            .flat_map(|h| h.join().expect("region worker panicked"))
            .collect()
    });

    let mut regions = Vec::with_capacity(outcomes.len());
    for o in outcomes {
        regions.push(o?);
    }

    let mut result = assemble_study(params, regions, durability.is_some());
    result.stats.telemetry = sift_obs::TelemetrySnapshot::since(&baseline);
    Ok(result)
}

/// The study's global phase: folds a complete set of per-region outcomes
/// into the final [`StudyResult`] — heavy hitters over every spike's
/// suggestion set, annotation, cross-region clustering, accounting.
///
/// Shared verbatim between the in-process driver and the cluster
/// coordinator (`sift-cluster`); this sharing is what makes a sharded run
/// bit-identical to a single-process one. Outcomes are sorted by region
/// index before anything else, so the caller's collection order (thread
/// interleaving, worker upload order) cannot influence the result.
/// `track_resume` mirrors the durable driver: when set, per-region resume
/// rounds are recorded in [`StudyStats::resumed_from_round`].
/// [`StudyStats::telemetry`] is left empty for the caller to fill.
pub fn assemble_study(
    params: &StudyParams,
    mut regions: Vec<RegionOutcome>,
    track_resume: bool,
) -> StudyResult {
    regions.sort_by_key(|r| r.state.index());

    // ---- Global phase: intern every spike's suggested terms once, with
    // the heavy hitters over them, then annotate regions in parallel.
    let context_span = sift_obs::span("context");
    let (terms, heavy, distinct_terms) = TermTable::of_study(
        regions
            .iter()
            .flat_map(|r| r.spikes.iter().map(|(_, sugg)| sugg.as_slice())),
        params.context.heavy_hitter_mass,
    );
    let mut spikes = annotate_regions(&terms, &regions, params, context_span.context());

    // ---- Assemble.
    let mut stats = StudyStats::default();
    let mut timelines = Vec::with_capacity(regions.len());
    for r in &regions {
        stats.frames_requested += r.frames_requested;
        stats.frames_degraded += r.frames_degraded;
        stats.rising_requested += r.rising_requested;
        stats.rounds_by_state.push((r.state, r.rounds));
        stats.coverage_by_state.push((r.state, r.coverage));
        stats.frames_replayed += r.frames_replayed;
        if track_resume {
            stats
                .resumed_from_round
                .push((r.state, r.resumed_from_round));
        }
        if r.converged {
            stats.converged_regions += 1;
        }
        if r.halted {
            stats.halted_regions += 1;
        }
    }
    for r in regions {
        timelines.push((r.state, r.timeline));
    }
    spikes.sort_by_key(|a| (a.spike.start, a.spike.state.index()));
    drop(context_span);

    let clusters = {
        let _span = sift_obs::span("cluster");
        cluster_spikes(
            &spikes.iter().map(|a| a.spike).collect::<Vec<_>>(),
            params.cluster_slack_h,
        )
    };

    sift_obs::event(
        sift_obs::Level::Info,
        "core.study",
        "study complete",
        &[
            (
                "frames_requested",
                serde_json::Value::UInt(stats.frames_requested),
            ),
            (
                "rising_requested",
                serde_json::Value::UInt(stats.rising_requested),
            ),
            (
                "converged_regions",
                serde_json::Value::UInt(stats.converged_regions as u64),
            ),
            (
                "frames_degraded",
                serde_json::Value::UInt(stats.frames_degraded),
            ),
            ("spikes", serde_json::Value::UInt(spikes.len() as u64)),
        ],
    );

    StudyResult {
        spikes,
        timelines,
        clusters,
        heavy_hitters: heavy,
        distinct_terms,
        stats,
    }
}

/// Annotates every region's spikes against the study's term table,
/// fanning regions out over `params.threads` workers. Each region gets
/// its own `annotate` span under `context`; the spikes come back in
/// region order, spike order within a region, whatever the thread count.
fn annotate_regions(
    terms: &TermTable<'_>,
    regions: &[RegionOutcome],
    params: &StudyParams,
    context: sift_obs::SpanContext,
) -> Vec<AnnotatedSpike> {
    let threads = params.threads.clamp(1, regions.len().max(1));
    let next = AtomicUsize::new(0);
    let mut annotated: Vec<(usize, Vec<AnnotatedSpike>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(r) = regions.get(i) else { break };
                        let _annotate_span = sift_obs::span_in(context, "annotate");
                        let spikes: Vec<AnnotatedSpike> = r
                            .spikes
                            .iter()
                            .map(|(spike, sugg)| terms.annotate(*spike, sugg, &params.context))
                            .collect();
                        sift_obs::attr_add(
                            "spikes_annotated",
                            u64::try_from(spikes.len()).unwrap_or(u64::MAX),
                        );
                        done.push((i, spikes));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            // sift-lint: allow(no-panic) — re-raising a worker panic on join is the only sane option
            .flat_map(|h| h.join().expect("annotate worker panicked"))
            .collect()
    });
    annotated.sort_by_key(|(i, _)| *i);
    annotated.into_iter().flat_map(|(_, s)| s).collect()
}

/// The per-region pipeline: averaging, detection, rising gathering.
///
/// One shard of [`run_study`]'s parallel phase, public so a cluster
/// worker can run exactly the code path the in-process driver runs.
/// `frames` must be the full deterministic plan for `params.range`
/// (`plan_frames(params.range, params.plan)` — every shard computes the
/// same plan locally). The caller owns the enclosing `region` span.
pub fn run_region_study(
    client: &dyn TrendsClient,
    params: &StudyParams,
    frames: &[HourRange],
    state: State,
    durability: Option<&StudyDurability>,
) -> Result<RegionOutcome, StudyError> {
    // One durability domain per region: the parallel workers never share
    // a journal file.
    let mut journal: Option<RegionJournal> = durability
        .map(|d| d.region(state))
        .transpose()
        .map_err(|source| StudyError::Durability { state, source })?;

    let outcome = match journal.as_mut() {
        Some(j) => averaged_timeline_durable(
            client,
            &params.term,
            state,
            frames,
            &params.refetch,
            &params.detect,
            j,
        ),
        None => averaged_timeline(
            client,
            &params.term,
            state,
            frames,
            &params.refetch,
            &params.detect,
        ),
    }
    .map_err(|source| StudyError::Region { state, source })?;

    // Rising suggestions: weekly responses are shared between spikes in
    // the same frame, so memoize per frame start.
    let _rising_span = sift_obs::span("rising");
    let mut weekly_memo: HashMap<i64, Vec<RisingTerm>> = HashMap::new();
    let mut rising_requested = 0u64;
    let mut spikes = Vec::with_capacity(outcome.spikes.len());

    for spike in &outcome.spikes {
        let mut suggestions: Vec<RisingTerm> = Vec::new();

        for frame in frames.iter().filter(|f| f.overlaps(&spike.window())) {
            let entry = match weekly_memo.entry(frame.start.0) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    rising_requested += 1;
                    let len = u32::try_from(frame.len()).unwrap_or(u32::MAX);
                    let replayed = journal
                        .as_mut()
                        .and_then(|j| j.replayed_rising(frame.start.0, len));
                    let rising = match replayed {
                        Some(resp) => resp.rising,
                        None => {
                            let resp = client
                                .fetch_rising(&RisingRequest {
                                    term: params.term.clone(),
                                    state,
                                    start: frame.start,
                                    len,
                                    tag: 0,
                                })
                                .map_err(|source| StudyError::Rising { state, source })?;
                            if let Some(j) = journal.as_mut() {
                                j.record_rising(frame.start.0, len, &resp)
                                    .map_err(|source| StudyError::Durability { state, source })?;
                            }
                            resp.rising
                        }
                    };
                    e.insert(rising)
                }
            };
            suggestions.extend(entry.iter().cloned());
        }

        if params.daily_rising {
            // "SIFT repeats this process for daily time frames on spike
            // days to capture more targeted and fine-grained rising terms"
            // (§3.1).
            let mut day = spike.start.day_start();
            let mut fetched = 0usize;
            while day < spike.end && fetched < params.max_daily_per_spike {
                rising_requested += 1;
                let replayed = journal.as_mut().and_then(|j| j.replayed_rising(day.0, 24));
                let resp = match replayed {
                    Some(resp) => resp,
                    None => {
                        let resp = client
                            .fetch_rising(&RisingRequest {
                                term: params.term.clone(),
                                state,
                                start: day,
                                len: 24,
                                tag: 0,
                            })
                            .map_err(|source| StudyError::Rising { state, source })?;
                        if let Some(j) = journal.as_mut() {
                            j.record_rising(day.0, 24, &resp)
                                .map_err(|source| StudyError::Durability { state, source })?;
                        }
                        resp
                    }
                };
                suggestions.extend(resp.rising.into_iter().map(|mut t| {
                    // sift-lint: allow(lossy-cast) — float `as u32` saturates; rounding the boosted weight down is intended
                    t.weight = (f64::from(t.weight) * params.daily_weight_boost) as u32;
                    t
                }));
                day += 24;
                fetched += 1;
            }
        }

        spikes.push((*spike, suggestions));
    }

    // Seal the region so a resume of a *finished* study is a pure replay.
    if let Some(j) = journal.as_mut() {
        j.finish()
            .map_err(|source| StudyError::Durability { state, source })?;
    }

    Ok(RegionOutcome {
        state,
        timeline: outcome.timeline,
        rounds: outcome.rounds,
        converged: outcome.converged,
        frames_requested: outcome.frames_fetched,
        frames_degraded: outcome.frames_degraded,
        coverage: outcome.coverage,
        halted: outcome.halted,
        resumed_from_round: outcome.resumed_from_round,
        frames_replayed: outcome.frames_replayed,
        rising_requested,
        spikes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sift_simtime::Hour;
    use sift_trends::events::{Cause, OutageEvent, PowerTrigger};
    use sift_trends::terms::Provider;
    use sift_trends::{Scenario, ScenarioParams, TrendsService};

    fn two_region_service() -> TrendsService {
        let events = vec![
            OutageEvent {
                id: 0,
                name: "verizon".into(),
                cause: Cause::IspNetwork(Provider::Verizon),
                start: Hour(300),
                duration_h: 9,
                states: vec![(State::TX, 0.25), (State::CA, 0.2)],
                severity: 9_000.0,
                lags_h: vec![0, 0],
            },
            OutageEvent {
                id: 1,
                name: "storm".into(),
                cause: Cause::Power(PowerTrigger::Storm),
                start: Hour(800),
                duration_h: 12,
                states: vec![(State::TX, 0.2)],
                severity: 8_000.0,
                lags_h: vec![0],
            },
        ];
        // Anchor events keep the frame chain calibrated (see the
        // refetch tests for why density matters).
        let mut events = events;
        for (i, start) in (40..1200).step_by(60).enumerate() {
            for (j, state) in [State::TX, State::CA].into_iter().enumerate() {
                events.push(OutageEvent {
                    id: 100 + (i * 2 + j) as u32,
                    name: format!("anchor-{i}-{state}"),
                    cause: Cause::IspNetwork(Provider::Frontier),
                    start: Hour(start + 13 * j as i64),
                    duration_h: 2,
                    states: vec![(state, 0.015)],
                    severity: 8_000.0,
                    lags_h: vec![0],
                });
            }
        }
        let params = ScenarioParams {
            background_scale: 0.0,
            include_named: false,
            include_clusters: false,
            regions: vec![State::TX, State::CA],
            ..ScenarioParams::default()
        };
        let mut scenario = Scenario::generate(params);
        scenario.events = events;
        scenario.events.sort_by_key(|e| (e.start, e.id));
        TrendsService::with_defaults(scenario)
    }

    fn small_params() -> StudyParams {
        let mut params = StudyParams {
            range: HourRange::new(Hour(0), Hour(1200)),
            regions: vec![State::TX, State::CA],
            threads: 2,
            ..StudyParams::default()
        };
        // This toy world's heavy-hitter set is dominated by the anchor
        // events' phrases (in the full study, power terms dominate);
        // keep more annotations so cause terms survive the heavy-first
        // ranking.
        params.context.max_annotations = 6;
        params
    }

    #[test]
    fn full_workflow_recovers_both_events() {
        let service = two_region_service();
        let result = run_study(&service, &small_params()).expect("study runs");

        // Both regions have timelines covering the range.
        assert_eq!(result.timelines.len(), 2);
        assert_eq!(result.timeline(State::TX).unwrap().range().len(), 1200);

        // The multi-state event shows up as a 2-state cluster.
        let wide = result
            .clusters
            .iter()
            .find(|c| c.state_count() == 2)
            .expect("2-state cluster");
        assert!(wide.window.contains(Hour(303)));

        // The power event is power-annotated; the ISP event is not.
        let tx_power = result
            .spikes
            .iter()
            .find(|a| a.spike.state == State::TX && a.spike.window().contains(Hour(805)))
            .expect("power spike detected");
        assert!(
            tx_power.power_annotated(),
            "annotations: {:?}",
            tx_power.annotations
        );

        let tx_verizon = result
            .spikes
            .iter()
            .find(|a| a.spike.state == State::TX && a.spike.window().contains(Hour(303)))
            .expect("verizon spike detected");
        assert!(
            tx_verizon
                .annotations
                .iter()
                .any(|ann| ann.label.to_lowercase().contains("verizon")),
            "annotations: {:?}",
            tx_verizon.annotations
        );

        // Stats add up.
        assert!(result.stats.frames_requested > 0);
        assert!(result.stats.rising_requested > 0);
        assert_eq!(result.stats.rounds_by_state.len(), 2);
        // The in-process client never fails, so coverage is full.
        assert_eq!(result.stats.frames_degraded, 0);
        assert_eq!(result.stats.coverage_by_state.len(), 2);
        assert!(result
            .stats
            .coverage_by_state
            .iter()
            .all(|(_, c)| (c - 1.0).abs() < 1e-12));
    }

    #[test]
    fn spikes_sorted_and_within_range() {
        let service = two_region_service();
        let params = small_params();
        let result = run_study(&service, &params).expect("study runs");
        for pair in result.spikes.windows(2) {
            assert!(
                (pair[0].spike.start, pair[0].spike.state.index())
                    <= (pair[1].spike.start, pair[1].spike.state.index())
            );
        }
        for a in &result.spikes {
            assert!(a.spike.start >= params.range.start);
            assert!(a.spike.end <= params.range.end);
        }
    }

    #[test]
    fn daily_rising_can_be_disabled() {
        let service = two_region_service();
        let mut params = small_params();
        params.daily_rising = false;
        let without = run_study(&service, &params).expect("study runs");
        params.daily_rising = true;
        let with = run_study(&service, &params).expect("study runs");
        assert!(with.stats.rising_requested > without.stats.rising_requested);
    }

    #[test]
    fn durable_study_crashed_at_a_checkpoint_resumes_identically() {
        use sift_journal::testutil::scratch_dir;
        use sift_journal::{CrashInjector, CrashPlan, CrashSite};
        use std::sync::Arc;

        let params = small_params();
        let clean = run_study(&two_region_service(), &params).expect("clean study");

        let dir = scratch_dir("study_durable");
        // Die while a checkpoint's temp file is written but not yet
        // renamed into place — the journal must stay authoritative.
        let inj = Arc::new(CrashInjector::new(
            CrashPlan::nowhere().at(CrashSite::CheckpointTempWritten, 3),
        ));
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let durability = StudyDurability::new(&dir).with_crash(inj);
            let _ = run_study_durable(&two_region_service(), &params, &durability);
        }))
        .is_err();
        assert!(crashed, "injected crash must fire");

        let resumed =
            run_study_durable(&two_region_service(), &params, &StudyDurability::new(&dir))
                .expect("resumed study");

        assert!(resumed.stats.frames_replayed > 0, "{:?}", resumed.stats);
        assert!(
            resumed
                .stats
                .resumed_from_round
                .iter()
                .any(|&(_, round)| round > 0),
            "{:?}",
            resumed.stats.resumed_from_round
        );
        assert_eq!(resumed.spikes.len(), clean.spikes.len());
        for (a, b) in resumed.spikes.iter().zip(clean.spikes.iter()) {
            assert_eq!(a.spike, b.spike);
            assert_eq!(a.annotations, b.annotations);
        }
        assert_eq!(resumed.timelines, clean.timelines);
        assert_eq!(resumed.clusters.len(), clean.clusters.len());
        assert_eq!(resumed.stats.frames_requested, clean.stats.frames_requested);

        // A resume of the *finished* study is a pure replay: zero fetches.
        let replayed =
            run_study_durable(&two_region_service(), &params, &StudyDurability::new(&dir))
                .expect("pure replay");
        assert_eq!(
            replayed.stats.frames_replayed,
            replayed.stats.frames_requested
        );
        for (a, b) in replayed.spikes.iter().zip(clean.spikes.iter()) {
            assert_eq!(a.spike, b.spike);
        }
    }

    #[test]
    fn study_assembles_one_trace_with_all_stages_and_a_critical_path() {
        let service = two_region_service();
        let tid = {
            let root = sift_obs::span_root("study-trace-test");
            let _ = run_study(&service, &small_params()).expect("study runs");
            root.context().trace_id
        };
        let trace = sift_obs::trace::wait_completed(tid, std::time::Duration::from_secs(10))
            .expect("trace completed");
        assert!(trace.orphans().is_empty(), "no severed parentage");
        for name in [
            "study", "plan", "region", "fetch", "stitch", "detect", "annotate",
        ] {
            assert!(
                trace.spans.iter().any(|s| s.name == name),
                "stage span {name} missing from the study trace"
            );
        }
        let stitch = trace
            .spans
            .iter()
            .find(|s| s.name == "stitch")
            .expect("stitch span");
        assert!(stitch.arg("frames_stitched").is_some_and(|n| n > 0));
        let cp = sift_obs::critical_path(&trace).expect("critical path");
        // The walk telescopes: critical-path time sums to the root's
        // duration, and the four pipeline stages account for nearly all
        // of the study span's wall time.
        let study = trace
            .spans
            .iter()
            .find(|s| s.name == "study")
            .expect("study span");
        let stage_names: Vec<&str> = PIPELINE_STAGES
            .iter()
            .flat_map(|(_, names)| names.iter().copied())
            .collect();
        let staged = cp.named_us(&stage_names);
        assert!(
            staged * 10 >= study.dur_us * 9,
            "stages cover >=90% of the study: {staged}us of {}us",
            study.dur_us
        );
    }

    #[test]
    fn annotate_spans_hang_off_context_and_count_every_spike() {
        let service = two_region_service();
        let mut params = small_params();
        params.threads = 5;
        let (tid, spikes) = {
            let root = sift_obs::span_root("annotate-trace-test");
            let result = run_study(&service, &params).expect("study runs");
            (root.context().trace_id, result.spikes.len())
        };
        let trace = sift_obs::trace::wait_completed(tid, std::time::Duration::from_secs(10))
            .expect("trace completed");
        assert!(trace.orphans().is_empty(), "no severed parentage");
        let context = trace
            .spans
            .iter()
            .find(|s| s.name == "context")
            .expect("context span");
        let annotate: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.name == "annotate")
            .collect();
        assert_eq!(annotate.len(), params.regions.len(), "one span per region");
        assert!(annotate
            .iter()
            .all(|s| s.parent_id == Some(context.span_id)));
        let counted: u64 = annotate
            .iter()
            .filter_map(|s| s.arg("spikes_annotated"))
            .sum();
        assert_eq!(counted, spikes as u64);
    }

    /// Asserts two studies concluded the same: annotated spikes (weights
    /// to the bit), heavy hitters, distinct terms, clusters, timelines
    /// and request accounting. Telemetry, which times the host, is not
    /// compared.
    fn assert_same_result(got: &StudyResult, want: &StudyResult) {
        assert_eq!(got.spikes.len(), want.spikes.len());
        for (a, b) in got.spikes.iter().zip(want.spikes.iter()) {
            assert_eq!(a.spike, b.spike);
            assert_eq!(a.annotations, b.annotations);
            let bits = |s: &AnnotatedSpike| -> Vec<u64> {
                s.annotations.iter().map(|a| a.weight.to_bits()).collect()
            };
            assert_eq!(bits(a), bits(b));
        }
        assert_eq!(got.heavy_hitters, want.heavy_hitters);
        assert_eq!(got.distinct_terms, want.distinct_terms);
        let json = |c: &[OutageCluster]| serde_json::to_string(c).expect("clusters serialize");
        assert_eq!(json(&got.clusters), json(&want.clusters));
        assert_eq!(got.timelines, want.timelines);
        assert_eq!(got.stats.frames_requested, want.stats.frames_requested);
        assert_eq!(got.stats.rising_requested, want.stats.rising_requested);
        assert_eq!(got.stats.rounds_by_state, want.stats.rounds_by_state);
        assert_eq!(got.stats.converged_regions, want.stats.converged_regions);
    }

    #[test]
    fn single_thread_matches_parallel() {
        let service = two_region_service();
        let mut params = small_params();
        params.threads = 1;
        let seq = run_study(&service, &params).expect("study runs");
        assert!(!seq.heavy_hitters.is_empty() && !seq.clusters.is_empty());
        // Two threads: one per region in both phases. Five: more threads
        // than regions, which both phases must clamp.
        for threads in [2, 5] {
            params.threads = threads;
            let par = run_study(&service, &params).expect("study runs");
            assert_same_result(&par, &seq);
        }
    }
}
