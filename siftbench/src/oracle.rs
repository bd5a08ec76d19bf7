//! Output oracles: every workload checks what it produced on every run.
//!
//! - `batch`: a digest of the study's spikes, annotations, heavy hitters
//!   and clusters, pinned for the default seed in `spec.json`; on every
//!   seed the result must be internally consistent and repeatable, and
//!   (traced run) the serial pipeline must equal the parallel one.
//! - `sharded`: field-by-field equality with the in-process study on the
//!   same parameters (the comparison `exp_cluster` asserts).
//! - `serve`: the daemon's sealed spikes match batch stitch + detect over
//!   the same tag-0 frames (the equivalence `incremental_prop.rs`
//!   asserts).

use sift_core::{cluster_spikes, AnnotatedSpike, OutageCluster, Spike, StudyParams, StudyResult};
use sift_simtime::Hour;

/// FNV-1a 64 over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn json<T: serde::Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).unwrap_or_default()
}

/// Digest of everything a study concluded: annotated spikes, heavy
/// hitters (with the distinct-term count) and cross-region clusters.
pub fn digest(r: &StudyResult) -> u64 {
    digest_parts(&r.spikes, &r.heavy_hitters, r.distinct_terms, &r.clusters)
}

/// [`digest`] over the parts of a result, as a replay produces them.
pub fn digest_parts(
    spikes: &[AnnotatedSpike],
    heavy_hitters: &[(String, u64)],
    distinct_terms: usize,
    clusters: &[OutageCluster],
) -> u64 {
    let text = format!(
        "{}|{}|{distinct_terms}|{}",
        json(spikes),
        json(heavy_hitters),
        json(clusters)
    );
    fnv1a(text.as_bytes())
}

/// The digest as printed and pinned: 16 lowercase hex digits.
pub fn digest_hex(r: &StudyResult) -> String {
    format!("{:016x}", digest(r))
}

/// Field-by-field equality of two studies of the same parameters.
pub fn same_study(got: &StudyResult, want: &StudyResult) -> Result<(), String> {
    if got.timelines != want.timelines {
        return Err("timelines differ".into());
    }
    if got.heavy_hitters != want.heavy_hitters || got.distinct_terms != want.distinct_terms {
        return Err("heavy hitters differ".into());
    }
    if got.spikes.len() != want.spikes.len() {
        return Err(format!(
            "{} spikes, expected {}",
            got.spikes.len(),
            want.spikes.len()
        ));
    }
    if let Some((i, _)) = got
        .spikes
        .iter()
        .zip(&want.spikes)
        .enumerate()
        .find(|(_, (a, b))| a.spike != b.spike || a.annotations != b.annotations)
    {
        return Err(format!("spike {i} differs"));
    }
    if json(&got.clusters) != json(&want.clusters) {
        return Err("clusters differ".into());
    }
    let (g, w) = (&got.stats, &want.stats);
    if (g.frames_requested, g.rising_requested) != (w.frames_requested, w.rising_requested) {
        return Err(format!(
            "requests {}+{}, expected {}+{}",
            g.frames_requested, g.rising_requested, w.frames_requested, w.rising_requested
        ));
    }
    Ok(())
}

/// Checks a study against invariants any correct result satisfies, on
/// any seed: spikes sorted by (start, region) and inside the window,
/// at most `max_annotations` annotations each, one timeline per region,
/// and clusters equal to re-clustering the spikes.
pub fn consistent(r: &StudyResult, params: &StudyParams) -> Result<(), String> {
    if r.spikes.is_empty() {
        return Err("no spikes detected".into());
    }
    let key = |s: &Spike| (s.start, s.state.index());
    if r.spikes
        .windows(2)
        .any(|w| key(&w[0].spike) > key(&w[1].spike))
    {
        return Err("spikes are not sorted by (start, region)".into());
    }
    if let Some(a) = r.spikes.iter().find(|a| {
        let s = a.spike;
        !(params.range.start <= s.start && s.start <= s.peak && s.peak < s.end)
            || s.end > params.range.end
            || a.annotations.len() > params.context.max_annotations
    }) {
        return Err(format!("malformed spike {:?}", a.spike));
    }
    if r.timelines.len() != params.regions.len() {
        return Err(format!(
            "{} timelines for {} regions",
            r.timelines.len(),
            params.regions.len()
        ));
    }
    let reclustered = cluster_spikes(&r.bare_spikes(), params.cluster_slack_h);
    if json(&reclustered) != json(&r.clusters) {
        return Err("clusters do not re-derive from the spikes".into());
    }
    Ok(())
}

/// Checks a daemon region's sealed spikes against batch detection over
/// the same series: every batch spike that ends before the detector's
/// open tail (`watermark - open_hours`) must be sealed, identical
/// (start, peak, end and magnitude), and nothing else may be sealed.
pub fn serve_matches(
    sealed: &[Spike],
    batch: &[Spike],
    watermark: Hour,
    open_hours: i64,
) -> Result<(), String> {
    let settled = Hour(watermark.0 - open_hours);
    let expected: Vec<&Spike> = batch.iter().filter(|s| s.end <= settled).collect();
    if sealed.len() < expected.len() || sealed.len() > batch.len() {
        return Err(format!(
            "{} sealed spikes, batch has {} settled of {}",
            sealed.len(),
            expected.len(),
            batch.len()
        ));
    }
    if let Some((i, (a, b))) = sealed
        .iter()
        .zip(batch)
        .enumerate()
        .find(|(_, (a, b))| a != b)
    {
        return Err(format!("sealed spike {i} is {a:?}, batch has {b:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sift_core::run_study;
    use sift_geo::State;
    use sift_simtime::HourRange;
    use sift_trends::{Scenario, ScenarioParams, TrendsService};

    fn small_study() -> (StudyResult, StudyParams) {
        let scenario = Scenario::generate(ScenarioParams {
            background_scale: 0.25,
            regions: vec![State::TX, State::CA],
            ..ScenarioParams::default()
        });
        let service = TrendsService::with_defaults(scenario);
        let params = StudyParams {
            range: HourRange::new(Hour(0), Hour(24 * 120)),
            regions: vec![State::TX, State::CA],
            threads: 1,
            daily_rising: false,
            ..StudyParams::default()
        };
        let result = run_study(&service, &params).expect("study");
        assert!(!result.spikes.is_empty(), "the fixture must detect spikes");
        (result, params)
    }

    #[test]
    fn a_correct_study_passes_every_batch_oracle() {
        let (r, params) = small_study();
        let (again, _) = small_study();
        assert_eq!(digest(&r), digest(&again));
        same_study(&again, &r).expect("same study");
        consistent(&r, &params).expect("consistent");
    }

    #[test]
    fn corrupted_studies_are_rejected() {
        let (r, params) = small_study();
        let want = digest_hex(&r);

        let mut bad = r.clone();
        bad.spikes[0].spike.peak = bad.spikes[0].spike.end;
        assert_ne!(digest_hex(&bad), want);
        assert!(same_study(&bad, &r).is_err());
        assert!(consistent(&bad, &params).is_err());

        let mut bad = r.clone();
        bad.spikes[0].annotations.push(sift_core::Annotation {
            label: "not a suggestion".into(),
            weight: 1.0,
            heavy_hitter: false,
        });
        assert_ne!(digest_hex(&bad), want);
        assert!(same_study(&bad, &r).is_err());

        let mut bad = r.clone();
        bad.heavy_hitters.push(("injected".into(), 1));
        assert_ne!(digest_hex(&bad), want);
        assert!(same_study(&bad, &r).is_err());

        let mut bad = r.clone();
        bad.clusters.pop();
        assert_ne!(digest_hex(&bad), want);
        assert!(same_study(&bad, &r).is_err());
        assert!(consistent(&bad, &params).is_err());

        let mut bad = r.clone();
        bad.spikes.reverse();
        assert!(consistent(&bad, &params).is_err());

        let mut bad = r.clone();
        bad.stats.frames_requested += 1;
        assert!(same_study(&bad, &r).is_err());
    }

    #[test]
    fn corrupted_daemon_spikes_are_rejected() {
        let spike = |start: i64, peak: i64, end: i64| Spike {
            state: State::TX,
            start: Hour(start),
            peak: Hour(peak),
            end: Hour(end),
            magnitude: 50.0,
        };
        let batch = vec![
            spike(10, 12, 20),
            spike(100, 103, 110),
            spike(500, 501, 505),
        ];
        let sealed = &batch[..2];
        serve_matches(sealed, &batch, Hour(520), 30).expect("open tail holds the last spike");
        // The last spike is settled, so it must be sealed too.
        assert!(serve_matches(sealed, &batch, Hour(600), 30).is_err());
        // A moved peak is a different spike, and so is another magnitude.
        let moved = [spike(10, 13, 20), batch[1]];
        assert!(serve_matches(&moved, &batch, Hour(520), 30).is_err());
        let mut rescaled = [batch[0], batch[1]];
        rescaled[1].magnitude *= 2.0;
        assert!(serve_matches(&rescaled, &batch, Hour(520), 30).is_err());
        // A spike batch never detected.
        let extra = [batch[0], batch[1], batch[2], spike(600, 601, 602)];
        assert!(serve_matches(&extra, &batch, Hour(700), 0).is_err());
    }
}
