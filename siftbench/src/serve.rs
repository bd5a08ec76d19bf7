//! `serve`: the online daemon catching up, with reads alongside.
//!
//! Each pass starts a `Daemon` with `ServeConfig::new` defaults (but
//! [`CHECKPOINT_EVERY`]) over a fresh state directory, the simulated
//! clock already at the window's end — a restarted daemon backfilling
//! the full window for a fixed set of regions. While it ingests (WAL
//! append per frame, stitch, incremental detect, fsync + checkpoint
//! every [`CHECKPOINT_EVERY`] frames), one generator thread
//! sends open-loop `GET /spikes?region=…` reads at a fixed rate over one
//! keep-alive connection. Latency is timed from each read's due time, so
//! a stalled server cannot hide queueing by slowing the generator down.
//! After `wait_caught_up` every region's sealed spikes must match batch
//! stitch + detect over the same tag-0 frames (see [`reference`]).

use crate::oracle;
use crate::probe::{self, median, quantile};
use crate::scrape::Scrape;
use crate::timed::{Tally, TimedClient};
use crate::world;
use crate::{remove_dir, work_dir, Args, Outcome};
use sift_core::{
    detect_spikes, plan_frames, stitch, DetectParams, PlanParams, Spike, StreamStitcher, Timeline,
};
use sift_geo::State;
use sift_net::{HttpClient, Request};
use sift_serve::{Daemon, ServeConfig};
use sift_simtime::{Hour, SimClock, STUDY_RANGE};
use sift_trends::{FrameRequest, FrameResponse, SearchTerm, TrendsClient, TrendsService};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Regions the daemon serves: every third of the 51, so a run holds
/// enough catch-up passes for a steady median.
fn regions() -> Vec<State> {
    State::ALL.iter().copied().step_by(3).collect()
}
/// Reads per second the generator offers.
const READ_RATE: f64 = 200.0;
/// Frames between region checkpoints: the journal's own fsync batch
/// (`sift_journal::DEFAULT_SYNC_EVERY`), not `ServeConfig::new`'s 4.
/// At 4 a pass makes ~1.8 fsyncs per frame and its wall time follows
/// the shared disk's fsync latency, which drifts by 2x within minutes;
/// at 32 fsyncs are a few percent of it and the pass is CPU-bound.
const CHECKPOINT_EVERY: u64 = 32;
/// A read not answered within this is a failed read.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

fn term() -> SearchTerm {
    SearchTerm::parse("topic:Internet outage")
}

/// The spikes batch detection finds on each region's tag-0 frames.
///
/// The daemon detects on the raw stitched scale (the first frame's), and
/// batch `stitch` renormalizes to the global maximum, which the daemon
/// cannot know until the window ends. So the reference is built the way
/// `incremental_prop.rs` proves the two equivalent: the streamed raw
/// series must equal batch `stitch` up to its final scale factor, bit
/// for bit, and batch `detect_spikes` over that raw series is what the
/// daemon must have sealed.
fn reference(service: &TrendsService) -> Result<Vec<Vec<Spike>>, String> {
    let plan = plan_frames(STUDY_RANGE, PlanParams::default());
    let frame_len = PlanParams::default().frame_len;
    regions()
        .into_iter()
        .map(|state| {
            let frames: Vec<FrameResponse> = plan
                .frames
                .iter()
                .map(|f| {
                    service.fetch_frame(&FrameRequest {
                        term: term(),
                        state,
                        start: f.start,
                        len: frame_len,
                        tag: 0,
                    })
                })
                .collect::<Result<_, _>>()
                .map_err(|e| format!("reference fetch: {e}"))?;
            let refs: Vec<&FrameResponse> = frames.iter().collect();
            let batch = stitch(&refs).map_err(|e| format!("reference stitch: {e}"))?;

            let keep = usize::try_from(frame_len).unwrap_or(usize::MAX);
            let mut streamed = StreamStitcher::new(state, STUDY_RANGE.start, keep);
            let (mut raw, mut new_values) = (Vec::new(), Vec::new());
            for frame in &frames {
                streamed
                    .append(frame, &mut new_values)
                    .map_err(|e| format!("stream stitch: {e}"))?;
                raw.extend_from_slice(&new_values);
            }
            let scale = 100.0 / streamed.max_raw();
            if raw.len() != batch.values.len()
                || raw.iter().zip(&batch.values).any(|(r, b)| r * scale != *b)
            {
                return Err(format!(
                    "{state}: streamed stitch differs from batch stitch"
                ));
            }
            let raw = Timeline {
                state,
                start: STUDY_RANGE.start,
                values: raw,
            };
            Ok(detect_spikes(&raw, &DetectParams::default()))
        })
        .collect()
}

/// What one read generator saw.
#[derive(Default)]
struct Reads {
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    staleness_ms: Vec<f64>,
    ok: u64,
    degraded: u64,
    failed: u64,
}

/// Offers reads at [`READ_RATE`] until `stop`, timing each from its due
/// time.
fn generate_reads(addr: std::net::SocketAddr, stop: &AtomicBool) -> Reads {
    let client = HttpClient::new(addr).with_timeout(READ_TIMEOUT);
    let regions = regions();
    let mut reads = Reads::default();
    let t0 = Instant::now();
    let mut i = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let due = t0 + Duration::from_secs_f64(i as f64 / READ_RATE);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let region = regions[(i as usize) % regions.len()];
        let resp = client.send(&Request::get(format!("/spikes?region={region}")));
        let done = Instant::now();
        i += 1;
        reads.late_ms.push((sent - due).as_secs_f64() * 1e3);
        match resp {
            Ok(r) if r.status.is_success() => {
                reads.ok += 1;
                reads.latency_ms.push((done - due).as_secs_f64() * 1e3);
                if let Some(ms) = r
                    .headers
                    .get("x-sift-staleness-ms")
                    .and_then(|v| v.parse().ok())
                {
                    reads.staleness_ms.push(ms);
                }
                if r.headers.get("x-sift-degraded").is_some() {
                    reads.degraded += 1;
                }
            }
            // Non-2xx (a 503 shed included) and timeouts are failed reads.
            _ => reads.failed += 1,
        }
    }
    reads
}

/// The numbers of one catch-up pass.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    frames: u64,
    trends: Tally,
    scrape: Scrape,
    reads: Reads,
}

/// Catches a daemon up on a new world per repetition until `--seconds`
/// are spent.
pub fn measure(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let mut setups = Vec::new();
    let (passes, peak_rss_mb) = probe::repeat(args.seconds, |i| {
        let (setup, phase) = probe::timed(|| {
            let service = world::world(args.seed, i);
            reference(&service).map(|r| (service, r))
        });
        let (service, reference) = setup?;
        setups.push(phase.wall_s);
        let pass = pass(&service, &reference, args.trace, i)?;
        out.attempted += pass.reads.ok + pass.reads.failed;
        out.failed += pass.reads.failed;
        Ok(pass)
    })?;

    let med = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let study_s = med(&|p| p.wall_s);
    out.metric("setup_s", median(&setups));
    out.metric("study_s", study_s);
    out.metric("frames_per_s", med(&|p| p.frames as f64 / p.wall_s));
    out.metric("cpu_s", med(&|p| p.cpu_s));
    out.metric("peak_rss_mb", peak_rss_mb);

    let pooled = |f: &dyn Fn(&Reads) -> &Vec<f64>| -> Vec<f64> {
        passes
            .iter()
            .flat_map(|p| f(&p.reads).iter().copied())
            .collect()
    };
    let latency = pooled(&|r| &r.latency_ms);
    let staleness = pooled(&|r| &r.staleness_ms);
    let late = pooled(&|r| &r.late_ms);
    let ok: u64 = passes.iter().map(|p| p.reads.ok).sum();
    let degraded: u64 = passes.iter().map(|p| p.reads.degraded).sum();
    out.metric("trends.frame_calls", med(&|p| p.trends.frame_calls as f64));
    out.metric("trends.frame_busy_s", med(&|p| p.trends.frame_busy_s));
    out.metric(
        "serve.ingest_self_s",
        med(&|p| p.wall_s - p.trends.frame_busy_s),
    );
    out.metric("serve.frames_ingested", med(&|p| p.frames as f64));
    out.metric(
        "serve.checkpoints",
        med(&|p| p.scrape.sum("sift_serve_checkpoints_total", &[])),
    );
    out.metric(
        "serve.spikes_sealed",
        med(&|p| p.scrape.sum("sift_serve_spikes_sealed_total", &[])),
    );
    out.metric("net.spikes_server_s", med(&|p| p.scrape.route("/spikes").0));
    out.metric(
        "net.admission_shed",
        med(&|p| p.scrape.sum("sift_net_admission_shed_total", &[])),
    );
    out.metric(
        "serve.degraded_read_share",
        degraded as f64 / ok.max(1) as f64,
    );
    out.metric("serve.staleness_p50_ms", quantile(&staleness, 0.50));
    out.metric("serve.staleness_p99_ms", quantile(&staleness, 0.99));
    out.metric("serve.gen_late_p99_ms", quantile(&late, 0.99));
    out.metric("serve.read_p50_ms", quantile(&latency, 0.50));
    out.metric("serve.read_p99_ms", quantile(&latency, 0.99));
    out.metric("serve.reads", latency.len() as f64);
    eprintln!(
        "# serve: {} passes, median catch-up {study_s:.3}s, {} reads, p99 {:.3}ms",
        passes.len(),
        latency.len(),
        quantile(&latency, 0.99)
    );
    Ok(())
}

/// One daemon start → catch-up → verify → shutdown.
fn pass(
    service: &Arc<TrendsService>,
    reference: &[Vec<Spike>],
    trace: bool,
    n: usize,
) -> Result<Pass, String> {
    let timed = trace.then(|| Arc::new(TimedClient::new(Arc::clone(service) as _)));
    let client: Arc<dyn TrendsClient> = match &timed {
        Some(t) => Arc::clone(t) as _,
        None => Arc::clone(service) as _,
    };
    let dir = work_dir(&format!("serve-{n}"));
    let cfg = ServeConfig {
        checkpoint_every: CHECKPOINT_EVERY,
        // The default's ratio to the checkpoint interval: the tail only
        // grows past it when checkpoints fail.
        max_wal_backlog: 4 * CHECKPOINT_EVERY,
        ..ServeConfig::new(term(), regions(), STUDY_RANGE)
    };
    let clock = Arc::new(SimClock::new(STUDY_RANGE.end));

    let before = Scrape::now();
    let cpu0 = probe::cpu_seconds();
    let t0 = Instant::now();
    let daemon =
        Daemon::start(cfg, client, clock, &dir).map_err(|e| format!("start daemon: {e}"))?;
    let stop = Arc::new(AtomicBool::new(false));
    let generator = {
        let stop = Arc::clone(&stop);
        let addr = daemon.addr();
        std::thread::spawn(move || generate_reads(addr, &stop))
    };
    let caught_up = daemon.wait_caught_up(Duration::from_secs(120));
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = probe::cpu_seconds() - cpu0;
    stop.store(true, Ordering::Relaxed);
    let reads = generator.join();
    let scrape = Scrape::now().since(&before);

    let status = daemon.status();
    let mismatch = status
        .regions
        .iter()
        .zip(reference)
        .find_map(|(rs, batch)| {
            let sealed = daemon
                .spikes(rs.region)
                .map(|r| r.spikes)
                .unwrap_or_default();
            let open = i64::try_from(rs.open_hours).unwrap_or(i64::MAX);
            oracle::serve_matches(&sealed, batch, Hour(rs.watermark), open)
                .err()
                .map(|e| format!("{}: {e}", rs.region))
        });
    let check = match (caught_up, &reads, mismatch) {
        (false, _, _) => Err("daemon never caught up".to_owned()),
        (_, Err(_), _) => Err("read generator panicked".to_owned()),
        (_, _, Some(e)) => Err(e),
        _ => Ok(()),
    };
    let frames = status.regions.iter().map(|r| r.frames_ingested).sum();
    daemon.shutdown();
    remove_dir(&dir);
    check?;
    eprintln!("# serve {n}: {frames} frames, {wall_s:.3}s, {cpu_s:.2}s cpu");
    Ok(Pass {
        wall_s,
        cpu_s,
        frames,
        trends: timed.map_or(Tally::default(), |t| t.tally()),
        scrape,
        reads: reads.unwrap_or_default(),
    })
}
