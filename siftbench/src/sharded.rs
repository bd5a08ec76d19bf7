//! `sharded`: the deployment crawl. A durable `Coordinator`, `nproc`
//! `spawn_worker` threads and a `trends_router` server, all over
//! loopback HTTP in this process.
//!
//! Each repetition's set-up builds a new world, binds its trends server
//! and computes the in-process `run_study` reference the sharded result
//! must equal. The crawl then gets a fresh coordinator WAL directory and
//! runs until `wait_result`; repetitions go on until `--seconds` are
//! spent. Per-layer numbers are read from the `sift-obs` registry the
//! servers, clients and coordinator already export.

use crate::oracle;
use crate::probe::{self, median};
use crate::scrape::Scrape;
use crate::world;
use crate::{remove_dir, work_dir, Args, Outcome};
use sift_cluster::{
    cluster_router, spawn_worker, ClusterConfig, Coordinator, WorkerConfig, WorkerHandle,
};
use sift_core::{run_study, StudyParams, StudyResult};
use sift_fetcher::trends_router;
use sift_net::{Server, ServerHandle};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// HTTP worker threads of each server (as `exp_cluster` deploys them).
const SERVER_WORKERS: usize = 8;

/// The numbers of one crawl.
struct Crawl {
    wall_s: f64,
    cpu_s: f64,
    frames: u64,
    scrape: Scrape,
    shards_done: Vec<usize>,
}

/// Crawls a new world per repetition until `--seconds` are spent.
pub fn measure(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let params = world::sharded_params();
    let mut setups = Vec::new();
    let (crawls, peak_rss_mb) = probe::repeat(args.seconds, |i| {
        let (setup, phase) = probe::timed(|| setup(args.seed, i, &params));
        let (trends, reference) = setup?;
        setups.push(phase.wall_s);
        let crawl = crawl(&params, &trends, i, &reference);
        trends.shutdown();
        let crawl = crawl?;
        let (requests, failed) = crawl.scrape.requests();
        out.attempted += requests as u64;
        out.failed += failed as u64;
        Ok(crawl)
    })?;
    let med = |f: &dyn Fn(&Crawl) -> f64| median(&crawls.iter().map(f).collect::<Vec<_>>());
    let study_s = med(&|c| c.wall_s);
    out.metric("setup_s", median(&setups));
    out.metric("study_s", study_s);
    out.metric("frames_per_s", med(&|c| c.frames as f64 / c.wall_s));
    out.metric("cpu_s", med(&|c| c.cpu_s));
    out.metric("peak_rss_mb", peak_rss_mb);

    let route = |r: &'static str| move |c: &Crawl| c.scrape.route(r).0;
    out.metric("net.frame_server_s", med(&route("/api/frame")));
    out.metric(
        "net.frame_requests",
        med(&|c| c.scrape.route("/api/frame").1),
    );
    out.metric("net.rising_server_s", med(&route("/api/rising")));
    out.metric(
        "net.rising_requests",
        med(&|c| c.scrape.route("/api/rising").1),
    );
    out.metric(
        "net.pool_miss_ratio",
        med(&|c| {
            let miss = c
                .scrape
                .sum("sift_client_pool_total", &[("outcome", "miss")]);
            miss / c.scrape.sum("sift_client_pool_total", &[]).max(1.0)
        }),
    );
    out.metric(
        "net.client_retries",
        med(&|c| c.scrape.sum("sift_client_retries_total", &[])),
    );
    let shards = params.regions.len() as f64;
    out.metric(
        "cluster.lease_requests",
        med(&|c| c.scrape.route("/cluster/lease").1),
    );
    out.metric(
        "cluster.lease_waits",
        med(&|c| c.scrape.route("/cluster/lease").1 - shards),
    );
    out.metric("cluster.lease_server_s", med(&route("/cluster/lease")));
    out.metric("cluster.result_server_s", med(&route("/cluster/result")));
    out.metric(
        "cluster.checkpoints",
        med(&|c| c.scrape.sum("sift_cluster_coord_checkpoints_total", &[])),
    );
    out.metric(
        "cluster.shard_skew",
        med(&|c| {
            let max = c.shards_done.iter().copied().max().unwrap_or(0) as f64;
            max * c.shards_done.len() as f64 / shards
        }),
    );
    out.metric(
        "cluster.unattributed_s",
        med(&|c| {
            let busy = c.scrape.sum("sift_http_request_seconds_sum", &[]);
            c.shards_done.len() as f64 * c.wall_s - busy
        }),
    );
    eprintln!("# sharded: {} crawls, median {study_s:.3}s", crawls.len());
    Ok(())
}

/// Builds repetition `rep`'s world, binds its trends server and computes
/// the in-process reference study.
fn setup(
    seed: u64,
    rep: usize,
    params: &StudyParams,
) -> Result<(ServerHandle, StudyResult), String> {
    let service = world::world(seed, rep);
    let trends = Server::new(trends_router(Arc::clone(&service)))
        .with_workers(SERVER_WORKERS)
        .bind("127.0.0.1:0")
        .map_err(|e| format!("bind trends server: {e}"))?;
    let reference =
        run_study(service.as_ref(), params).map_err(|e| format!("reference study failed: {e}"))?;
    Ok((trends, reference))
}

/// One sharded crawl against a fresh durable coordinator.
fn crawl(
    params: &StudyParams,
    trends: &ServerHandle,
    n: usize,
    reference: &StudyResult,
) -> Result<Crawl, String> {
    let dir = work_dir(&format!("sharded-{n}"));
    let (coord, recovery) = Coordinator::durable(params.clone(), ClusterConfig::default(), &dir)
        .map_err(|e| format!("durable coordinator: {e}"))?;
    if recovery.had_state {
        return Err("coordinator WAL directory was not fresh".into());
    }
    let coord = Arc::new(coord);
    let server = Server::new(cluster_router(&coord))
        .with_workers(SERVER_WORKERS)
        .bind("127.0.0.1:0")
        .map_err(|e| format!("bind coordinator: {e}"))?;

    let before = Scrape::now();
    let cpu0 = probe::cpu_seconds();
    let t0 = Instant::now();
    let workers: Vec<_> = (0..world::nproc())
        .map(|i| {
            spawn_worker(
                format!("bench-worker-{i}"),
                server.addr(),
                trends.addr(),
                params.clone(),
                WorkerConfig::default(),
            )
        })
        .collect();
    let result = coord.wait_result(Duration::from_secs(120));
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = probe::cpu_seconds() - cpu0;
    if result.is_err() {
        // A failed run never tells the workers it is over.
        workers.iter().for_each(WorkerHandle::stop);
    }
    let shards_done = workers.into_iter().map(|w| w.join().shards_done).collect();
    let scrape = Scrape::now().since(&before);
    server.shutdown();
    remove_dir(&dir);

    let result = result.map_err(|e| format!("sharded study failed: {e}"))?;
    oracle::same_study(&result, reference)
        .map_err(|e| format!("sharded result differs from run_study: {e}"))?;
    eprintln!(
        "# sharded {n}: {} spikes, {} frames, {wall_s:.3}s",
        result.spikes.len(),
        result.stats.frames_requested
    );
    Ok(Crawl {
        wall_s,
        cpu_s,
        frames: result.stats.frames_requested,
        scrape,
        shards_done,
    })
}
