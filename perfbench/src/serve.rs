//! `serve_mix_4x4`: open-loop Poisson arrivals at one fixed offered rate
//! into `qdp-serve` — eight tenants on 4⁴, two workers, a mix of 50 %
//! plaquette, 30 % CG solve (tol 1e-6, ≤ 100 iterations) and 20 % HMC
//! trajectory (three steps). The only workload where queue wait, DRR
//! scheduling and locks on the shared context sit on the latency path.
//!
//! Every job is timed from its *scheduled* send instant to its completion
//! by a waiter thread of its own that only blocks in `JobTicket::wait`, so
//! a stall delays the jobs behind it and out-of-order completions are not
//! inflated. Rejected and failed jobs count as failed operations.

use crate::common::{
    layer_metrics, layer_probes, repeatability, repeated_setup, warm_up, PerLayer, Run, Snapshot,
    WarmupProof,
};
use crate::report::{end_to_end, highest_supported_percentile, median, percentile, Outcome};
use crate::tracer::Tracer;
use qdp_core::prelude::*;
use qdp_rng::{Rng, SeedableRng, StdRng};
use qdp_serve::{JobResult, JobSpec, ServeConfig, ServeError, Server, TenantSpec};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const TENANTS: usize = 8;
const WORKERS: usize = 2;
/// Offered load, jobs per second: about 65 % of the mix's saturated
/// capacity on a two-core host.
const RATE: f64 = 3.5;
const CG_TOL: f64 = 1e-6;
const HMC_STEPS: u32 = 3;
/// Seed of the arrival trace, the same in every run: with a Poisson trace
/// drawn per run seed, the median latency jumped between the plaquette and
/// the HMC latency clusters from run to run (IQR/median 1.6 over five
/// seeds on a two-core host, against 0.12 with one trace).
const ARRIVAL_SEED: u64 = 0x5e7e_0001;
/// Latency limit on a job; a job that misses it, fails or is refused
/// counts against `serve.limit_miss_frac`.
const LIMIT_MS: f64 = 3000.0;
const KINDS: [&str; 3] = ["plaquette", "cg_solve", "hmc"];
const SETUP_REPS: usize = 3;

fn spec(kind: usize, seed: u64, hmc_steps: u32) -> JobSpec {
    match kind {
        0 => JobSpec::Plaquette,
        1 => JobSpec::CgSolve {
            mass: 0.4,
            seed,
            tol: CG_TOL,
            max_iters: 100,
        },
        _ => JobSpec::HmcTrajectory {
            beta: 5.5,
            dt: 0.02,
            n_steps: hmc_steps,
        },
    }
}

fn kind_index(spec: &JobSpec) -> usize {
    KINDS
        .iter()
        .position(|k| *k == spec.kind())
        .expect("known job kind")
}

/// The job's answer is physically sensible.
fn validate(res: &JobResult) -> Result<(), String> {
    match res {
        JobResult::Plaquette(p) if *p > 0.0 && *p < 1.0 => Ok(()),
        JobResult::CgSolve(r) if r.converged && r.residual <= CG_TOL => Ok(()),
        JobResult::Hmc(r) if r.delta_h.is_finite() && r.plaquette > 0.0 && r.plaquette < 1.0 => {
            Ok(())
        }
        other => Err(format!("invalid result {other:?}")),
    }
}

/// A started server and the kernels its warm-up compiled.
struct Served {
    server: Server,
    names: Vec<String>,
}

/// Bring a server up and run rounds of two jobs of each kind (both workers
/// busy; one-step trajectories launch the same kernels as three-step
/// ones) until a round runs warm. The serving layer always records its
/// telemetry, so the kernel names come from its profile.
fn setup(run: &Run, tracer: &Tracer) -> Result<Served, String> {
    let _span = tracer.span("setup", "serve_mix_4x4");
    let mut cfg = ServeConfig::new(run.qdp_config());
    cfg.geometry = Geometry::symmetric(4);
    cfg.workers = WORKERS;
    cfg.queue_cap = 64;
    // admission control never refuses this load
    cfg.tenant_cap = 16;
    let tenants: Vec<TenantSpec> = (0..TENANTS)
        .map(|t| TenantSpec::new(format!("t{t}"), run.sub_seed(&format!("tenant {t}"))))
        .collect();
    let server = Server::start(&cfg, &tenants);
    let mut round = 0;
    let (names, _) = warm_up(server.context(), None, 24, || {
        round += 1;
        let tickets = (0..2 * KINDS.len())
            .map(|j| {
                server.submit(
                    (round + j) % TENANTS,
                    spec(j % KINDS.len(), round as u64, 1),
                )
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("warm-up submit: {e}"))?;
        for t in tickets {
            validate(&t.wait().map_err(|e| format!("warm-up job: {e}"))?)?;
        }
        Ok(())
    })?;
    Ok(Served { server, names })
}

struct Job {
    kind: usize,
    latency_ms: f64,
    lag_ms: f64,
    ok: bool,
}

/// The open-loop session. The arrival trace (times, tenants, kinds, CG
/// sources) is the same in every run; the run's seed varies the tenants'
/// gauge configurations and trajectory streams.
fn session(run: &Run, tracer: &Tracer, server: &Server, out: &mut Outcome) -> Vec<Job> {
    let mut rng = StdRng::seed_from_u64(ARRIVAL_SEED);
    // A Poisson process given its count: RATE × seconds arrivals at
    // uniform random times. Unconditioned, the trace's own count offered
    // 4.2 rather than 3.5 jobs/s over 25 s, with a burst at the end.
    let n = (RATE * run.seconds).round() as usize;
    let mut times: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * run.seconds).collect();
    times.sort_by(f64::total_cmp);
    // the mix exactly, in random order
    let mut kinds: Vec<usize> = (0..n)
        .map(|i| match i * 10 / n.max(1) {
            0..=4 => 0,
            5..=7 => 1,
            _ => 2,
        })
        .collect();
    for i in (1..n).rev() {
        kinds.swap(i, rng.random_range(0..i as u64 + 1) as usize);
    }
    let schedule: Vec<(f64, usize, JobSpec)> = times
        .into_iter()
        .zip(kinds)
        .map(|(t, kind)| {
            let tenant = rng.random_range(0..TENANTS as u64) as usize;
            (t, tenant, spec(kind, rng.random::<u64>(), HMC_STEPS))
        })
        .collect();
    let jobs = Mutex::new(Vec::with_capacity(schedule.len()));
    let errors = Mutex::new(Vec::new());
    let (jobs_ref, errors_ref) = (&jobs, &errors);
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|sc| {
        for (id, (at, tenant, job)) in schedule.into_iter().enumerate() {
            let due = start + Duration::from_secs_f64(at);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let lag_ms = Instant::now().duration_since(due).as_secs_f64() * 1e3;
            let kind = kind_index(&job);
            let record = move |ok: bool, done: Instant, err: Option<String>| {
                let latency_ms = done.duration_since(due).as_secs_f64() * 1e3;
                tracer.record("serve", KINDS[kind], due, done, Some(id as u64));
                jobs_ref.lock().expect("jobs lock").push(Job {
                    kind,
                    latency_ms,
                    lag_ms,
                    ok,
                });
                if let Some(e) = err {
                    errors_ref
                        .lock()
                        .expect("errors lock")
                        .push(format!("job {id}: {e}"));
                }
            };
            let submitted = {
                let _span = tracer.request_span("serve", "submit", Some(id as u64));
                server.submit(tenant, job)
            };
            match submitted {
                Ok(ticket) => {
                    sc.spawn(move || {
                        let res: Result<JobResult, ServeError> = ticket.wait();
                        let done = Instant::now();
                        let checked = res.map_err(|e| e.to_string()).and_then(|r| validate(&r));
                        record(checked.is_ok(), done, checked.err());
                    });
                }
                Err(e) => record(false, Instant::now(), Some(format!("refused: {e}"))),
            }
        }
    });
    for e in errors.into_inner().expect("errors lock") {
        out.fail(e, false);
    }
    let jobs = jobs.into_inner().expect("jobs lock");
    out.attempted += jobs.len() as u64;
    out.failed += jobs.iter().filter(|j| !j.ok).count() as u64;
    jobs
}

fn latencies(jobs: &[Job], kind: Option<usize>) -> Vec<f64> {
    jobs.iter()
        .filter(|j| j.ok && kind.is_none_or(|k| j.kind == k))
        .map(|j| j.latency_ms)
        .collect()
}

/// One measured session on a set-up server: snapshots around it and the
/// warm-up proof.
fn measured(
    run: &Run,
    tracer: &Tracer,
    served: &Served,
    out: &mut Outcome,
) -> (Vec<Job>, Snapshot, Snapshot) {
    let (server, ctx) = (&served.server, served.server.context());
    let before = Snapshot::take(ctx);
    let proof = WarmupProof::start(ctx, &served.names);
    let jobs = session(run, tracer, server, out);
    server.drain();
    proof.check(ctx, &served.names, out);
    let after = Snapshot::take(ctx);
    let lat = latencies(&jobs, None);
    let service: f64 = KINDS
        .iter()
        .map(|k| {
            after.span_wall(&format!("serve/{k}")).0 - before.span_wall(&format!("serve/{k}")).0
        })
        .sum();
    out.detail(format!(
        "{} jobs offered at {RATE} jobs/s over {} s; utilisation {:.0} % of {WORKERS} workers; \
         highest percentile with >= 10 samples beyond it: {:?}",
        jobs.len(),
        run.seconds,
        service / (WORKERS as f64 * run.seconds) * 100.0,
        highest_supported_percentile(lat.len()),
    ));
    (jobs, before, after)
}

pub fn run(run: &Run, out: &mut Outcome) -> Result<(), String> {
    if run.traced() {
        return run_traced(run, out);
    }
    let off = Tracer::new(false);
    let (served, setup_s) = repeated_setup(SETUP_REPS, |_| setup(run, &off))?;
    let (jobs, _, _) = measured(run, &off, &served, out);
    served.server.shutdown();
    let lat = latencies(&jobs, None);
    let (p50, p95) = (median(&lat), percentile(&lat, 95.0));
    out.detail(format!(
        "serve_p50_ms = {p50:.2} ms, serve_p95_ms = {p95:.2} ms ({} jobs); setup_s = {setup_s:.4} s",
        lat.len()
    ));
    let by_kind: Vec<Vec<f64>> = (0..KINDS.len())
        .map(|k| latencies(&jobs, Some(k)))
        .collect();
    for (kind, l) in KINDS.iter().zip(&by_kind) {
        out.detail(format!(
            "{kind}: p25 {:.1} p50 {:.1} p75 {:.1} ms ({} jobs)",
            percentile(l, 25.0),
            median(l),
            percentile(l, 75.0),
            l.len()
        ));
    }
    let by_kind: Vec<&[f64]> = by_kind.iter().map(Vec::as_slice).collect();
    end_to_end(out, setup_s, &by_kind)
}

/// Traced pass with the benchmark's spans, then an untraced pass, over the same
/// arrival schedule (the serving layer records its telemetry always).
fn run_traced(run: &Run, out: &mut Outcome) -> Result<(), String> {
    let mut pl = PerLayer::new();
    let served = setup(run, &run.tracer)?;
    let server = &served.server;
    let rejected0 = server.stats().rejected;
    let (jobs, before, after) = measured(run, &run.tracer, &served, out);
    let stats = server.stats();
    let n = jobs.len().max(1) as f64;
    let mut busy = 0.0;
    let mut service_n = 0;
    for (k, kind) in KINDS.iter().enumerate() {
        let key = format!("serve/{kind}");
        let (w1, c1) = after.span_wall(&key);
        let (w0, c0) = before.span_wall(&key);
        busy += w1 - w0;
        service_n += c1 - c0;
        if c1 > c0 {
            let name = [
                "serve.service_ms.plaquette",
                "serve.service_ms.cg_solve",
                "serve.service_ms.hmc",
            ][k];
            pl.set(name, (w1 - w0) * 1e3 / (c1 - c0) as f64);
        }
        let lat = latencies(&jobs, Some(k));
        let name = [
            "serve.latency_p50_ms.plaquette",
            "serve.latency_p50_ms.cg_solve",
            "serve.latency_p50_ms.hmc",
        ][k];
        pl.set(name, median(&lat));
    }
    let hist = |s: &Snapshot| {
        s.report
            .hists
            .get("serve.job_latency_ms")
            .map_or((0.0, 0), |h| (h.sum, h.count))
    };
    let ((l1, n1), (l0, n0)) = (hist(&after), hist(&before));
    if n1 > n0 && service_n > 0 {
        // server-side latency (submit to reply) minus service time
        pl.set(
            "serve.queue_wait_ms",
            ((l1 - l0) - busy * 1e3) / (n1 - n0) as f64,
        );
    }
    pl.set(
        "serve.latency_p95_ms",
        percentile(&latencies(&jobs, None), 95.0),
    );
    let missed = jobs
        .iter()
        .filter(|j| !j.ok || j.latency_ms > LIMIT_MS)
        .count();
    pl.set("serve.limit_miss_frac", missed as f64 / n);
    pl.set("serve.rejected", (stats.rejected - rejected0) as f64);
    pl.set("serve.streams_used", stats.streams_used as f64);
    let lags: Vec<f64> = jobs.iter().map(|j| j.lag_ms).collect();
    pl.set("serve.gen_lag_p99_ms", percentile(&lags, 99.0));
    layer_metrics(&mut pl, server.context(), &before, &after, jobs.len(), busy);
    let mut counts_t = after.sim_counts(&before);
    counts_t.insert("serve.completed_ok", latencies(&jobs, None).len() as f64);
    let snapshot_json = server.context().telemetry().snapshot().to_json();
    server.shutdown();
    drop(served);

    let off = Tracer::new(false);
    let served = setup(run, &off)?;
    let (jobs_p, before, after) = measured(run, &off, &served, out);
    served.server.shutdown();
    let mut counts_p = after.sim_counts(&before);
    counts_p.insert("serve.completed_ok", latencies(&jobs_p, None).len() as f64);
    repeatability(&mut pl, out, &counts_p, &counts_t);
    let (pa, pb) = (
        median(&latencies(&jobs_p, None)),
        median(&latencies(&jobs, None)),
    );
    if pa > 0.0 {
        pl.set("trace.overhead_pct", (pb / pa - 1.0) * 100.0);
    }

    layer_probes(run, &mut pl, Geometry::symmetric(4), 30)?;
    std::fs::write(run.out.join("serve_mix_4x4-telemetry.json"), snapshot_json)
        .map_err(|e| format!("write telemetry snapshot: {e}"))?;
    pl.emit(out);
    Ok(())
}
