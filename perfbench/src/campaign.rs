//! `campaign_2rank`: distributed pure-gauge HMC (`run_campaign`) over a
//! `[2,1,1,1]` rank grid on an 8×4×4×4 global lattice, checkpointing
//! every trajectory to a fresh directory, with one deterministic rank kill
//! per campaign that forces exactly one restore. The only workload that
//! exercises halo exchange, allreduce, `MultiRank` and checkpoint I/O.
//!
//! `run_campaign` brings its rank contexts up inside each call, so every
//! campaign compiles and tunes its own kernels: that cost is part of the
//! timed operation by construction, and the warm-up proof does not apply.
//! The program's comm and checkpoint counters live in those private
//! contexts; the traced run reads them from a replica that drives the same
//! public functions (`dist_trajectory`, `checkpoint::save`/`load`) on
//! profiled contexts.

use crate::common::{
    layer_metrics, layer_probes, overhead_pct, repeatability, repeated_setup, timed, timed_ops,
    PerLayer, Run, Snapshot,
};
use crate::report::{end_to_end, median, Outcome};
use crate::tracer::Tracer;
use chroma_mini::campaign::{dist_trajectory, run_campaign, CampaignConfig, CampaignReport};
use chroma_mini::checkpoint::{self, CheckpointView};
use chroma_mini::gauge::{refresh_momenta, GaugeField};
use qdp_comm::{try_run_cluster, CommError, FaultPlan, LinkModel};
use qdp_core::multinode::MultiRank;
use qdp_core::prelude::*;
use qdp_layout::Decomposition;
use qdp_rng::{SeedableRng, StdRng};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const GLOBAL: [usize; 4] = [8, 4, 4, 4];
const RANKS: [usize; 4] = [2, 1, 1, 1];
const BETA: f64 = 5.5;
/// Small enough that trajectories are accepted (the default 0.08 rejects
/// every one at this β).
const DT: f64 = 0.02;
const N_STEPS: usize = 4;
const N_TRAJ: usize = 2;
/// Rank 1 is killed after this many comm operations: inside the second
/// trajectory, so exactly one restore replays it.
const KILL_AFTER_MESSAGES: u64 = 330;
/// Per-message receive deadline. The injected kill is detected by liveness
/// polling within ~10 ms whatever this is; at the 2 s default one campaign
/// in twenty failed on a loaded two-core host, most likely a peer stalled
/// past the deadline.
const DEADLINE_MS: u64 = 10_000;
const REPLICA_TRAJ: usize = 2;
/// A median over at least two campaigns.
const MIN_CAMPAIGNS: usize = 2;
const SETUP_REPS: usize = 5;

fn config(run: &Run, i: usize, dir: PathBuf) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(GLOBAL, RANKS, dir);
    cfg.beta = BETA;
    cfg.dt = DT;
    cfg.n_steps = N_STEPS;
    cfg.n_traj = N_TRAJ;
    cfg.seed = run.sub_seed(&format!("campaign {i}"));
    cfg.deadline_ms = Some(DEADLINE_MS);
    cfg
}

fn fault() -> FaultPlan {
    FaultPlan::new().kill_after_messages(1, KILL_AFTER_MESSAGES)
}

/// A fresh checkpoint directory inside the checkout.
fn fresh_dir(run: &Run, tag: &str) -> PathBuf {
    let dir = run.out.join(format!("ckpt-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One campaign in its own directory (removed afterwards).
fn campaign(cfg: &CampaignConfig, plan: &FaultPlan) -> Result<CampaignReport, String> {
    let res = run_campaign(cfg, plan);
    let _ = std::fs::remove_dir_all(&cfg.checkpoint_dir);
    res
}

/// The oracle of a faulted campaign: `Ok`, exactly one restore, a full
/// history of plaquettes in (0, 1).
fn check(rep: &Result<CampaignReport, String>) -> Result<&CampaignReport, String> {
    let rep = rep.as_ref().map_err(|e| format!("campaign failed: {e}"))?;
    if rep.restores != 1 {
        return Err(format!("{} restores, expected exactly 1", rep.restores));
    }
    if rep.plaquettes.len() != N_TRAJ || rep.accepts.len() != N_TRAJ {
        return Err(format!(
            "history of {} trajectories, expected {N_TRAJ}",
            rep.plaquettes.len()
        ));
    }
    if let Some(p) = rep.plaquettes.iter().find(|p| !(**p > 0.0 && **p < 1.0)) {
        return Err(format!("plaquette {p} outside (0, 1)"));
    }
    Ok(rep)
}

/// Cluster bring-up as every campaign pays it: rank contexts, `MultiRank`,
/// warm links, and one one-step distributed trajectory that compiles and
/// tunes the trajectory's kernels (halo exchange plus allreduce).
fn bring_up(run: &Run, tracer: &Tracer) -> Result<(), String> {
    let _span = tracer.span("setup", "campaign_2rank");
    let decomp = Decomposition::new(GLOBAL, RANKS);
    let results = try_run_cluster(
        2,
        LinkModel::infiniband_qdr(),
        FaultPlan::new().deadline_ms(DEADLINE_MS),
        |h| {
            let ctx = run.context(decomp.local_geometry(), DeviceConfig::k20m_ecc_on(), false);
            let mut rng = StdRng::seed_from_u64(run.sub_seed(&format!("bring-up {}", h.rank)));
            let mr = MultiRank::new(Arc::clone(&ctx), decomp.clone(), h, true, true);
            let g = GaugeField::warm(&ctx, &mut rng, 0.25);
            let p = refresh_momenta(&ctx, &mut rng);
            let mut metro = StdRng::seed_from_u64(run.sub_seed("bring-up metropolis"));
            Ok(dist_trajectory(&mr, &g, &p, BETA, DT, 1, &mut metro).map(|(plaq, _)| plaq))
        },
    );
    for r in results {
        let plaq = r
            .map_err(|e| format!("bring-up: {e}"))?
            .map_err(|e| format!("bring-up: {e}"))?;
        if !(plaq > 0.0 && plaq < 1.0) {
            return Err(format!("bring-up plaquette {plaq} outside (0, 1)"));
        }
    }
    Ok(())
}

/// Timed campaigns for the run's seconds; returns wall seconds per
/// completed trajectory and the reports.
fn campaigns(
    run: &Run,
    tracer: &Tracer,
    n: Option<usize>,
    out: &mut Outcome,
) -> (Vec<f64>, Vec<CampaignReport>) {
    let mut reports = Vec::new();
    let mut details = Vec::new();
    let mut op = |i: usize| -> Result<f64, String> {
        let cfg = config(run, i, fresh_dir(run, &format!("{i}")));
        let t0 = Instant::now();
        let rep = {
            let _span = tracer.span("campaign", "run_campaign");
            campaign(&cfg, &fault())
        };
        let wall = t0.elapsed().as_secs_f64();
        let rep = check(&rep)?;
        details.push(format!(
            "campaign {i}: {} restore, accepts {:?}, plaquettes {:?}",
            rep.restores, rep.accepts, rep.plaquettes
        ));
        reports.push(rep.clone());
        Ok(wall / N_TRAJ as f64)
    };
    let walls = match n {
        None => timed_ops(run.seconds, MIN_CAMPAIGNS, &mut op, out),
        Some(n) => timed_ops(0.0, n, &mut op, out),
    };
    for d in details {
        out.detail(d);
    }
    (walls, reports)
}

pub fn run(run: &Run, out: &mut Outcome) -> Result<(), String> {
    if run.traced() {
        return run_traced(run, out);
    }
    let off = Tracer::new(false);
    let ((), setup_s) = repeated_setup(SETUP_REPS, |_| bring_up(run, &off))?;
    let (walls, _) = campaigns(run, &off, None, out);
    let p50 = median(&walls);
    out.detail(format!(
        "campaign_traj_s = {p50:.4} s (median of {} campaigns of {N_TRAJ} trajectories); \
         setup_s = {setup_s:.4} s",
        walls.len()
    ));
    let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    end_to_end(out, setup_s, &[&ms])
}

struct ReplicaRank {
    ctx: Arc<QdpContext>,
    before: Snapshot,
    after: Snapshot,
    busy_s: f64,
    checkpoint_bytes: u64,
    /// Wall seconds in `checkpoint::save` (all writes) and `load`.
    save_s: f64,
    load_s: f64,
}

/// `REPLICA_TRAJ` checkpointed distributed trajectories and one restore on
/// profiled rank contexts: the comm, checkpoint and eval counters of the
/// campaign's code path.
fn replica(run: &Run) -> Result<Vec<ReplicaRank>, String> {
    let _span = run.tracer.span("replica", "campaign_2rank");
    let decomp = Decomposition::new(GLOBAL, RANKS);
    let dir = fresh_dir(run, "replica");
    let results = try_run_cluster(
        2,
        LinkModel::infiniband_qdr(),
        FaultPlan::new().deadline_ms(DEADLINE_MS),
        |h| {
            let (rank, n_ranks) = (h.rank, h.n_ranks);
            let ctx = run.context(decomp.local_geometry(), DeviceConfig::k20m_ecc_on(), true);
            let mut rng = StdRng::seed_from_u64(run.sub_seed(&format!("replica {rank}")));
            let mut metro = StdRng::seed_from_u64(run.sub_seed("replica metropolis"));
            let mr = MultiRank::new(Arc::clone(&ctx), decomp.clone(), h, true, true);
            let g = GaugeField::warm(&ctx, &mut rng, 0.25);
            let before = Snapshot::take(&ctx);
            let t0 = Instant::now();
            let mut body = || -> Result<[f64; 4], String> {
                let (mut bytes, mut save_s, mut plaqs, mut accs) = (0, 0.0, Vec::new(), Vec::new());
                for t in 0..REPLICA_TRAJ {
                    let p = refresh_momenta(&ctx, &mut rng);
                    let view = CheckpointView {
                        next_traj: t,
                        rng: &rng,
                        metro_rng: &metro,
                        gauge: &g.u,
                        momenta: &p,
                        history_plaq: &plaqs,
                        history_accept: &accs,
                    };
                    let (path, secs) = timed(&run.tracer, "checkpoint", "save", || {
                        checkpoint::save(&dir, rank, n_ranks, &view, ctx.telemetry())
                    });
                    let path = path.map_err(|e| format!("checkpoint write: {e}"))?;
                    save_s += secs;
                    bytes += std::fs::metadata(path).map_err(|e| e.to_string())?.len();
                    let (plaq, acc) = {
                        let _span = run.tracer.span("campaign", "dist_trajectory");
                        dist_trajectory(&mr, &g, &p, BETA, DT, N_STEPS, &mut metro)
                            .map_err(|e| e.to_string())?
                    };
                    plaqs.push(plaq);
                    accs.push(acc);
                    mr.handle.barrier().map_err(|e| e.to_string())?;
                }
                let busy_s = t0.elapsed().as_secs_f64();
                let (restored, load_s) = timed(&run.tracer, "checkpoint", "load", || {
                    checkpoint::load(&dir, rank, n_ranks, &ctx)
                });
                restored.ok_or("checkpoint did not restore")?;
                Ok([bytes as f64, busy_s, save_s, load_s])
            };
            let res = body();
            let after = Snapshot::take(&ctx);
            Ok::<_, CommError>(res.map(|[bytes, busy_s, save_s, load_s]| ReplicaRank {
                ctx: Arc::clone(&ctx),
                before,
                after,
                busy_s,
                checkpoint_bytes: bytes as u64,
                save_s,
                load_s,
            }))
        },
    );
    let _ = std::fs::remove_dir_all(&dir);
    results
        .into_iter()
        .map(|r| {
            r.map_err(|e| format!("replica: {e}"))?
                .map_err(|e| format!("replica: {e}"))
        })
        .collect()
}

/// Traced pass (spans on) then untraced pass over the same campaigns, the clean
/// reference campaign, the replica, and the layer probes.
fn run_traced(run: &Run, out: &mut Outcome) -> Result<(), String> {
    let mut pl = PerLayer::new();
    bring_up(run, &run.tracer)?;
    let (walls_t, reports_t) = campaigns(run, &run.tracer, None, out);

    // checkpoint-restore must replay bit for bit: the faulted history of
    // the first campaign equals a clean run's
    let cfg = config(run, 0, fresh_dir(run, "clean"));
    let clean = {
        let _span = run.tracer.span("campaign", "run_campaign clean");
        campaign(&cfg, &FaultPlan::new())
    };
    match (clean, reports_t.first()) {
        (Ok(c), Some(f)) if c.restores == 0 => {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            if bits(&c.plaquettes) == bits(&f.plaquettes) && c.accepts == f.accepts {
                out.detail("faulted campaign 0 is bit-identical to a clean run");
            } else {
                out.fail("faulted campaign 0 differs from a clean run", true);
            }
        }
        (c, f) => out.fail(
            format!(
                "clean reference: {:?} / faulted present: {}",
                c.err(),
                f.is_some()
            ),
            true,
        ),
    }

    let ranks = replica(run)?;
    let sum = |f: &dyn Fn(&ReplicaRank) -> f64| ranks.iter().map(f).sum::<f64>();
    let delta = |name: &str| sum(&|r| r.after.counter(name) - r.before.counter(name));
    for (metric, counter) in [
        ("comm.sends", "comm.sends"),
        ("comm.send_bytes", "comm.send_bytes"),
        ("comm.allreduces", "comm.allreduces"),
        ("comm.timeouts", "comm.timeouts"),
        ("checkpoint.writes", "checkpoint.writes"),
        ("checkpoint.restores", "checkpoint.restores"),
    ] {
        pl.set(metric, delta(counter));
    }
    let wait = |s: &Snapshot| {
        s.report
            .hists
            .get("comm.recv_wait_s")
            .map_or(0.0, |h| h.sum)
    };
    pl.set(
        "comm.recv_wait_ms",
        sum(&|r| wait(&r.after) - wait(&r.before)) * 1e3,
    );
    pl.set("checkpoint.bytes", sum(&|r| r.checkpoint_bytes as f64));
    let n_ranks = ranks.len() as f64;
    pl.set(
        "checkpoint.save_ms",
        sum(&|r| r.save_s) * 1e3 / (n_ranks * REPLICA_TRAJ as f64),
    );
    pl.set("checkpoint.load_ms", sum(&|r| r.load_s) * 1e3 / n_ranks);
    let r0 = &ranks[0];
    layer_metrics(
        &mut pl,
        &r0.ctx,
        &r0.before,
        &r0.after,
        REPLICA_TRAJ,
        r0.busy_s,
    );
    out.detail(format!(
        "comm and checkpoint counts: both ranks, {REPLICA_TRAJ} replica trajectories, one restore"
    ));
    let snapshot_json = r0.ctx.telemetry().snapshot().to_json();
    drop(ranks);

    let off = Tracer::new(false);
    let (walls_p, reports_p) = campaigns(run, &off, Some(walls_t.len()), out);
    let summary = |reps: &[CampaignReport]| {
        let mut m = BTreeMap::new();
        m.insert(
            "campaign.restores",
            reps.iter().map(|r| r.restores as f64).sum(),
        );
        m.insert(
            "campaign.accepted",
            reps.iter().flat_map(|r| &r.accepts).filter(|a| **a).count() as f64,
        );
        let fold = reps
            .iter()
            .flat_map(|r| &r.plaquettes)
            .fold(0u64, |h, p| (h ^ p.to_bits()).rotate_left(7));
        m.insert("campaign.plaquette_bits", (fold >> 32) as f64);
        m
    };
    repeatability(&mut pl, out, &summary(&reports_p), &summary(&reports_t));
    pl.set("trace.overhead_pct", overhead_pct(&walls_p, &walls_t));

    layer_probes(
        run,
        &mut pl,
        Decomposition::new(GLOBAL, RANKS).local_geometry(),
        30,
    )?;
    std::fs::write(run.out.join("campaign_2rank-telemetry.json"), snapshot_json)
        .map_err(|e| format!("write telemetry snapshot: {e}"))?;
    pl.emit(out);
    Ok(())
}
