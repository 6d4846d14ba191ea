//! `hmc_4x4`: gauge plus two-flavour Wilson HMC on 4⁴ (β 5.5, dt 0.04,
//! four leapfrog steps, mass 0.5, CG to 1e-8) on a device whose memory is
//! below the working set, so the software cache pages and spills — the
//! gauge-generation workload. Many distinct kernels on 256-site launches
//! make fixed per-launch cost a large share of wall time.

use crate::common::{
    layer_metrics, layer_probes, overhead_pct, repeatability, repeated_setup, timed, timed_ops,
    warm_up, PerLayer, Run, Snapshot, WarmupProof,
};
use crate::report::{end_to_end, median, Outcome};
use crate::tracer::Tracer;
use chroma_mini::gauge::GaugeField;
use chroma_mini::hmc::{GaugeAction, Hmc, HmcReport, Integrator, TwoFlavorWilson};
use qdp_core::prelude::*;
use qdp_rng::StdRng;
use std::sync::Arc;

const L: usize = 4;
const BETA: f64 = 5.5;
const DT: f64 = 0.04;
const N_STEPS: usize = 4;
const MASS: f64 = 0.5;
const TOL: f64 = 1e-8;
const MAX_ITERS: usize = 1000;
const WARM_EPS: f64 = 0.25;
/// Device memory below the trajectory's working set.
const DEVICE_BYTES: usize = 600_000;
const SU3_LIMIT: f64 = 1e-12;
const SETUP_REPS: usize = 3;
/// A median over at least three trajectories.
const MIN_TRAJECTORIES: usize = 3;

fn hmc(tol: f64, n_steps: usize) -> Hmc {
    Hmc {
        dt: DT,
        n_steps,
        integrator: Integrator::Leapfrog,
        terms: vec![
            Box::new(GaugeAction { beta: BETA }),
            Box::new(TwoFlavorWilson::new(MASS, tol, MAX_ITERS)),
        ],
    }
}

struct Setup {
    ctx: Arc<QdpContext>,
    g: GaugeField,
    names: Vec<String>,
}

/// Context, gauge field, and warm-up trajectories (one step, loose CG) on
/// a scratch configuration until a whole trajectory runs warm.
fn setup(
    run: &Run,
    tracer: &Tracer,
    profiled: bool,
    known: Option<&[String]>,
) -> Result<Setup, String> {
    let _span = tracer.span("setup", "hmc_4x4");
    let ctx = run.context(
        Geometry::symmetric(L),
        DeviceConfig::tiny(DEVICE_BYTES),
        profiled,
    );
    let g = GaugeField::warm(&ctx, &mut run.rng("gauge"), WARM_EPS);
    let scratch = GaugeField::warm(&ctx, &mut run.rng("warm-up gauge"), WARM_EPS);
    let mut rng = run.rng("warm-up");
    let mut warm = hmc(1e-1, 1);
    let (names, _) = warm_up(&ctx, known, 24, || {
        warm.trajectory(&scratch, &mut rng)
            .map(drop)
            .map_err(|e| e.to_string())
    })?;
    Ok(Setup { ctx, g, names })
}

/// One timed trajectory, then its checks (outside the timing): finite ΔH,
/// plaquette in (0, 1), links on SU(3).
fn trajectory(
    tracer: &Tracer,
    s: &Setup,
    h: &mut Hmc,
    rng: &mut StdRng,
    reports: &mut Vec<HmcReport>,
) -> Result<f64, String> {
    let (rep, wall) = timed(tracer, "hmc", "trajectory", || h.trajectory(&s.g, rng));
    let rep = rep.map_err(|e| e.to_string())?;
    let su3 = s.g.max_su3_violation();
    reports.push(rep);
    if !rep.delta_h.is_finite() {
        return Err(format!("non-finite dH ({rep:?})"));
    }
    if !(rep.plaquette > 0.0 && rep.plaquette < 1.0) {
        return Err(format!("plaquette {} outside (0, 1)", rep.plaquette));
    }
    if su3.is_nan() || su3 >= SU3_LIMIT {
        return Err(format!("SU(3) violation {su3:e} >= {SU3_LIMIT:e}"));
    }
    Ok(wall)
}

fn traj_loop(
    run: &Run,
    tracer: &Tracer,
    s: &Setup,
    n: Option<usize>,
    out: &mut Outcome,
) -> (Vec<f64>, Vec<HmcReport>) {
    let mut rng = run.rng("hmc");
    let mut h = hmc(TOL, N_STEPS);
    let mut reports = Vec::new();
    let proof = WarmupProof::start(&s.ctx, &s.names);
    let mut op = |_| trajectory(tracer, s, &mut h, &mut rng, &mut reports);
    let walls = match n {
        None => timed_ops(run.seconds, MIN_TRAJECTORIES, &mut op, out),
        Some(n) => timed_ops(0.0, n, &mut op, out),
    };
    proof.check(&s.ctx, &s.names, out);
    for (i, r) in reports.iter().enumerate() {
        out.detail(format!(
            "trajectory {i}: dH {:.3e}, accepted {}, plaquette {:.6}",
            r.delta_h, r.accepted, r.plaquette
        ));
    }
    (walls, reports)
}

pub fn run(run: &Run, out: &mut Outcome) -> Result<(), String> {
    if run.traced() {
        return run_traced(run, out);
    }
    let off = Tracer::new(false);
    let mut names: Option<Vec<String>> = None;
    let (s, setup_s) = repeated_setup(SETUP_REPS, |r| {
        let s = setup(run, &off, r == 0, names.as_deref())?;
        names = Some(s.names.clone());
        Ok(s)
    })?;
    let (walls, _) = traj_loop(run, &off, &s, None, out);
    let p50 = median(&walls);
    out.detail(format!(
        "hmc_traj_s = {p50:.4} s (median of {} trajectories); setup_s = {setup_s:.4} s",
        walls.len()
    ));
    let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    end_to_end(out, setup_s, &[&ms])
}

/// Traced pass (profiled, spans on) then an untraced pass over the same
/// inputs: the counts of the two are compared, their walls give the
/// tracing overhead.
fn run_traced(run: &Run, out: &mut Outcome) -> Result<(), String> {
    let mut pl = PerLayer::new();
    let traced = setup(run, &run.tracer, true, None)?;
    let before = Snapshot::take(&traced.ctx);
    let (walls_t, reports_t) = traj_loop(run, &run.tracer, &traced, None, out);
    let after = Snapshot::take(&traced.ctx);
    let n = walls_t.len().max(1) as f64;
    let busy: f64 = walls_t.iter().sum();
    layer_metrics(&mut pl, &traced.ctx, &before, &after, walls_t.len(), busy);
    pl.set(
        "hmc.cg_iters",
        (after.counter("solver.cg_iters") - before.counter("solver.cg_iters")) / n,
    );
    let (step_wall, steps) = after.span_wall("hmc/md_step");
    let (step_wall0, steps0) = before.span_wall("hmc/md_step");
    if steps > steps0 {
        pl.set(
            "hmc.md_step_ms",
            (step_wall - step_wall0) * 1e3 / (steps - steps0) as f64,
        );
    }
    let accepted = |reps: &[HmcReport]| reps.iter().filter(|r| r.accepted).count() as f64;
    pl.set("hmc.accept_rate", accepted(&reports_t) / n);
    let mut counts_t = after.sim_counts(&before);
    counts_t.insert("hmc.accepted", accepted(&reports_t));
    let snapshot_json = traced.ctx.telemetry().snapshot().to_json();
    let names = traced.names.clone();
    drop(traced);

    let off = Tracer::new(false);
    let plain = setup(run, &off, false, Some(&names))?;
    let before = Snapshot::take(&plain.ctx);
    let (walls_p, reports_p) = traj_loop(run, &off, &plain, Some(walls_t.len()), out);
    let after = Snapshot::take(&plain.ctx);
    let mut counts_p = after.sim_counts(&before);
    counts_p.insert("hmc.accepted", accepted(&reports_p));
    drop(plain);
    repeatability(&mut pl, out, &counts_p, &counts_t);
    pl.set("trace.overhead_pct", overhead_pct(&walls_p, &walls_t));

    layer_probes(run, &mut pl, Geometry::symmetric(L), 30)?;
    std::fs::write(run.out.join("hmc_4x4-telemetry.json"), snapshot_json)
        .map_err(|e| format!("write telemetry snapshot: {e}"))?;
    pl.emit(out);
    Ok(())
}
