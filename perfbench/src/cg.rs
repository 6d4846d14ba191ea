//! `cg_8x4`: CG on M†M to relative residual 1e-8 on an 8⁴ warm gauge
//! field (Wilson mass 0.3), a fresh seeded Gaussian source per solve —
//! the paper's analysis workload (§VIII-C). Host time is nearly all kernel
//! interpretation plus reductions.

use crate::common::{
    layer_metrics, layer_probes, overhead_pct, repeatability, repeated_setup, timed, timed_ops,
    warm_up, PerLayer, Run, Snapshot, WarmupProof,
};
use crate::report::{end_to_end, median, Outcome};
use crate::tracer::Tracer;
use chroma_mini::gauge::{gaussian_fermion, GaugeField};
use chroma_mini::solver::cg_solve;
use chroma_mini::WilsonDirac;
use qdp_core::prelude::*;
use qdp_types::{Fermion, Gamma};
use quda_sim::{host_cg, host_wilson, HostGauge};
use std::sync::Arc;

const L: usize = 8;
const MASS: f64 = 0.3;
const TOL: f64 = 1e-8;
const MAX_ITERS: usize = 1000;
const WARM_EPS: f64 = 0.25;
/// The recursive residual reaches TOL; the recomputed one may drift a
/// little above it in floating point.
const TRUE_RESID_LIMIT: f64 = 10.0 * TOL;
const SETUP_REPS: usize = 3;
/// A median over at least two solves, even when one solve takes most of
/// the run's seconds.
const MIN_SOLVES: usize = 2;

struct Setup {
    ctx: Arc<QdpContext>,
    g: GaugeField,
    m: WilsonDirac,
    names: Vec<String>,
}

/// Context, gauge field, operator, and warm-up solves (one CG iteration
/// each, fresh sources) until a solve runs warm.
fn setup(
    run: &Run,
    tracer: &Tracer,
    profiled: bool,
    known: Option<&[String]>,
) -> Result<Setup, String> {
    let _span = tracer.span("setup", "cg_8x4");
    let ctx = run.context(
        Geometry::symmetric(L),
        DeviceConfig::k20x_ecc_off(),
        profiled,
    );
    let g = GaugeField::warm(&ctx, &mut run.rng("gauge"), WARM_EPS);
    let m = WilsonDirac::new(&g, MASS, None);
    let mut rng = run.rng("warm-up sources");
    let (names, _) = warm_up(&ctx, known, 16, || {
        let b = gaussian_fermion(&ctx, &mut rng);
        let x = LatticeFermion::<f64>::new(&ctx);
        cg_solve(&m, &x, &b, TOL, 1)
            .map(drop)
            .map_err(|e| e.to_string())
    })?;
    Ok(Setup { ctx, g, m, names })
}

/// The oracle's independent host operator: `M†M = γ₅ M γ₅ M` built from
/// the hand-written host Wilson operator.
struct Oracle {
    hg: HostGauge,
}

impl Oracle {
    fn new(s: &Setup) -> Oracle {
        let vol = s.ctx.geometry().vol();
        Oracle {
            hg: HostGauge {
                links: (0..4)
                    .map(|mu| (0..vol).map(|i| s.g.u[mu].get(i)).collect())
                    .collect(),
                geom: s.ctx.geometry().clone(),
            },
        }
    }

    fn normal(&self, v: &[Fermion<f64>]) -> Vec<Fermion<f64>> {
        let g5 = Gamma::gamma5();
        let mv: Vec<_> = host_wilson(&self.hg, MASS, v)
            .iter()
            .map(|f| g5.apply_fermion(f))
            .collect();
        host_wilson(&self.hg, MASS, &mv)
            .iter()
            .map(|f| g5.apply_fermion(f))
            .collect()
    }
}

/// Per-solve record for the traced comparison.
struct Solved {
    iters: usize,
    host_cg_s: f64,
}

/// One timed solve on a fresh source, then (untimed) its checks:
/// convergence, the true residual ‖b − M†M x‖/‖b‖ recomputed with the
/// independent host operator, and the host CG's iteration count within ±1.
fn solve(
    tracer: &Tracer,
    s: &Setup,
    oracle: &Oracle,
    b: LatticeFermion<f64>,
    solved: &mut Vec<Solved>,
) -> Result<f64, String> {
    let x = LatticeFermion::<f64>::new(&s.ctx);
    let (rep, wall) = timed(tracer, "solver", "cg_solve", || {
        cg_solve(&s.m, &x, &b, TOL, MAX_ITERS)
    });
    let rep = rep.map_err(|e| e.to_string())?;

    let _span = tracer.span("oracle", "check solve");
    let vol = s.ctx.geometry().vol();
    let hb: Vec<_> = (0..vol).map(|i| b.get(i)).collect();
    let hx: Vec<_> = (0..vol).map(|i| x.get(i)).collect();
    let ax = oracle.normal(&hx);
    let (mut num, mut den) = (0.0, 0.0);
    for (b, a) in hb.iter().zip(&ax) {
        for sp in 0..4 {
            for c in 0..3 {
                num += (b.0[sp].0[c] - a.0[sp].0[c]).norm_sqr();
                den += b.0[sp].0[c].norm_sqr();
            }
        }
    }
    let true_resid = (num / den).sqrt();
    let ((_, host_iters), host_cg_s) = timed(tracer, "baseline", "host_cg", || {
        host_cg(&oracle.hg, MASS, &hb, TOL, MAX_ITERS)
    });
    solved.push(Solved {
        iters: rep.iters,
        host_cg_s,
    });
    if !rep.converged {
        return Err(format!("not converged ({rep:?})"));
    }
    if true_resid.is_nan() || true_resid > TRUE_RESID_LIMIT {
        return Err(format!(
            "true residual {true_resid:e} > {TRUE_RESID_LIMIT:e}"
        ));
    }
    if host_iters.abs_diff(rep.iters) > 1 {
        return Err(format!("{} iterations vs host CG {host_iters}", rep.iters));
    }
    Ok(wall)
}

/// `n` solves, or as many as fit in the run's seconds when `n` is None.
fn solve_loop(
    run: &Run,
    tracer: &Tracer,
    s: &Setup,
    n: Option<usize>,
    out: &mut Outcome,
) -> (Vec<f64>, Vec<Solved>) {
    let oracle = Oracle::new(s);
    let mut rng = run.rng("sources");
    let mut solved = Vec::new();
    let proof = WarmupProof::start(&s.ctx, &s.names);
    let mut op = |_| {
        let b = gaussian_fermion(&s.ctx, &mut rng);
        solve(tracer, s, &oracle, b, &mut solved)
    };
    let walls = match n {
        None => timed_ops(run.seconds, MIN_SOLVES, &mut op, out),
        Some(n) => timed_ops(0.0, n, &mut op, out),
    };
    proof.check(&s.ctx, &s.names, out);
    for (i, sv) in solved.iter().enumerate() {
        out.detail(format!("solve {i}: {} iterations", sv.iters));
    }
    (walls, solved)
}

pub fn run(run: &Run, out: &mut Outcome) -> Result<(), String> {
    if run.traced() {
        return run_traced(run, out);
    }
    let off = Tracer::new(false);
    // the first set-up is profiled to learn the kernel names the later
    // ones are checked against
    let mut names: Option<Vec<String>> = None;
    let (s, setup_s) = repeated_setup(SETUP_REPS, |r| {
        let s = setup(run, &off, r == 0, names.as_deref())?;
        names = Some(s.names.clone());
        Ok(s)
    })?;
    let (walls, _) = solve_loop(run, &off, &s, None, out);
    let p50 = median(&walls);
    out.detail(format!(
        "cg_solve_s = {p50:.4} s (median of {} solves); setup_s = {setup_s:.4} s",
        walls.len()
    ));
    let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    end_to_end(out, setup_s, &[&ms])
}

/// Traced pass (profiled, spans on) then an untraced pass over the same
/// sources: the counts of the two are compared, their walls give the
/// tracing overhead.
fn run_traced(run: &Run, out: &mut Outcome) -> Result<(), String> {
    let mut pl = PerLayer::new();
    let traced = setup(run, &run.tracer, true, None)?;
    let before = Snapshot::take(&traced.ctx);
    let (walls_t, solved_t) = solve_loop(run, &run.tracer, &traced, None, out);
    let after = Snapshot::take(&traced.ctx);
    let busy: f64 = walls_t.iter().sum();
    layer_metrics(&mut pl, &traced.ctx, &before, &after, walls_t.len(), busy);
    let iters = after.counter("solver.cg_iters") - before.counter("solver.cg_iters");
    pl.set("solver.cg_iters", iters / walls_t.len().max(1) as f64);
    if iters > 0.0 {
        pl.set("solver.iter_ms", busy * 1e3 / iters);
    }
    let mut counts_t = after.sim_counts(&before);
    counts_t.insert(
        "solver.iters",
        solved_t.iter().map(|s| s.iters as f64).sum(),
    );
    let snapshot_json = traced.ctx.telemetry().snapshot().to_json();
    let names = traced.names.clone();
    drop(traced);

    let off = Tracer::new(false);
    let plain = setup(run, &off, false, Some(&names))?;
    let before = Snapshot::take(&plain.ctx);
    let (walls_p, solved_p) = solve_loop(run, &off, &plain, Some(walls_t.len()), out);
    let after = Snapshot::take(&plain.ctx);
    let mut counts_p = after.sim_counts(&before);
    counts_p.insert(
        "solver.iters",
        solved_p.iter().map(|s| s.iters as f64).sum(),
    );
    drop(plain);
    repeatability(&mut pl, out, &counts_p, &counts_t);
    pl.set("trace.overhead_pct", overhead_pct(&walls_p, &walls_t));
    let host: Vec<f64> = solved_t
        .iter()
        .chain(&solved_p)
        .map(|s| s.host_cg_s)
        .collect();
    pl.set("baseline.host_cg_solve_s", median(&host));
    out.detail(format!(
        "baseline.host_cg_solve_s = {:.4} s beside cg_solve_s = {:.4} s",
        median(&host),
        median(&walls_p)
    ));

    layer_probes(run, &mut pl, Geometry::symmetric(L), 15)?;
    std::fs::write(run.out.join("cg_8x4-telemetry.json"), snapshot_json)
        .map_err(|e| format!("write telemetry snapshot: {e}"))?;
    pl.emit(out);
    Ok(())
}
