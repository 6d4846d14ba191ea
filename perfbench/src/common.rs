//! Pieces every workload shares: run settings, context construction, the
//! warm-up and its proof, the timing loop, per-layer snapshots and the
//! stand-alone layer probes.

use crate::report::{mean, median, Outcome};
use crate::tracer::Tracer;
use chroma_mini::fermion::wilson_hopping_expr;
use chroma_mini::gauge::{gaussian_fermion, GaugeField};
use qdp_core::prelude::*;
use qdp_gpu_sim::DeviceStats;
use qdp_rng::{SeedableRng, StdRng};
use qdp_telemetry::{ProfileReport, Telemetry};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Settings of one benchmark run.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    /// Scratch directory inside the checkout (flight dumps, checkpoints,
    /// traces).
    pub out: PathBuf,
}

impl Run {
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// A generator for one named input stream of this run's seed.
    pub fn rng(&self, stream: &str) -> StdRng {
        StdRng::seed_from_u64(self.sub_seed(stream))
    }

    pub fn sub_seed(&self, stream: &str) -> u64 {
        // FNV-1a over the stream name, mixed with the workload seed
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for b in stream.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        h
    }

    /// Runtime configuration for every context the benchmark builds: the
    /// defaults, with flight-recorder dumps kept inside the checkout.
    pub fn qdp_config(&self) -> QdpConfig {
        let mut cfg = QdpConfig::new();
        cfg.telemetry.flight_dir = Some(self.out.clone());
        cfg
    }

    /// A context on `device`; `profiled` turns the program's telemetry
    /// counters and spans on.
    pub fn context(&self, geom: Geometry, device: DeviceConfig, profiled: bool) -> Arc<QdpContext> {
        let cfg = self.qdp_config();
        let tel = Arc::new(Telemetry::with_config(&cfg.telemetry));
        if profiled {
            tel.enable();
        }
        QdpContext::builder(geom)
            .device(device)
            .config(cfg)
            .telemetry(tel)
            .build()
    }
}

/// Names of the kernels a profiled context has compiled.
pub fn kernel_names(ctx: &QdpContext) -> Vec<String> {
    ctx.profile_report()
        .kernels
        .into_iter()
        .map(|k| k.name)
        .collect()
}

/// Payload launches the tuner has used as probes (plus failed launches)
/// over `names`: it moves exactly when a trial launch happens.
fn tune_probes(ctx: &QdpContext, names: &[String]) -> u64 {
    names
        .iter()
        .filter_map(|n| ctx.tuner().state(n))
        .map(|s| (s.probes + s.launch_failures) as u64)
        .sum()
}

/// Repeat `op` until one round of it runs warm: no JIT miss, no trial
/// launch, no new kernel. Without `known` names the context must be
/// profiled; the kernel names found are returned with the rounds taken.
pub fn warm_up(
    ctx: &QdpContext,
    known: Option<&[String]>,
    max_rounds: usize,
    mut op: impl FnMut() -> Result<(), String>,
) -> Result<(Vec<String>, usize), String> {
    let names = || known.map_or_else(|| kernel_names(ctx), <[String]>::to_vec);
    for round in 1..=max_rounds {
        let proof = WarmupProof::start(ctx, &names());
        op()?;
        let names = names();
        if proof.cold_work(ctx, &names) == (0, 0, 0) {
            return Ok((names, round));
        }
    }
    Err(format!(
        "warm-up: still compiling or tuning after {max_rounds} rounds"
    ))
}

/// Evidence that timed operations neither compiled nor tuned: JIT misses,
/// tuner probes and the kernel count must not move across them.
pub struct WarmupProof {
    misses: u64,
    probes: u64,
    kernels: usize,
}

impl WarmupProof {
    pub fn start(ctx: &QdpContext, names: &[String]) -> WarmupProof {
        WarmupProof {
            misses: ctx.kernels().stats().misses,
            probes: tune_probes(ctx, names),
            kernels: ctx.kernels().len(),
        }
    }

    /// `(JIT misses, trial launches, new kernels)` since `start`.
    fn cold_work(&self, ctx: &QdpContext, names: &[String]) -> (u64, u64, usize) {
        (
            ctx.kernels().stats().misses - self.misses,
            tune_probes(ctx, names) - self.probes,
            ctx.kernels().len() - self.kernels,
        )
    }

    pub fn check(&self, ctx: &QdpContext, names: &[String], out: &mut Outcome) {
        match self.cold_work(ctx, names) {
            (0, 0, 0) => {
                out.detail("warm-up proof: 0 JIT misses, 0 trial launches in timed operations")
            }
            (misses, trials, new_kernels) => out.fail(
                format!(
                    "warm-up proof: timed operations made {misses} JIT misses, \
                     {trials} trial launches, {new_kernels} new kernels"
                ),
                false,
            ),
        }
    }
}

/// Run operations for `seconds`: another one starts only while it is
/// expected (median duration so far) to end in time; at least `min_ops`
/// run. `op(i)` returns the value it measured (e.g. its wall seconds).
pub fn timed_ops(
    seconds: f64,
    min_ops: usize,
    mut op: impl FnMut(usize) -> Result<f64, String>,
    out: &mut Outcome,
) -> Vec<f64> {
    let t0 = Instant::now();
    let mut values = Vec::new();
    let mut durations = Vec::new();
    for i in 0.. {
        let expected = if durations.is_empty() {
            0.0
        } else {
            median(&durations)
        };
        if i >= min_ops && t0.elapsed().as_secs_f64() + expected > seconds {
            break;
        }
        out.attempted += 1;
        let start = Instant::now();
        match op(i) {
            Ok(v) => values.push(v),
            Err(e) => out.fail(format!("operation {i}: {e}"), true),
        }
        durations.push(start.elapsed().as_secs_f64());
    }
    values
}

/// Median of repeated set-ups: each call of `setup` builds everything
/// afresh and returns its result; the last one is kept.
pub fn repeated_setup<T>(
    reps: usize,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for r in 0..reps {
        drop(last.take()); // free the previous set-up before building the next
        let t0 = Instant::now();
        let v = setup(r)?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    Ok((last.expect("reps >= 1"), median(&times)))
}

/// Counters of a context at one instant (telemetry need not be on for
/// the device, cache and JIT parts).
pub struct Snapshot {
    pub report: ProfileReport,
    pub device: DeviceStats,
    pub cache: qdp_cache::CacheStats,
    pub jit: qdp_jit::KernelCacheStats,
}

impl Snapshot {
    pub fn take(ctx: &QdpContext) -> Snapshot {
        Snapshot {
            report: ctx.profile_report(),
            device: ctx.device().stats(),
            cache: ctx.cache().stats(),
            jit: ctx.kernels().stats(),
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.report.counter(name) as f64
    }

    pub fn span_wall(&self, key: &str) -> (f64, u64) {
        self.report
            .span(key)
            .map(|s| (s.wall, s.count))
            .unwrap_or((0.0, 0))
    }

    fn kernel_sum(&self, f: impl Fn(&qdp_telemetry::KernelRow) -> u64) -> f64 {
        self.report.kernels.iter().map(f).sum::<u64>() as f64
    }

    /// Simulated-clock and paging counts that must repeat exactly for a
    /// deterministic workload (available with telemetry off).
    pub fn sim_counts(&self, before: &Snapshot) -> BTreeMap<&'static str, f64> {
        let d = |a: u64, b: u64| (a - b) as f64;
        BTreeMap::from([
            (
                "device.launches",
                d(self.device.launches, before.device.launches),
            ),
            (
                "device.kernel_time_s",
                self.device.kernel_time - before.device.kernel_time,
            ),
            (
                "device.transfer_time_s",
                self.device.transfer_time - before.device.transfer_time,
            ),
            (
                "device.h2d_bytes",
                d(self.device.h2d_bytes, before.device.h2d_bytes),
            ),
            (
                "device.d2h_bytes",
                d(self.device.d2h_bytes, before.device.d2h_bytes),
            ),
            ("cache.hits", d(self.cache.hits, before.cache.hits)),
            (
                "cache.page_ins",
                d(self.cache.page_ins, before.cache.page_ins),
            ),
            (
                "cache.page_outs",
                d(self.cache.page_outs, before.cache.page_outs),
            ),
            ("cache.spills", d(self.cache.spills, before.cache.spills)),
            (
                "cache.spill_bytes",
                d(self.cache.spill_bytes, before.cache.spill_bytes),
            ),
        ])
    }
}

/// Per-layer metrics of the timed operations of a profiled context,
/// normalised per operation; `busy_s` is the wall time the operations took
/// (summed). Compile, codegen and tuning counts cover the context's whole
/// life (its set-up), since timed operations add none.
pub fn layer_metrics(
    pl: &mut PerLayer,
    ctx: &QdpContext,
    before: &Snapshot,
    after: &Snapshot,
    n_ops: usize,
    busy_s: f64,
) {
    let n = n_ops.max(1) as f64;
    let launches = after.kernel_sum(|k| k.launches) - before.kernel_sum(|k| k.launches);
    pl.set("eval.launches", launches / n);
    if launches > 0.0 {
        pl.set("eval.us_per_launch", busy_s * 1e6 / launches);
    }
    let eval_wall = ["eval/eval", "eval/eval_fused"]
        .iter()
        .map(|k| after.span_wall(k).0 - before.span_wall(k).0)
        .sum::<f64>();
    if busy_s > 0.0 {
        pl.set("eval.wall_share", eval_wall / busy_s);
    }
    pl.set("codegen.kernels", ctx.kernels().len() as f64);
    pl.set("codegen.ms", after.span_wall("eval/codegen").0 * 1e3);
    for c in ["fuse.groups", "fuse.launches_saved", "fuse.bailouts"] {
        pl.set(c, (after.counter(c) - before.counter(c)) / n);
    }
    pl.set("jit.misses", after.jit.misses as f64);
    pl.set("jit.hits", after.jit.hits as f64);
    pl.set("jit.compile_ms", after.jit.wall_compile_time * 1e3);
    pl.set(
        "tune.trial_launches",
        after.kernel_sum(|k| k.trial_launches),
    );
    pl.set("launch.failures", after.kernel_sum(|k| k.launch_failures));

    let sim_s = (after.device.kernel_time + after.device.transfer_time)
        - (before.device.kernel_time + before.device.transfer_time);
    pl.set("device.sim_ms", sim_s * 1e3 / n);
    if sim_s > 0.0 {
        pl.set("exec.host_s_per_sim_ms", busy_s / (sim_s * 1e3));
    }
    let bytes = after.kernel_sum(|k| k.bytes) - before.kernel_sum(|k| k.bytes);
    pl.set("device.model_bytes", bytes / n);
    pl.set(
        "device.model_flops",
        (after.kernel_sum(|k| k.flops) - before.kernel_sum(|k| k.flops)) / n,
    );
    let ktime = after.device.kernel_time - before.device.kernel_time;
    if ktime > 0.0 {
        pl.set("device.sim_bandwidth_gbps", bytes / ktime / 1e9);
    }

    let c = |f: fn(&qdp_cache::CacheStats) -> u64| (f(&after.cache) - f(&before.cache)) as f64;
    let (hits, page_ins) = (c(|s| s.hits), c(|s| s.page_ins));
    pl.set("cache.hits", hits / n);
    pl.set("cache.page_ins", page_ins / n);
    pl.set("cache.page_outs", c(|s| s.page_outs) / n);
    pl.set("cache.spills", c(|s| s.spills) / n);
    pl.set("cache.spill_bytes", c(|s| s.spill_bytes) / n);
    if hits + page_ins > 0.0 {
        pl.set("cache.hit_ratio", hits / (hits + page_ins));
    }
}

/// Compare counts of two passes over identical inputs; every count that
/// differs is reported as not exact.
pub fn repeatability(
    pl: &mut PerLayer,
    out: &mut Outcome,
    a: &BTreeMap<&'static str, f64>,
    b: &BTreeMap<&'static str, f64>,
) {
    let mut inexact = 0;
    for (k, va) in a {
        let vb = b.get(k).copied().unwrap_or(f64::NAN);
        let exact = va.to_bits() == vb.to_bits();
        if !exact {
            inexact += 1;
        }
        out.detail(format!(
            "count {k}: {va} vs {vb} -> {}",
            if exact { "exact" } else { "NOT exact" }
        ));
    }
    pl.set("counts.checked", a.len() as f64);
    pl.set("counts.inexact", inexact as f64);
}

/// The per-layer metrics every traced run reports, with units. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("solver.cg_iters", "count"),
    ("solver.iter_ms", "ms"),
    ("hmc.cg_iters", "count"),
    ("hmc.md_step_ms", "ms"),
    ("hmc.accept_rate", "ratio"),
    ("eval.launches", "count"),
    ("eval.us_per_launch", "us"),
    ("eval.fixed_us", "us"),
    ("eval.wall_share", "ratio"),
    ("codegen.kernels", "count"),
    ("codegen.ms", "ms"),
    ("fuse.groups", "count"),
    ("fuse.launches_saved", "count"),
    ("fuse.bailouts", "count"),
    ("jit.misses", "count"),
    ("jit.hits", "count"),
    ("jit.compile_ms", "ms"),
    ("tune.trial_launches", "count"),
    ("launch.failures", "count"),
    ("exec.dslash_ns_per_site", "ns"),
    ("exec.axpy_ns_per_site", "ns"),
    ("exec.host_s_per_sim_ms", "s/ms"),
    ("reduce.norm2_us", "us"),
    ("cache.hits", "count"),
    ("cache.page_ins", "count"),
    ("cache.page_outs", "count"),
    ("cache.spills", "count"),
    ("cache.spill_bytes", "B"),
    ("cache.hit_ratio", "ratio"),
    ("cache.assure_us", "us"),
    ("device.sim_ms", "ms"),
    ("device.model_bytes", "B"),
    ("device.model_flops", "flop"),
    ("device.sim_bandwidth_gbps", "GB/s"),
    ("comm.sends", "count"),
    ("comm.send_bytes", "B"),
    ("comm.allreduces", "count"),
    ("comm.recv_wait_ms", "ms"),
    ("comm.timeouts", "count"),
    ("checkpoint.writes", "count"),
    ("checkpoint.bytes", "B"),
    ("checkpoint.restores", "count"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.load_ms", "ms"),
    ("serve.service_ms.plaquette", "ms"),
    ("serve.service_ms.cg_solve", "ms"),
    ("serve.service_ms.hmc", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.latency_p50_ms.plaquette", "ms"),
    ("serve.latency_p50_ms.cg_solve", "ms"),
    ("serve.latency_p50_ms.hmc", "ms"),
    ("serve.latency_p95_ms", "ms"),
    ("serve.limit_miss_frac", "ratio"),
    ("serve.rejected", "count"),
    ("serve.streams_used", "count"),
    ("serve.gen_lag_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("baseline.host_cg_solve_s", "s"),
    ("counts.checked", "count"),
    ("counts.inexact", "count"),
];

/// The per-layer values of one traced run, all of [`PER_LAYER`].
pub struct PerLayer(BTreeMap<&'static str, f64>);

impl PerLayer {
    pub fn new() -> PerLayer {
        PerLayer(PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect())
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = v;
    }

    /// Move every value into the outcome, in [`PER_LAYER`] order.
    pub fn emit(self, out: &mut Outcome) {
        for (name, unit) in PER_LAYER {
            out.metric(*name, self.0[name], unit);
        }
    }
}

/// Wall-clock cost of single layers, timed from outside on a fresh
/// context over `geom`: the hopping term and an axpy per site, a norm²,
/// a cache lookup of a resident field, and the fixed cost of one launch
/// (axpy on 2⁴). Medians over `reps` calls after a warm-up that compiles
/// and tunes every probe kernel.
pub fn layer_probes(
    run: &Run,
    pl: &mut PerLayer,
    geom: Geometry,
    reps: usize,
) -> Result<(), String> {
    let e = |e: CoreError| e.to_string();
    let ctx = run.context(geom.clone(), DeviceConfig::k20x_ecc_off(), false);
    let vol = geom.vol() as f64;
    let mut rng = run.rng("probe");
    let g = GaugeField::warm(&ctx, &mut rng, 0.25);
    let psi = gaussian_fermion(&ctx, &mut rng);
    let y = gaussian_fermion(&ctx, &mut rng);
    let h = LatticeFermion::<f64>::new(&ctx);
    let time = |f: &mut dyn FnMut() -> Result<(), CoreError>| -> Result<f64, String> {
        for _ in 0..8 {
            f().map_err(e)?;
        }
        let mut ts = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t0 = Instant::now();
            f().map_err(e)?;
            ts.push(t0.elapsed().as_secs_f64());
        }
        Ok(median(&ts))
    };
    let _s = run.tracer.span("probe", "dslash");
    let t = time(&mut || h.assign(wilson_hopping_expr(&g.u, psi.q())).map(drop))?;
    pl.set("exec.dslash_ns_per_site", t * 1e9 / vol);
    drop(_s);
    let _s = run.tracer.span("probe", "axpy");
    let t = time(&mut || y.assign(y.q() + 0.5 * psi.q()).map(drop))?;
    pl.set("exec.axpy_ns_per_site", t * 1e9 / vol);
    drop(_s);
    let _s = run.tracer.span("probe", "norm2");
    let t = time(&mut || psi.norm2().map(drop))?;
    pl.set("reduce.norm2_us", t * 1e6);
    drop(_s);
    let _s = run.tracer.span("probe", "assure_on_device");
    let ids = [psi.id()];
    let t = time(&mut || {
        ctx.cache()
            .assure_on_device(&ids)
            .map(drop)
            .map_err(|err| CoreError::Msg(err.to_string()))
    })?;
    pl.set("cache.assure_us", t * 1e6);
    drop(_s);

    let _s = run.tracer.span("probe", "fixed_launch_2^4");
    let small = run.context(Geometry::symmetric(2), DeviceConfig::k20x_ecc_off(), false);
    let a = gaussian_fermion(&small, &mut rng);
    let b = gaussian_fermion(&small, &mut rng);
    let t = time(&mut || b.assign(b.q() + 0.5 * a.q()).map(drop))?;
    pl.set("eval.fixed_us", t * 1e6);
    Ok(())
}

/// Wall seconds of `f`, inside a benchmark span.
pub fn timed<T>(tracer: &Tracer, cat: &'static str, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = tracer.span(cat, name);
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// Relative overhead of the traced pass, in percent of the untraced one.
pub fn overhead_pct(untraced: &[f64], traced: &[f64]) -> f64 {
    let (a, b) = (mean(untraced), mean(traced));
    if a > 0.0 {
        (b / a - 1.0) * 100.0
    } else {
        0.0
    }
}
