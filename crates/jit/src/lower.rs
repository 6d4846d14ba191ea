//! Lowering parsed PTX to the register-machine program executed by the
//! simulated device ("GPU code" in the paper's Fig. 2).
//!
//! The lowering resolves virtual registers to slots in a flat per-thread
//! register file, branch labels to instruction indices, parameter names to
//! argument indices, and pre-encodes immediates in the operation's type.
//! It also extracts the static resource/traffic statistics the performance
//! model and the occupancy calculation need.
//!
//! Programs that pass the straight-line check ([`CompiledKernel::straight_line`]
//! — every generated kernel does) then have their SSA slots compacted by
//! live range, so the interpreter's warp-wide register file stays small.
//! `regs_per_thread` is computed before compaction, from the SSA program.

use qdp_ptx::inst::{BinOp, CmpOp, Inst, MathFn, Operand, SpecialReg, UnOp};
use qdp_ptx::module::Kernel;
use qdp_ptx::opt::{OptLevel, OptStats};
use qdp_ptx::types::{PtxType, Reg, RegClass};
use qdp_ptx::PtxError;
use std::collections::HashMap;

/// Errors from JIT translation.
#[derive(Debug, Clone, PartialEq)]
pub enum JitError {
    /// The PTX front end rejected the program.
    Ptx(PtxError),
    /// Structural problem found during lowering.
    Lower(String),
}

impl From<PtxError> for JitError {
    fn from(e: PtxError) -> JitError {
        JitError::Ptx(e)
    }
}

impl std::fmt::Display for JitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JitError::Ptx(e) => write!(f, "{e}"),
            JitError::Lower(m) => write!(f, "lowering failed: {m}"),
        }
    }
}

impl std::error::Error for JitError {}

/// A resolved operand: register slot or pre-encoded immediate bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AVal {
    /// Register-file slot.
    Slot(u32),
    /// Immediate, already encoded in the operation type's bit layout.
    Imm(u64),
}

/// Lowered instructions. Registers are flat slots; labels are gone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum COp {
    /// Load a kernel argument.
    LdArg {
        /// Destination slot.
        dst: u32,
        /// Argument index.
        arg: u32,
        /// Declared parameter type.
        ty: PtxType,
    },
    /// Global load.
    Ld {
        /// Value type.
        ty: PtxType,
        /// Destination slot.
        dst: u32,
        /// Slot holding the byte address.
        addr: u32,
        /// Constant byte offset.
        offset: i64,
    },
    /// Global store.
    St {
        /// Value type.
        ty: PtxType,
        /// Slot holding the byte address.
        addr: u32,
        /// Constant byte offset.
        offset: i64,
        /// Value to store.
        src: AVal,
    },
    /// Move.
    Mov {
        /// Value type.
        ty: PtxType,
        /// Destination slot.
        dst: u32,
        /// Source.
        src: AVal,
    },
    /// Read special register.
    Special {
        /// Destination slot.
        dst: u32,
        /// Which special register.
        sreg: SpecialReg,
    },
    /// Type conversion.
    Cvt {
        /// Destination type.
        dst_ty: PtxType,
        /// Source type.
        src_ty: PtxType,
        /// Destination slot.
        dst: u32,
        /// Source slot.
        src: u32,
    },
    /// Unary operation.
    Un {
        /// Operation.
        op: UnOp,
        /// Value type.
        ty: PtxType,
        /// Destination slot.
        dst: u32,
        /// Source.
        src: AVal,
    },
    /// Binary operation.
    Bin {
        /// Operation.
        op: BinOp,
        /// Value type.
        ty: PtxType,
        /// Destination slot.
        dst: u32,
        /// Left operand.
        a: AVal,
        /// Right operand.
        b: AVal,
    },
    /// Widening 32→64-bit multiply.
    MulWide {
        /// Source type (u32/s32).
        src_ty: PtxType,
        /// 64-bit destination slot.
        dst: u32,
        /// 32-bit source slot.
        a: u32,
        /// Right operand.
        b: AVal,
    },
    /// Integer multiply-add (low half).
    MadLo {
        /// Value type.
        ty: PtxType,
        /// Destination slot.
        dst: u32,
        /// Multiplicand.
        a: AVal,
        /// Multiplier.
        b: AVal,
        /// Addend.
        c: AVal,
    },
    /// Fused multiply-add.
    Fma {
        /// Value type.
        ty: PtxType,
        /// Destination slot.
        dst: u32,
        /// Multiplicand.
        a: AVal,
        /// Multiplier.
        b: AVal,
        /// Addend.
        c: AVal,
    },
    /// Set predicate from comparison.
    Setp {
        /// Comparison.
        cmp: CmpOp,
        /// Operand type.
        ty: PtxType,
        /// Predicate destination slot.
        dst: u32,
        /// Left operand.
        a: AVal,
        /// Right operand.
        b: AVal,
    },
    /// Select by predicate.
    Selp {
        /// Value type.
        ty: PtxType,
        /// Destination slot.
        dst: u32,
        /// Value if predicate is true.
        a: AVal,
        /// Value if predicate is false.
        b: AVal,
        /// Predicate slot.
        pred: u32,
    },
    /// Branch to an instruction index.
    Bra {
        /// Target instruction index.
        target: u32,
        /// Optional predicate `(slot, negated)`.
        pred: Option<(u32, bool)>,
    },
    /// Math subroutine call.
    Call {
        /// The subroutine.
        func: MathFn,
        /// Precision.
        ty: PtxType,
        /// Destination slot.
        dst: u32,
        /// Argument slots (second used only for binary functions).
        args: [u32; 2],
    },
    /// Return (thread exit).
    Ret,
}

/// A JIT-translated kernel: the executable program plus the static
/// statistics the timing and occupancy models need.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledKernel {
    /// Kernel name.
    pub name: String,
    /// Lowered program; slots compacted by live range when
    /// [`straight_line`](Self::straight_line) holds.
    pub code: Vec<COp>,
    /// Per-thread register-file size in slots.
    pub n_slots: u32,
    /// Every branch jumps forward into the `ret`-only tail and every slot
    /// read follows a write of it. Such a program runs a warp at a time
    /// (see [`crate::exec`]); any other runs one thread at a time.
    pub straight_line: bool,
    /// Number of kernel arguments with their declared types.
    pub param_types: Vec<PtxType>,
    /// 32-bit register equivalents per thread (occupancy input).
    pub regs_per_thread: u32,
    /// Global-memory bytes read per thread.
    pub read_bytes: usize,
    /// Global-memory bytes written per thread.
    pub write_bytes: usize,
    /// Floating-point operations per thread.
    pub flops: usize,
    /// Dominant memory-access width in bytes (4 = SP, 8 = DP fields).
    pub access_bytes: usize,
    /// Whether the kernel performs double-precision arithmetic.
    pub double_precision: bool,
}

fn encode_imm(ty: PtxType, op: &Operand) -> Result<u64, JitError> {
    match op {
        Operand::Reg(_) => unreachable!(),
        Operand::ImmF(v) => match ty {
            PtxType::F32 => Ok((*v as f32).to_bits() as u64),
            PtxType::F64 => Ok(v.to_bits()),
            _ => Err(JitError::Lower(format!(
                "float immediate in {} context",
                ty.suffix()
            ))),
        },
        Operand::ImmI(v) => Ok(*v as u64),
    }
}

/// Translate one kernel into a [`CompiledKernel`].
pub fn lower_kernel(kernel: &Kernel) -> Result<CompiledKernel, JitError> {
    let (mut k, scan) = lower_and_scan(kernel)?;
    if k.straight_line {
        k.n_slots = compact_slots(&mut k.code, &scan.last);
    }
    Ok(k)
}

/// Lower without slot compaction: one slot per declared virtual register,
/// banks laid out consecutively.
#[cfg(test)]
pub(crate) fn lower_ssa(kernel: &Kernel) -> Result<CompiledKernel, JitError> {
    Ok(lower_and_scan(kernel)?.0)
}

/// Lower to the SSA slot layout and scan its live ranges.
fn lower_and_scan(kernel: &Kernel) -> Result<(CompiledKernel, SlotScan), JitError> {
    kernel.validate()?;

    // Slot assignment: banks are laid out consecutively.
    let classes = RegClass::all();
    let mut bank_base = [0u32; 5];
    let mut total = 0u32;
    for (i, _c) in classes.iter().enumerate() {
        bank_base[i] = total;
        total += kernel.reg_counts[i];
    }
    let slot = |r: &Reg| -> u32 {
        let idx = classes.iter().position(|c| *c == r.class).unwrap();
        bank_base[idx] + r.id
    };
    let aval = |ty: PtxType, op: &Operand| -> Result<AVal, JitError> {
        match op {
            Operand::Reg(r) => Ok(AVal::Slot(slot(r))),
            imm => Ok(AVal::Imm(encode_imm(ty, imm)?)),
        }
    };

    // Label resolution: instruction index of each label, with labels
    // removed from the lowered stream. First pass: compute final indices.
    let mut labels: HashMap<&str, u32> = HashMap::new();
    let mut out_idx = 0u32;
    for inst in &kernel.body {
        if let Inst::Label { name } = inst {
            labels.insert(name.as_str(), out_idx);
        } else {
            out_idx += 1;
        }
    }

    let param_index = |name: &str| -> Result<u32, JitError> {
        kernel
            .params
            .iter()
            .position(|p| p.name == name)
            .map(|i| i as u32)
            .ok_or_else(|| JitError::Lower(format!("unknown param {name}")))
    };

    let mut code = Vec::with_capacity(kernel.body.len());
    let mut access_bytes = 4usize;
    let mut double_precision = false;
    for inst in &kernel.body {
        let lowered = match inst {
            Inst::Label { .. } => continue,
            Inst::LdParam { ty, dst, param } => COp::LdArg {
                dst: slot(dst),
                arg: param_index(param)?,
                ty: *ty,
            },
            Inst::LdGlobal {
                ty,
                dst,
                addr,
                offset,
            } => {
                access_bytes = access_bytes.max(ty.size_bytes());
                COp::Ld {
                    ty: *ty,
                    dst: slot(dst),
                    addr: slot(addr),
                    offset: *offset,
                }
            }
            Inst::StGlobal {
                ty,
                addr,
                offset,
                src,
            } => COp::St {
                ty: *ty,
                addr: slot(addr),
                offset: *offset,
                src: aval(*ty, src)?,
            },
            Inst::Mov { ty, dst, src } => COp::Mov {
                ty: *ty,
                dst: slot(dst),
                src: aval(*ty, src)?,
            },
            Inst::MovSpecial { dst, sreg } => COp::Special {
                dst: slot(dst),
                sreg: *sreg,
            },
            Inst::Cvt {
                dst_ty,
                src_ty,
                dst,
                src,
            } => COp::Cvt {
                dst_ty: *dst_ty,
                src_ty: *src_ty,
                dst: slot(dst),
                src: slot(src),
            },
            Inst::Unary { op, ty, dst, src } => COp::Un {
                op: *op,
                ty: *ty,
                dst: slot(dst),
                src: aval(*ty, src)?,
            },
            Inst::Binary { op, ty, dst, a, b } => COp::Bin {
                op: *op,
                ty: *ty,
                dst: slot(dst),
                a: aval(*ty, a)?,
                b: aval(*ty, b)?,
            },
            Inst::MulWide { src_ty, dst, a, b } => COp::MulWide {
                src_ty: *src_ty,
                dst: slot(dst),
                a: slot(a),
                b: aval(*src_ty, b)?,
            },
            Inst::MadLo { ty, dst, a, b, c } => COp::MadLo {
                ty: *ty,
                dst: slot(dst),
                a: aval(*ty, a)?,
                b: aval(*ty, b)?,
                c: aval(*ty, c)?,
            },
            Inst::Fma { ty, dst, a, b, c } => COp::Fma {
                ty: *ty,
                dst: slot(dst),
                a: aval(*ty, a)?,
                b: aval(*ty, b)?,
                c: aval(*ty, c)?,
            },
            Inst::Setp { cmp, ty, dst, a, b } => COp::Setp {
                cmp: *cmp,
                ty: *ty,
                dst: slot(dst),
                a: aval(*ty, a)?,
                b: aval(*ty, b)?,
            },
            Inst::Selp {
                ty,
                dst,
                a,
                b,
                pred,
            } => COp::Selp {
                ty: *ty,
                dst: slot(dst),
                a: aval(*ty, a)?,
                b: aval(*ty, b)?,
                pred: slot(pred),
            },
            Inst::Bra { target, pred } => COp::Bra {
                target: *labels
                    .get(target.as_str())
                    .ok_or_else(|| JitError::Lower(format!("undefined label {target}")))?,
                pred: pred.map(|(r, n)| (slot(&r), n)),
            },
            Inst::Call { func, ty, dst, args } => {
                let mut a = [0u32; 2];
                for (i, r) in args.iter().enumerate().take(2) {
                    a[i] = slot(r);
                }
                COp::Call {
                    func: *func,
                    ty: *ty,
                    dst: slot(dst),
                    args: a,
                }
            }
            Inst::Ret => COp::Ret,
        };
        // Track DP usage from instruction types.
        if let Inst::Fma { ty, .. }
        | Inst::Binary { ty, .. }
        | Inst::Unary { ty, .. }
        | Inst::LdGlobal { ty, .. } = inst
        {
            if *ty == PtxType::F64 {
                double_precision = true;
            }
        }
        code.push(lowered);
    }

    // Register allocation: the virtual registers are SSA-like (every value
    // gets a fresh one), but the driver JIT allocates physical registers by
    // live range. Estimate the per-thread register footprint as the peak
    // number of simultaneously live 32-bit equivalents.
    let slot_width = |slot: u32| -> u32 {
        // find the bank containing this slot
        let mut w = 1u32;
        for (i, c) in classes.iter().enumerate() {
            let lo = bank_base[i];
            let hi = lo + kernel.reg_counts[i];
            if slot >= lo && slot < hi {
                w = match c.width_bytes() {
                    8 => 2,
                    _ => 1,
                };
                break;
            }
        }
        w
    };
    let scan = scan_slots(&code, total);
    let allocated_regs = estimate_register_pressure(&scan, code.len(), &slot_width);

    let (read_bytes, write_bytes) = kernel.thread_bytes();
    let k = CompiledKernel {
        name: kernel.name.clone(),
        straight_line: scan.straight_line,
        code,
        n_slots: total,
        param_types: kernel.params.iter().map(|p| p.ty).collect(),
        regs_per_thread: allocated_regs,
        read_bytes,
        write_bytes,
        flops: kernel.thread_flops(),
        access_bytes,
        double_precision,
    };
    Ok((k, scan))
}

/// Visit every slot operand of `op`, passing `true` for the slot it writes
/// and `false` for each slot it reads. A unary call's unused second
/// argument is not visited.
fn for_each_slot(op: &mut COp, mut f: impl FnMut(&mut u32, bool)) {
    fn read(v: &mut AVal, f: &mut impl FnMut(&mut u32, bool)) {
        if let AVal::Slot(s) = v {
            f(s, false);
        }
    }
    match op {
        COp::LdArg { dst, .. } | COp::Special { dst, .. } => f(dst, true),
        COp::Ld { dst, addr, .. } => {
            f(dst, true);
            f(addr, false);
        }
        COp::St { addr, src, .. } => {
            f(addr, false);
            read(src, &mut f);
        }
        COp::Mov { dst, src, .. } | COp::Un { dst, src, .. } => {
            f(dst, true);
            read(src, &mut f);
        }
        COp::Cvt { dst, src, .. } => {
            f(dst, true);
            f(src, false);
        }
        COp::Bin { dst, a, b, .. } | COp::Setp { dst, a, b, .. } => {
            f(dst, true);
            read(a, &mut f);
            read(b, &mut f);
        }
        COp::MulWide { dst, a, b, .. } => {
            f(dst, true);
            f(a, false);
            read(b, &mut f);
        }
        COp::MadLo { dst, a, b, c, .. } | COp::Fma { dst, a, b, c, .. } => {
            f(dst, true);
            read(a, &mut f);
            read(b, &mut f);
            read(c, &mut f);
        }
        COp::Selp {
            dst, a, b, pred, ..
        } => {
            f(dst, true);
            read(a, &mut f);
            read(b, &mut f);
            f(pred, false);
        }
        COp::Bra { pred, .. } => {
            if let Some((p, _)) = pred {
                f(p, false);
            }
        }
        COp::Call { func, dst, args, .. } => {
            f(dst, true);
            f(&mut args[0], false);
            if func.arity() == 2 {
                f(&mut args[1], false);
            }
        }
        COp::Ret => {}
    }
}

/// What one walk over an SSA program learns about its slots.
struct SlotScan {
    /// Index of the op that first mentions each slot (`usize::MAX` if none).
    first: Vec<usize>,
    /// Index of the op that last mentions each slot (0 if none).
    last: Vec<usize>,
    /// The straight-line check: no `ret` before the `ret`-only tail, every
    /// branch jumps forward into that tail, and every slot read follows a
    /// write of the slot. Such a program can run a warp in lockstep — a
    /// taken branch only retires lanes — and its slots can share storage
    /// by live range.
    straight_line: bool,
}

/// Walk the program once, collecting live ranges (first to last mention,
/// defs and uses together) and deciding the straight-line check. A unary
/// call's unused second argument slot counts as a mention, as it always
/// has, so that `regs_per_thread` stays what it was.
fn scan_slots(code: &[COp], n_slots: u32) -> SlotScan {
    let n = n_slots as usize;
    let tail = code.len() - code.iter().rev().take_while(|op| matches!(op, COp::Ret)).count();
    let mut first = vec![usize::MAX; n];
    let mut last = vec![0usize; n];
    let mut written = vec![false; n];
    let mut straight_line = true;
    for (i, op) in code.iter().enumerate() {
        match op {
            COp::Ret if i < tail => straight_line = false,
            COp::Bra { target, .. } if (*target as usize) < tail => straight_line = false,
            _ => {}
        }
        let mut op = *op;
        let mut def = None;
        let mut mention = |s: usize| {
            if first[s] == usize::MAX {
                first[s] = i;
            }
            last[s] = i;
        };
        for_each_slot(&mut op, |s, is_def| {
            let s = *s as usize;
            mention(s);
            if is_def {
                def = Some(s);
            } else {
                straight_line &= written[s];
            }
        });
        if let COp::Call { func, args, .. } = op {
            if func.arity() != 2 {
                mention(args[1] as usize);
            }
        }
        if let Some(s) = def {
            written[s] = true;
        }
    }
    SlotScan {
        first,
        last,
        straight_line,
    }
}

/// Rename the slots of a straight-line program by a linear scan over live
/// ranges, so values whose ranges do not overlap share a slot. Returns the
/// new slot count. A value's range runs from its first write to `last`,
/// its last mention; the slots of values that die at an op are released
/// *after* that op's destination is assigned, so no op writes a slot it
/// also reads from another value. (A slot whose last mention is a unary
/// call's unused argument is never released: conservative, and at most
/// one slot.)
fn compact_slots(code: &mut [COp], last: &[usize]) -> u32 {
    const UNSET: u32 = u32::MAX;
    let mut map = vec![UNSET; last.len()];
    let mut free: Vec<u32> = Vec::new();
    let mut used = 0u32;
    let mut dying = Vec::new();
    for (i, op) in code.iter_mut().enumerate() {
        for_each_slot(op, |s, _| {
            let old = *s as usize;
            if map[old] == UNSET {
                map[old] = free.pop().unwrap_or_else(|| {
                    used += 1;
                    used - 1
                });
            }
            if last[old] == i {
                dying.push(old);
            }
            *s = map[old];
        });
        for old in dying.drain(..) {
            if map[old] != UNSET {
                free.push(map[old]);
                map[old] = UNSET;
            }
        }
    }
    used
}

/// Peak register pressure: maximum simultaneously live 32-bit register
/// equivalents, with live ranges approximated as first-to-last mention
/// (exact for the straight-line streaming kernels the generator emits).
fn estimate_register_pressure(
    scan: &SlotScan,
    n_ops: usize,
    slot_width: &dyn Fn(u32) -> u32,
) -> u32 {
    // sweep: +width at first mention, -width after last mention
    let mut delta = vec![0i64; n_ops + 1];
    for (s, (&first, &last)) in scan.first.iter().zip(&scan.last).enumerate() {
        if first == usize::MAX {
            continue;
        }
        let w = slot_width(s as u32) as i64;
        delta[first] += w;
        delta[last + 1] -= w;
    }
    let mut live = 0i64;
    let mut peak = 0i64;
    for d in delta {
        live += d;
        peak = peak.max(live);
    }
    // A floor of 16 mirrors the ABI/reserved registers of real kernels; a
    // ceiling of 255 mirrors the hardware limit (the driver spills to
    // local memory beyond it).
    (peak as u32).clamp(16, 255)
}

/// Parse PTX text and lower every kernel. This is the "driver JIT" entry
/// point used by [`crate::cache::KernelCache`].
pub fn compile_ptx(text: &str) -> Result<Vec<CompiledKernel>, JitError> {
    let module = qdp_ptx::parse::parse_module(text)?;
    module.validate()?;
    module.kernels.iter().map(lower_kernel).collect()
}

/// Like [`compile_ptx`], but runs the PTX peephole optimizer between
/// validation and lowering (the slot the paper's driver JIT optimizes in,
/// Fig. 2). Returns the per-pass statistics alongside the kernels.
///
/// `optimize_module` never produces an invalid module — kernels violating
/// the optimizer's preconditions are skipped and post-optimization
/// validation failures revert the kernel — so the result always lowers
/// whenever the unoptimized text would.
pub fn compile_ptx_opt(
    text: &str,
    level: OptLevel,
) -> Result<(Vec<CompiledKernel>, OptStats), JitError> {
    let mut module = qdp_ptx::parse::parse_module(text)?;
    module.validate()?;
    let stats = qdp_ptx::opt::optimize_module(&mut module, level);
    let kernels: Vec<CompiledKernel> = module
        .kernels
        .iter()
        .map(lower_kernel)
        .collect::<Result<_, _>>()?;
    Ok((kernels, stats))
}

/// Like [`compile_ptx_opt`], but also returns the PTX text of the module
/// *after* the optimizer ran — the artifact the persistent kernel store
/// serializes, so a warm process can lower the already-optimized program
/// verbatim without repeating any optimizer pass. At [`OptLevel::None`]
/// the input text is returned unchanged (verbatim contract: nothing is
/// re-emitted or normalised).
pub fn compile_ptx_opt_emit(
    text: &str,
    level: OptLevel,
) -> Result<(Vec<CompiledKernel>, OptStats, String), JitError> {
    let mut module = qdp_ptx::parse::parse_module(text)?;
    module.validate()?;
    let stats = qdp_ptx::opt::optimize_module(&mut module, level);
    let optimized_text = if level == OptLevel::None {
        text.to_string()
    } else {
        qdp_ptx::emit::emit_module(&module)
    };
    let kernels: Vec<CompiledKernel> = module
        .kernels
        .iter()
        .map(lower_kernel)
        .collect::<Result<_, _>>()?;
    Ok((kernels, stats, optimized_text))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdp_ptx::emit::emit_module;
    use qdp_ptx::module::{KernelBuilder, Module};

    fn build_simple() -> Kernel {
        let mut b = KernelBuilder::new("k");
        let p = b.param("x", PtxType::U64);
        let n = b.param("n", PtxType::U32);
        let tid = b.global_tid();
        let nn = b.ld_param(&n, PtxType::U32);
        let exit = b.guard(tid, nn);
        let base = b.ld_param(&p, PtxType::U64);
        let off = b.fresh(RegClass::B64);
        b.push(Inst::MulWide {
            src_ty: PtxType::U32,
            dst: off,
            a: tid,
            b: Operand::ImmI(8),
        });
        let addr = b.bin(BinOp::Add, PtxType::U64, base.into(), off.into());
        let v = b.fresh(RegClass::F64);
        b.push(Inst::LdGlobal {
            ty: PtxType::F64,
            dst: v,
            addr,
            offset: 0,
        });
        let w = b.bin(BinOp::Mul, PtxType::F64, v.into(), Operand::ImmF(3.0));
        b.push(Inst::StGlobal {
            ty: PtxType::F64,
            addr,
            offset: 0,
            src: w.into(),
        });
        b.bind_label(&exit);
        b.finish()
    }

    #[test]
    fn lowering_resolves_labels_and_params() {
        let k = build_simple();
        let c = lower_kernel(&k).unwrap();
        // Exactly one branch; its target must be the index of the Ret's
        // predecessor region (the label is removed).
        let bra_targets: Vec<u32> = c
            .code
            .iter()
            .filter_map(|op| match op {
                COp::Bra { target, .. } => Some(*target),
                _ => None,
            })
            .collect();
        assert_eq!(bra_targets.len(), 1);
        let t = bra_targets[0] as usize;
        assert!(matches!(c.code[t], COp::Ret));
        assert_eq!(c.param_types.len(), 2);
        assert!(c.double_precision);
        assert_eq!(c.access_bytes, 8);
        assert_eq!(c.read_bytes, 8);
        assert_eq!(c.write_bytes, 8);
        assert_eq!(c.flops, 1);
    }

    #[test]
    fn compile_from_text_roundtrip() {
        let module = Module::with_kernel(build_simple());
        let text = emit_module(&module);
        let compiled = compile_ptx(&text).unwrap();
        assert_eq!(compiled.len(), 1);
        assert_eq!(compiled[0], lower_kernel(&module.kernels[0]).unwrap());
    }

    #[test]
    fn float_imm_encoded_in_op_type() {
        let k = build_simple();
        let c = lower_kernel(&k).unwrap();
        let has_f64_imm = c.code.iter().any(|op| {
            matches!(op, COp::Bin { b: AVal::Imm(bits), ty: PtxType::F64, .. }
                     if f64::from_bits(*bits) == 3.0)
        });
        assert!(has_f64_imm);
    }

    #[test]
    fn rejects_bad_ptx_text() {
        assert!(compile_ptx("garbage").is_err());
    }

    /// The snapshot kernels of the code generator with their
    /// `regs_per_thread` before slot compaction existed.
    fn snapshot_kernels() -> Vec<(Kernel, u32)> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/tests/snapshots");
        [
            ("axpy_fermion_dp", 105),
            ("fused_axpy_norm2_dp", 109),
            ("fused_force_accum_dp", 89),
            ("shift_cm_even_dp", 43),
            ("su3_mul_dp", 87),
            ("wilson_dslash_dp", 209),
            ("wilson_dslash_sp", 113),
        ]
        .iter()
        .map(|(name, regs)| {
            let text = std::fs::read_to_string(dir.join(format!("{name}.ptx"))).unwrap();
            let mut m = qdp_ptx::parse::parse_module(&text).unwrap();
            (m.kernels.remove(0), *regs)
        })
        .collect()
    }

    /// Slot compaction may share a slot between values, but never between
    /// two that are live at once. Walking the compacted program next to the
    /// SSA one, every read must find the SSA value it reads there.
    fn assert_compaction_sound(kernel: &Kernel) -> CompiledKernel {
        let ssa = lower_ssa(kernel).unwrap();
        let c = lower_kernel(kernel).unwrap();
        assert!(c.straight_line, "{}", kernel.name);
        assert!(c.n_slots <= kernel.reg_counts.iter().sum::<u32>());
        assert_eq!(c.regs_per_thread, ssa.regs_per_thread);
        assert_eq!(c.code.len(), ssa.code.len(), "compaction only renames slots");
        let mut holder = vec![u32::MAX; c.n_slots as usize];
        for (i, (s_op, c_op)) in ssa.code.iter().zip(&c.code).enumerate() {
            let (mut s_op, mut c_op) = (*s_op, *c_op);
            let mut s_slots = Vec::new();
            for_each_slot(&mut s_op, |s, def| s_slots.push((*s, def)));
            let mut c_slots = Vec::new();
            for_each_slot(&mut c_op, |s, _| c_slots.push(*s));
            for (&(s, def), &c) in s_slots.iter().zip(&c_slots) {
                if !def {
                    assert_eq!(holder[c as usize], s, "op {i} reads a clobbered slot");
                }
            }
            for (&(s, def), &c) in s_slots.iter().zip(&c_slots) {
                if def {
                    holder[c as usize] = s;
                }
            }
            // renaming the slots back gives the SSA op
            let mut it = s_slots.iter();
            for_each_slot(&mut c_op, |s, _| *s = it.next().unwrap().0);
            assert_eq!(c_op, s_op, "op {i}");
        }
        c
    }

    #[test]
    fn compacted_slots_never_hold_two_live_values() {
        assert_compaction_sound(&build_simple());
        for (kernel, regs) in snapshot_kernels() {
            let c = assert_compaction_sound(&kernel);
            assert_eq!(c.regs_per_thread, regs, "{}: regs_per_thread moved", kernel.name);
        }
    }

    #[test]
    fn compaction_shrinks_the_dslash_register_file() {
        let (dslash, _) = snapshot_kernels().remove(5);
        let ssa = lower_ssa(&dslash).unwrap();
        let c = lower_kernel(&dslash).unwrap();
        assert_eq!(ssa.n_slots, 3543);
        // 105 slots today: a 32-lane warp's register file of ~27 kB, where
        // the SSA layout needs ~900 kB
        assert!(c.n_slots * 32 * 8 <= 64 * 1024, "{} slots", c.n_slots);
    }
}
