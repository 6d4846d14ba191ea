//! Functional execution of compiled kernels over a thread grid.
//!
//! Thread blocks run in parallel on the host worker pool (blocks map to SMs
//! on real hardware). Within a block, a kernel that passes the lowering's
//! straight-line check — every generated kernel — runs a warp at a time:
//! each op executes for the warp's 32 lanes in lockstep over a slot-major
//! register file (`regs[slot * WARP + lane]`), so the op and its type are
//! dispatched once per warp, not once per thread. The bounds guard is an
//! active-lane list: a taken branch into the `ret`-only tail retires its
//! lanes, and a warp with all lanes active takes a full-row fast path.
//! Lockstep execution is legal for the generated streaming kernels — they
//! have "no thread block communication" (paper §VII).
//!
//! Any other program (loops, reads of never-written registers, as in
//! fuzzed or hand-built kernels) runs one thread at a time, threads of a
//! block in order, under a step limit. All arithmetic follows PTX
//! semantics for the emitted subset (IEEE-754, wrapping integer ops), and
//! both engines share the per-value helpers below.

use crate::lower::{AVal, COp, CompiledKernel};
use qdp_gpu_sim::par::parallel_for;
use qdp_gpu_sim::DeviceMemory;
use qdp_ptx::inst::{BinOp, CmpOp, MathFn, SpecialReg, UnOp};
use qdp_ptx::types::PtxType;
use std::cell::Cell;
use std::ops::Range;

/// A kernel launch argument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LaunchArg {
    /// Device pointer (byte address into the arena).
    Ptr(u64),
    /// 32-bit unsigned.
    U32(u32),
    /// 64-bit unsigned.
    U64(u64),
    /// 32-bit signed.
    S32(i32),
    /// Single-precision float.
    F32(f32),
    /// Double-precision float.
    F64(f64),
}

impl LaunchArg {
    /// Raw bit pattern as stored in a register slot.
    pub fn bits(self) -> u64 {
        match self {
            LaunchArg::Ptr(p) => p,
            LaunchArg::U32(v) => v as u64,
            LaunchArg::U64(v) => v,
            LaunchArg::S32(v) => v as i64 as u64,
            LaunchArg::F32(v) => v.to_bits() as u64,
            LaunchArg::F64(v) => v.to_bits(),
        }
    }
}

#[inline]
fn get(regs: &[u64], v: AVal) -> u64 {
    match v {
        AVal::Slot(s) => regs[s as usize],
        AVal::Imm(bits) => bits,
    }
}

#[inline]
fn f32_of(bits: u64) -> f32 {
    f32::from_bits(bits as u32)
}

#[inline]
fn f64_of(bits: u64) -> f64 {
    f64::from_bits(bits)
}

#[inline]
fn bin_f32(op: BinOp, a: f32, b: f32) -> f32 {
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
        _ => panic!("illegal float op {op:?}"),
    }
}

#[inline]
fn bin_f64(op: BinOp, a: f64, b: f64) -> f64 {
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
        _ => panic!("illegal float op {op:?}"),
    }
}

#[inline]
fn bin_int(op: BinOp, ty: PtxType, a: u64, b: u64) -> u64 {
    // Compute in 64-bit with the right signedness, then mask to width.
    let signed = matches!(ty, PtxType::S32 | PtxType::S64);
    let w32 = ty.size_bytes() == 4;
    let (sa, sb) = if w32 {
        ((a as u32 as i32) as i64, (b as u32 as i32) as i64)
    } else {
        (a as i64, b as i64)
    };
    let (ua, ub) = if w32 {
        ((a as u32) as u64, (b as u32) as u64)
    } else {
        (a, b)
    };
    let r: u64 = match op {
        BinOp::Add => ua.wrapping_add(ub),
        BinOp::Sub => ua.wrapping_sub(ub),
        BinOp::Mul => ua.wrapping_mul(ub),
        BinOp::Div => {
            if signed {
                sa.wrapping_div(sb) as u64
            } else {
                ua / ub
            }
        }
        BinOp::Rem => {
            if signed {
                sa.wrapping_rem(sb) as u64
            } else {
                ua % ub
            }
        }
        BinOp::Min => {
            if signed {
                sa.min(sb) as u64
            } else {
                ua.min(ub)
            }
        }
        BinOp::Max => {
            if signed {
                sa.max(sb) as u64
            } else {
                ua.max(ub)
            }
        }
        BinOp::And => ua & ub,
        BinOp::Or => ua | ub,
        BinOp::Xor => ua ^ ub,
        BinOp::Shl => {
            let sh = (ub & 63) as u32;
            ua.wrapping_shl(sh)
        }
        BinOp::Shr => {
            let sh = (ub & 63) as u32;
            if signed {
                (sa >> sh.min(63)) as u64
            } else {
                ua >> sh.min(63)
            }
        }
    };
    if w32 {
        r & 0xFFFF_FFFF
    } else {
        r
    }
}

/// A binary op on raw register bits, in type `ty`.
#[inline]
fn binary(op: BinOp, ty: PtxType, a: u64, b: u64) -> u64 {
    match ty {
        PtxType::F32 => bin_f32(op, f32_of(a), f32_of(b)).to_bits() as u64,
        PtxType::F64 => bin_f64(op, f64_of(a), f64_of(b)).to_bits(),
        _ => bin_int(op, ty, a, b),
    }
}

/// `mul.wide`: the full 64-bit product of two 32-bit values of type `src_ty`.
#[inline]
fn mul_wide(src_ty: PtxType, a: u64, b: u64) -> u64 {
    if src_ty == PtxType::S32 {
        ((a as u32 as i32 as i64) * (b as u32 as i32 as i64)) as u64
    } else {
        (a as u32 as u64) * (b as u32 as u64)
    }
}

#[inline]
fn cmp_values(cmp: CmpOp, ty: PtxType, a: u64, b: u64) -> bool {
    use std::cmp::Ordering;
    let ord = match ty {
        PtxType::F32 => f32_of(a).partial_cmp(&f32_of(b)),
        PtxType::F64 => f64_of(a).partial_cmp(&f64_of(b)),
        PtxType::S32 => (a as u32 as i32).partial_cmp(&(b as u32 as i32)),
        PtxType::S64 => (a as i64).partial_cmp(&(b as i64)),
        PtxType::U32 => (a as u32).partial_cmp(&(b as u32)),
        PtxType::U64 | PtxType::Pred => a.partial_cmp(&b),
    };
    match (cmp, ord) {
        (_, None) => false, // unordered (NaN) compares false for these ops
        (CmpOp::Eq, Some(o)) => o == Ordering::Equal,
        (CmpOp::Ne, Some(o)) => o != Ordering::Equal,
        (CmpOp::Lt, Some(o)) => o == Ordering::Less,
        (CmpOp::Le, Some(o)) => o != Ordering::Greater,
        (CmpOp::Gt, Some(o)) => o == Ordering::Greater,
        (CmpOp::Ge, Some(o)) => o != Ordering::Less,
    }
}

#[inline]
fn convert(dst_ty: PtxType, src_ty: PtxType, bits: u64) -> u64 {
    // Decode the source value to a canonical form, then encode.
    let as_f64: f64;
    let as_i64: i64;
    match src_ty {
        PtxType::F32 => {
            as_f64 = f32_of(bits) as f64;
            as_i64 = as_f64 as i64;
        }
        PtxType::F64 => {
            as_f64 = f64_of(bits);
            as_i64 = as_f64 as i64;
        }
        PtxType::S32 => {
            as_i64 = bits as u32 as i32 as i64;
            as_f64 = as_i64 as f64;
        }
        PtxType::S64 => {
            as_i64 = bits as i64;
            as_f64 = as_i64 as f64;
        }
        PtxType::U32 => {
            as_i64 = (bits as u32) as i64;
            as_f64 = as_i64 as f64;
        }
        PtxType::U64 | PtxType::Pred => {
            as_i64 = bits as i64;
            as_f64 = bits as f64;
        }
    }
    match dst_ty {
        PtxType::F32 => (as_f64 as f32).to_bits() as u64,
        PtxType::F64 => {
            if src_ty.is_float() {
                as_f64.to_bits()
            } else {
                as_f64.to_bits()
            }
        }
        PtxType::S32 => {
            let v = if src_ty.is_float() { as_f64 as i32 } else { as_i64 as i32 };
            v as u32 as u64
        }
        PtxType::U32 => {
            let v = if src_ty.is_float() { as_f64 as u32 } else { as_i64 as u32 };
            v as u64
        }
        PtxType::S64 => {
            let v = if src_ty.is_float() { as_f64 as i64 } else { as_i64 };
            v as u64
        }
        PtxType::U64 => {
            if src_ty.is_float() {
                as_f64 as u64
            } else {
                as_i64 as u64
            }
        }
        PtxType::Pred => u64::from(bits != 0),
    }
}

#[inline]
fn unary(op: UnOp, ty: PtxType, bits: u64) -> u64 {
    match ty {
        PtxType::F32 => {
            let v = f32_of(bits);
            let r = match op {
                UnOp::Neg => -v,
                UnOp::Abs => v.abs(),
                UnOp::Sqrt => v.sqrt(),
                UnOp::Rsqrt => 1.0 / v.sqrt(),
                UnOp::Sin => v.sin(),
                UnOp::Cos => v.cos(),
                UnOp::Lg2 => v.log2(),
                UnOp::Ex2 => v.exp2(),
                UnOp::Rcp => 1.0 / v,
                UnOp::Not => panic!("not on float"),
            };
            r.to_bits() as u64
        }
        PtxType::F64 => {
            let v = f64_of(bits);
            let r = match op {
                UnOp::Neg => -v,
                UnOp::Abs => v.abs(),
                UnOp::Sqrt => v.sqrt(),
                UnOp::Rsqrt => 1.0 / v.sqrt(),
                UnOp::Sin => v.sin(),
                UnOp::Cos => v.cos(),
                UnOp::Lg2 => v.log2(),
                UnOp::Ex2 => v.exp2(),
                UnOp::Rcp => 1.0 / v,
                UnOp::Not => panic!("not on float"),
            };
            r.to_bits()
        }
        _ => {
            let w32 = ty.size_bytes() == 4;
            let r = match op {
                UnOp::Neg => (bits as i64).wrapping_neg() as u64,
                UnOp::Abs => {
                    if w32 {
                        (bits as u32 as i32).unsigned_abs() as u64
                    } else {
                        (bits as i64).unsigned_abs()
                    }
                }
                UnOp::Not => !bits,
                _ => panic!("float-only unary on int"),
            };
            if w32 {
                r & 0xFFFF_FFFF
            } else {
                r
            }
        }
    }
}

/// Math subroutine call; `y` is ignored by unary functions.
#[inline]
fn call(func: MathFn, ty: PtxType, x: u64, y: u64) -> u64 {
    match ty {
        PtxType::F32 => {
            let y = if func.arity() == 2 { f32_of(y) as f64 } else { 0.0 };
            (func.eval(f32_of(x) as f64, y) as f32).to_bits() as u64
        }
        _ => {
            let y = if func.arity() == 2 { f64_of(y) } else { 0.0 };
            func.eval(f64_of(x), y).to_bits()
        }
    }
}

/// Byte width of a global access of type `ty`: 32-bit types move 4 bytes,
/// everything else 8.
#[inline]
fn access_width(ty: PtxType) -> usize {
    match ty {
        PtxType::F32 | PtxType::S32 | PtxType::U32 => 4,
        _ => 8,
    }
}

/// Execute one thread. `block`/`thread` are the CUDA coordinates.
#[allow(clippy::too_many_arguments)]
fn run_thread(
    k: &CompiledKernel,
    args: &[u64],
    mem: &DeviceMemory,
    regs: &mut [u64],
    block: u32,
    thread: u32,
    block_size: u32,
    n_blocks: u32,
) {
    regs.fill(0);
    let mut pc = 0usize;
    let mut steps = 0u64;
    let code = &k.code;
    while pc < code.len() {
        steps += 1;
        assert!(
            steps < 100_000_000,
            "kernel {} exceeded step limit (runaway loop?)",
            k.name
        );
        match &code[pc] {
            COp::LdArg { dst, arg, .. } => {
                regs[*dst as usize] = args[*arg as usize];
            }
            COp::Ld {
                ty,
                dst,
                addr,
                offset,
            } => {
                let a = (regs[*addr as usize] as i64).wrapping_add(*offset) as u64;
                regs[*dst as usize] = match access_width(*ty) {
                    4 => mem.read_u32(a) as u64,
                    _ => mem.read_u64(a),
                };
            }
            COp::St {
                ty,
                addr,
                offset,
                src,
            } => {
                let a = (regs[*addr as usize] as i64).wrapping_add(*offset) as u64;
                let v = get(regs, *src);
                match access_width(*ty) {
                    4 => mem.write_u32(a, v as u32),
                    _ => mem.write_u64(a, v),
                }
            }
            COp::Mov { dst, src, .. } => {
                regs[*dst as usize] = get(regs, *src);
            }
            COp::Special { dst, sreg } => {
                regs[*dst as usize] = match sreg {
                    SpecialReg::TidX => thread as u64,
                    SpecialReg::NtidX => block_size as u64,
                    SpecialReg::CtaidX => block as u64,
                    SpecialReg::NctaidX => n_blocks as u64,
                };
            }
            COp::Cvt {
                dst_ty,
                src_ty,
                dst,
                src,
            } => {
                regs[*dst as usize] = convert(*dst_ty, *src_ty, regs[*src as usize]);
            }
            COp::Un { op, ty, dst, src } => {
                regs[*dst as usize] = unary(*op, *ty, get(regs, *src));
            }
            COp::Bin { op, ty, dst, a, b } => {
                regs[*dst as usize] = binary(*op, *ty, get(regs, *a), get(regs, *b));
            }
            COp::MulWide { src_ty, dst, a, b } => {
                regs[*dst as usize] = mul_wide(*src_ty, regs[*a as usize], get(regs, *b));
            }
            COp::MadLo { ty, dst, a, b, c } => {
                let prod = bin_int(BinOp::Mul, *ty, get(regs, *a), get(regs, *b));
                regs[*dst as usize] = bin_int(BinOp::Add, *ty, prod, get(regs, *c));
            }
            COp::Fma { ty, dst, a, b, c } => {
                let (av, bv, cv) = (get(regs, *a), get(regs, *b), get(regs, *c));
                regs[*dst as usize] = match ty {
                    PtxType::F32 => f32_of(av)
                        .mul_add(f32_of(bv), f32_of(cv))
                        .to_bits() as u64,
                    _ => f64_of(av).mul_add(f64_of(bv), f64_of(cv)).to_bits(),
                };
            }
            COp::Setp { cmp, ty, dst, a, b } => {
                regs[*dst as usize] = u64::from(cmp_values(*cmp, *ty, get(regs, *a), get(regs, *b)));
            }
            COp::Selp {
                dst, a, b, pred, ..
            } => {
                regs[*dst as usize] = if regs[*pred as usize] != 0 {
                    get(regs, *a)
                } else {
                    get(regs, *b)
                };
            }
            COp::Bra { target, pred } => {
                let taken = match pred {
                    None => true,
                    Some((p, negated)) => (regs[*p as usize] != 0) != *negated,
                };
                if taken {
                    pc = *target as usize;
                    continue;
                }
            }
            COp::Call { func, ty, dst, args: a } => {
                let y = if func.arity() == 2 { regs[a[1] as usize] } else { 0 };
                regs[*dst as usize] = call(*func, *ty, regs[a[0] as usize], y);
            }
            COp::Ret => return,
        }
        pc += 1;
    }
}

/// Lanes per warp: the width the lane engine executes in lockstep.
const WARP: usize = 32;

/// One register slot across the lanes of a warp.
type Row = [u64; WARP];

thread_local! {
    /// This host thread's lane register file. Pool threads live for the
    /// process, so it is allocated once and reused across launches.
    static LANE_REGS: Cell<Vec<u64>> = const { Cell::new(Vec::new()) };
}

/// The active lanes of a warp.
trait Lanes: Copy {
    /// Run `f` for every active lane, in lane order.
    fn each(self, f: impl FnMut(usize));
    /// Run `f` for every maximal run of consecutive active lanes, in order.
    fn runs(self, f: impl FnMut(Range<usize>));
}

/// All 32 lanes active: the full-row fast path.
#[derive(Clone, Copy)]
struct Full;

impl Lanes for Full {
    #[inline(always)]
    fn each(self, mut f: impl FnMut(usize)) {
        for l in 0..WARP {
            f(l);
        }
    }

    #[inline(always)]
    fn runs(self, mut f: impl FnMut(Range<usize>)) {
        f(0..WARP);
    }
}

/// Some lanes retired (or never existed, in a block's last partial warp):
/// the ascending list of the active ones.
impl Lanes for &[u8] {
    #[inline]
    fn each(self, mut f: impl FnMut(usize)) {
        for &l in self {
            f(l as usize);
        }
    }

    #[inline]
    fn runs(self, mut f: impl FnMut(Range<usize>)) {
        let mut i = 0;
        while i < self.len() {
            let start = self[i] as usize;
            let mut end = start + 1;
            i += 1;
            while i < self.len() && self[i] as usize == end {
                end += 1;
                i += 1;
            }
            f(start..end);
        }
    }
}

#[inline(always)]
fn row(regs: &[u64], s: u32) -> &Row {
    regs[s as usize * WARP..][..WARP].try_into().unwrap()
}

#[inline(always)]
fn row_mut(regs: &mut [u64], s: u32) -> &mut Row {
    (&mut regs[s as usize * WARP..][..WARP]).try_into().unwrap()
}

/// An operand for every lane: a copy of its register row, or the
/// immediate broadcast.
#[inline(always)]
fn src(regs: &[u64], v: AVal) -> Row {
    match v {
        AVal::Slot(s) => *row(regs, s),
        AVal::Imm(bits) => [bits; WARP],
    }
}

/// Per-lane byte addresses `addr + offset`.
#[inline(always)]
fn lane_addrs(regs: &[u64], addr: u32, offset: i64) -> Row {
    row(regs, addr).map(|a| (a as i64).wrapping_add(offset) as u64)
}

#[inline(always)]
fn map1<L: Lanes>(regs: &mut [u64], lanes: L, dst: u32, a: AVal, f: impl Fn(u64) -> u64) {
    let a = src(regs, a);
    let d = row_mut(regs, dst);
    lanes.each(|l| d[l] = f(a[l]));
}

#[inline(always)]
fn map2<L: Lanes>(
    regs: &mut [u64],
    lanes: L,
    dst: u32,
    (a, b): (AVal, AVal),
    f: impl Fn(u64, u64) -> u64,
) {
    let (a, b) = (src(regs, a), src(regs, b));
    let d = row_mut(regs, dst);
    lanes.each(|l| d[l] = f(a[l], b[l]));
}

#[inline(always)]
fn map3<L: Lanes>(
    regs: &mut [u64],
    lanes: L,
    dst: u32,
    (a, b, c): (AVal, AVal, AVal),
    f: impl Fn(u64, u64, u64) -> u64,
) {
    let (a, b, c) = (src(regs, a), src(regs, b), src(regs, c));
    let d = row_mut(regs, dst);
    lanes.each(|l| d[l] = f(a[l], b[l], c[l]));
}

/// `d = a * b + c` rounded once, lane by lane, in precision `ty`.
#[inline(always)]
fn fma_rows(ty: PtxType, d: &mut Row, a: &Row, b: &Row, c: &Row) {
    if ty == PtxType::F32 {
        for l in 0..WARP {
            d[l] = f32_of(a[l]).mul_add(f32_of(b[l]), f32_of(c[l])).to_bits() as u64;
        }
    } else {
        for l in 0..WARP {
            d[l] = f64_of(a[l]).mul_add(f64_of(b[l]), f64_of(c[l])).to_bits();
        }
    }
}

/// Grid coordinates of one warp.
#[derive(Clone, Copy)]
struct WarpPos {
    block: u32,
    /// Thread index (within the block) of lane 0.
    first: u32,
    block_size: u32,
    n_blocks: u32,
}

/// Execute ops for `lanes` until the first branch or `ret`; returns how
/// many ops ran. Every op is dispatched once for the whole warp.
#[inline(always)]
fn run_segment<L: Lanes>(
    code: &[COp],
    lanes: L,
    args: &[u64],
    mem: &DeviceMemory,
    regs: &mut [u64],
    pos: WarpPos,
) -> usize {
    use AVal::Slot;
    use BinOp::{Add, Mul, Sub};
    use PtxType::{F32, F64, U32, U64};
    for (i, op) in code.iter().enumerate() {
        match *op {
            COp::Bra { .. } | COp::Ret => return i,
            // Register writes that cannot fault fill whole rows: lanes
            // outside `lanes` are never read back.
            COp::LdArg { dst, arg, .. } => row_mut(regs, dst).fill(args[arg as usize]),
            COp::Mov { dst, src: v, .. } => *row_mut(regs, dst) = src(regs, v),
            COp::Special { dst, sreg } => {
                let d = row_mut(regs, dst);
                match sreg {
                    SpecialReg::TidX => {
                        for (l, x) in d.iter_mut().enumerate() {
                            *x = pos.first as u64 + l as u64;
                        }
                    }
                    SpecialReg::NtidX => d.fill(pos.block_size as u64),
                    SpecialReg::CtaidX => d.fill(pos.block as u64),
                    SpecialReg::NctaidX => d.fill(pos.n_blocks as u64),
                }
            }
            COp::Ld {
                ty,
                dst,
                addr,
                offset,
            } => {
                let addrs = lane_addrs(regs, addr, offset);
                let d = row_mut(regs, dst);
                match access_width(ty) {
                    4 => lanes.runs(|r| mem.gather::<4>(&addrs[r.clone()], &mut d[r])),
                    _ => lanes.runs(|r| mem.gather::<8>(&addrs[r.clone()], &mut d[r])),
                }
            }
            COp::St {
                ty,
                addr,
                offset,
                src: v,
            } => {
                let addrs = lane_addrs(regs, addr, offset);
                let vals = src(regs, v);
                match access_width(ty) {
                    4 => lanes.runs(|r| mem.scatter::<4>(&addrs[r.clone()], &vals[r])),
                    _ => lanes.runs(|r| mem.scatter::<8>(&addrs[r.clone()], &vals[r])),
                }
            }
            COp::Cvt {
                dst_ty,
                src_ty,
                dst,
                src: s,
            } => map1(regs, lanes, dst, Slot(s), |x| convert(dst_ty, src_ty, x)),
            // The generator's common arithmetic calls the shared helper
            // with a constant op and type, so its lane loop compiles to
            // vector instructions; any other op is dispatched lane by
            // lane. The semantics are the helpers' either way.
            COp::Un { op, ty, dst, src: a } => {
                let un = |op, ty| move |x| unary(op, ty, x);
                match (op, ty) {
                    (UnOp::Neg, F64) => map1(regs, lanes, dst, a, un(UnOp::Neg, F64)),
                    (UnOp::Neg, F32) => map1(regs, lanes, dst, a, un(UnOp::Neg, F32)),
                    _ => map1(regs, lanes, dst, a, un(op, ty)),
                }
            }
            COp::Bin { op, ty, dst, a, b } => {
                let ab = (a, b);
                let bin = |op, ty| move |x, y| binary(op, ty, x, y);
                match (op, ty) {
                    (Add, F64) => map2(regs, lanes, dst, ab, bin(Add, F64)),
                    (Sub, F64) => map2(regs, lanes, dst, ab, bin(Sub, F64)),
                    (Mul, F64) => map2(regs, lanes, dst, ab, bin(Mul, F64)),
                    (Add, F32) => map2(regs, lanes, dst, ab, bin(Add, F32)),
                    (Sub, F32) => map2(regs, lanes, dst, ab, bin(Sub, F32)),
                    (Mul, F32) => map2(regs, lanes, dst, ab, bin(Mul, F32)),
                    (Add, U32) => map2(regs, lanes, dst, ab, bin(Add, U32)),
                    (Add, U64) => map2(regs, lanes, dst, ab, bin(Add, U64)),
                    _ => map2(regs, lanes, dst, ab, bin(op, ty)),
                }
            }
            COp::MulWide { src_ty, dst, a, b } => {
                let wide = |ty| move |x, y| mul_wide(ty, x, y);
                match src_ty {
                    U32 => map2(regs, lanes, dst, (Slot(a), b), wide(U32)),
                    _ => map2(regs, lanes, dst, (Slot(a), b), wide(src_ty)),
                }
            }
            COp::MadLo { ty, dst, a, b, c } => map3(regs, lanes, dst, (a, b, c), |x, y, z| {
                bin_int(BinOp::Add, ty, bin_int(BinOp::Mul, ty, x, y), z)
            }),
            // Arithmetic that cannot fault runs on whole rows.
            COp::Fma { ty, dst, a, b, c } => {
                let (a, b, c) = (src(regs, a), src(regs, b), src(regs, c));
                fma_rows(ty, row_mut(regs, dst), &a, &b, &c);
            }
            COp::Setp { cmp, ty, dst, a, b } => map2(regs, lanes, dst, (a, b), |x, y| {
                u64::from(cmp_values(cmp, ty, x, y))
            }),
            COp::Selp {
                dst, a, b, pred, ..
            } => map3(regs, lanes, dst, (Slot(pred), a, b), |p, x, y| {
                if p != 0 {
                    x
                } else {
                    y
                }
            }),
            COp::Call {
                func,
                ty,
                dst,
                args: [x, y],
            } => map2(regs, lanes, dst, (Slot(x), Slot(y)), |x, y| call(func, ty, x, y)),
        }
    }
    code.len()
}

/// Execute one warp of a straight-line kernel, lockstep across its lanes.
///
/// On x86-64 CPUs with AVX2 and FMA the engine runs as a build for those
/// extensions: row loops use 256-bit vectors and `fma` is one instruction
/// instead of a call into the C library. Every op is exactly rounded
/// IEEE-754 or integer arithmetic lane by lane, so both builds produce the
/// same bits.
fn run_warp(
    k: &CompiledKernel,
    args: &[u64],
    mem: &DeviceMemory,
    regs: &mut [u64],
    pos: WarpPos,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: the CPU supports AVX2 and FMA (checked just above).
        return unsafe { run_warp_avx2(k, args, mem, regs, pos) };
    }
    run_warp_lanes(k, args, mem, regs, pos)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn run_warp_avx2(
    k: &CompiledKernel,
    args: &[u64],
    mem: &DeviceMemory,
    regs: &mut [u64],
    pos: WarpPos,
) {
    run_warp_lanes(k, args, mem, regs, pos)
}

#[inline(always)]
fn run_warp_lanes(
    k: &CompiledKernel,
    args: &[u64],
    mem: &DeviceMemory,
    regs: &mut [u64],
    pos: WarpPos,
) {
    let width = (pos.block_size - pos.first).min(WARP as u32) as usize;
    let mut active: [u8; WARP] = std::array::from_fn(|l| l as u8);
    let mut n_active = width;
    let mut pc = 0;
    loop {
        let code = &k.code[pc..];
        pc += if n_active == WARP {
            run_segment(code, Full, args, mem, regs, pos)
        } else {
            run_segment(code, &active[..n_active], args, mem, regs, pos)
        };
        let Some(COp::Bra {
            pred: Some((p, negated)),
            ..
        }) = k.code.get(pc)
        else {
            // `ret`, the end of the program, or an unconditional branch
            // into the `ret`-only tail: every lane exits.
            return;
        };
        // A taken branch jumps into the `ret`-only tail: those lanes exit.
        let p = row(regs, *p);
        let mut kept = 0;
        for i in 0..n_active {
            let l = active[i];
            if (p[l as usize] != 0) == *negated {
                active[kept] = l;
                kept += 1;
            }
        }
        n_active = kept;
        if n_active == 0 {
            return;
        }
        pc += 1;
    }
}

/// Execute a full grid. Blocks run in parallel; within a block, warps run
/// in order (straight-line kernels) or threads run in order (any other).
/// Arguments are type-checked against the kernel signature.
pub fn run_grid(
    k: &CompiledKernel,
    args: &[LaunchArg],
    mem: &DeviceMemory,
    n_blocks: u32,
    block_size: u32,
) {
    assert_eq!(
        args.len(),
        k.param_types.len(),
        "kernel {} expects {} arguments, got {}",
        k.name,
        k.param_types.len(),
        args.len()
    );
    let bits: Vec<u64> = args.iter().map(|a| a.bits()).collect();
    if k.straight_line {
        run_grid_warps(k, &bits, mem, n_blocks, block_size, run_warp);
    } else {
        run_grid_threads(k, &bits, mem, n_blocks, block_size);
    }
}

/// One warp's executor: [`run_warp`], or in tests a build it would pick.
type WarpFn = fn(&CompiledKernel, &[u64], &DeviceMemory, &mut [u64], WarpPos);

/// The lane engine: the warps of a block in turn, each by `warp`.
fn run_grid_warps(
    k: &CompiledKernel,
    bits: &[u64],
    mem: &DeviceMemory,
    n_blocks: u32,
    block_size: u32,
    warp: WarpFn,
) {
    parallel_for(n_blocks as usize, |block| {
        let mut regs = LANE_REGS.take();
        let need = k.n_slots as usize * WARP;
        if regs.len() < need {
            regs.resize(need, 0);
        }
        for first in (0..block_size).step_by(WARP) {
            let pos = WarpPos {
                block: block as u32,
                first,
                block_size,
                n_blocks,
            };
            warp(k, bits, mem, &mut regs, pos);
        }
        LANE_REGS.set(regs);
    });
}

/// The general engine: every thread of a block in turn, one op at a time.
fn run_grid_threads(
    k: &CompiledKernel,
    bits: &[u64],
    mem: &DeviceMemory,
    n_blocks: u32,
    block_size: u32,
) {
    parallel_for(n_blocks as usize, |block| {
        let block = block as u32;
        let mut regs = vec![0u64; k.n_slots as usize];
        for thread in 0..block_size {
            run_thread(k, bits, mem, &mut regs, block, thread, block_size, n_blocks);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_kernel;
    use qdp_ptx::inst::{Inst, Operand};
    use qdp_ptx::module::{Kernel, KernelBuilder};
    use qdp_ptx::types::{Reg, RegClass};

    /// Build `out[i] = a[i] * s + b[i]` (f64 saxpy) and run it.
    #[test]
    fn saxpy_f64_executes_correctly() {
        let mut b = KernelBuilder::new("saxpy");
        let p_out = b.param("out", PtxType::U64);
        let p_a = b.param("a", PtxType::U64);
        let p_b = b.param("b", PtxType::U64);
        let p_s = b.param("s", PtxType::F64);
        let p_n = b.param("n", PtxType::U32);
        let tid = b.global_tid();
        let n = b.ld_param(&p_n, PtxType::U32);
        let exit = b.guard(tid, n);
        let off = b.fresh(RegClass::B64);
        b.push(Inst::MulWide {
            src_ty: PtxType::U32,
            dst: off,
            a: tid,
            b: Operand::ImmI(8),
        });
        let s = b.ld_param(&p_s, PtxType::F64);
        let base_a = b.ld_param(&p_a, PtxType::U64);
        let addr_a = b.bin(qdp_ptx::inst::BinOp::Add, PtxType::U64, base_a.into(), off.into());
        let va = b.fresh(RegClass::F64);
        b.push(Inst::LdGlobal {
            ty: PtxType::F64,
            dst: va,
            addr: addr_a,
            offset: 0,
        });
        let base_b = b.ld_param(&p_b, PtxType::U64);
        let addr_b = b.bin(qdp_ptx::inst::BinOp::Add, PtxType::U64, base_b.into(), off.into());
        let vb = b.fresh(RegClass::F64);
        b.push(Inst::LdGlobal {
            ty: PtxType::F64,
            dst: vb,
            addr: addr_b,
            offset: 0,
        });
        let r = b.fma(PtxType::F64, va.into(), s.into(), vb.into());
        let base_o = b.ld_param(&p_out, PtxType::U64);
        let addr_o = b.bin(qdp_ptx::inst::BinOp::Add, PtxType::U64, base_o.into(), off.into());
        b.push(Inst::StGlobal {
            ty: PtxType::F64,
            addr: addr_o,
            offset: 0,
            src: r.into(),
        });
        b.bind_label(&exit);
        let k = lower_kernel(&b.finish()).unwrap();

        let n = 1000usize;
        let mem = DeviceMemory::new(1 << 20);
        let pa = mem.alloc(n * 8).unwrap();
        let pb = mem.alloc(n * 8).unwrap();
        let po = mem.alloc(n * 8).unwrap();
        for i in 0..n {
            mem.write_f64(pa + 8 * i as u64, i as f64);
            mem.write_f64(pb + 8 * i as u64, 0.5 * i as f64);
        }
        let args = [
            LaunchArg::Ptr(po),
            LaunchArg::Ptr(pa),
            LaunchArg::Ptr(pb),
            LaunchArg::F64(3.0),
            LaunchArg::U32(n as u32),
        ];
        let block = 128u32;
        let blocks = (n as u32).div_ceil(block);
        run_grid(&k, &args, &mem, blocks, block);
        for i in 0..n {
            let expect = 3.0 * i as f64 + 0.5 * i as f64;
            assert_eq!(mem.read_f64(po + 8 * i as u64), expect, "site {i}");
        }
    }

    #[test]
    fn guard_prevents_overrun() {
        // Launch more threads than elements; guarded threads must not write.
        let mut b = KernelBuilder::new("guarded");
        let p_out = b.param("out", PtxType::U64);
        let p_n = b.param("n", PtxType::U32);
        let tid = b.global_tid();
        let n = b.ld_param(&p_n, PtxType::U32);
        let exit = b.guard(tid, n);
        let off = b.fresh(RegClass::B64);
        b.push(Inst::MulWide {
            src_ty: PtxType::U32,
            dst: off,
            a: tid,
            b: Operand::ImmI(4),
        });
        let base = b.ld_param(&p_out, PtxType::U64);
        let addr = b.bin(qdp_ptx::inst::BinOp::Add, PtxType::U64, base.into(), off.into());
        b.push(Inst::StGlobal {
            ty: PtxType::F32,
            addr,
            offset: 0,
            src: Operand::ImmF(1.0),
        });
        b.bind_label(&exit);
        let k = lower_kernel(&b.finish()).unwrap();

        let mem = DeviceMemory::new(1 << 16);
        let n = 10usize;
        // allocate space for the full grid's worth so an overrun would be
        // visible rather than a bounds panic
        let po = mem.alloc(256 * 4).unwrap();
        run_grid(
            &k,
            &[LaunchArg::Ptr(po), LaunchArg::U32(n as u32)],
            &mem,
            2,
            128,
        );
        for i in 0..256 {
            let v = mem.read_f32(po + 4 * i as u64);
            if i < n {
                assert_eq!(v, 1.0);
            } else {
                assert_eq!(v, 0.0, "guarded thread {i} wrote");
            }
        }
    }

    /// splitmix64: a seeded stream for test inputs.
    struct Seq(u64);

    impl Seq {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        }
    }

    /// The golden-PTX snapshot kernels of the code generator.
    fn snapshot_kernels() -> Vec<Kernel> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/tests/snapshots");
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "ptx"))
            .collect();
        files.sort();
        assert!(files.len() >= 7, "snapshots missing from {}", dir.display());
        files
            .iter()
            .map(|f| {
                let text = std::fs::read_to_string(f).unwrap();
                let mut m = qdp_ptx::parse::parse_module(&text).unwrap();
                m.kernels.remove(0)
            })
            .collect()
    }

    /// Lattice volume the snapshots were generated for.
    const SNAPSHOT_VOL: u64 = 64;

    /// Seeded device memory and arguments for `kernel` over `n` threads:
    /// `sites` is a permutation (so no two threads write the same site),
    /// shift tables hold in-range neighbours, and every field buffer and
    /// scalar holds values in [-1, 1) of the kernel's precision.
    fn seeded_launch(kernel: &Kernel, n: u32, seed: u64) -> (DeviceMemory, Vec<LaunchArg>) {
        let mut rng = Seq(seed);
        let sp = kernel.name.ends_with("_sp");
        let buf_words = 96 * SNAPSHOT_VOL as usize;
        let mem = DeviceMemory::new((kernel.params.len() + 1) * buf_words * 8 + 4096);
        let mut args = Vec::new();
        for p in &kernel.params {
            let arg = match p.ty {
                PtxType::U32 => LaunchArg::U32(n),
                PtxType::F32 => LaunchArg::F32(rng.unit() as f32),
                PtxType::F64 => LaunchArg::F64(rng.unit()),
                _ => {
                    let ptr = mem.alloc(buf_words * 8).unwrap();
                    if p.name == "sites" {
                        let mut perm: Vec<u32> = (0..SNAPSHOT_VOL as u32).collect();
                        for i in (1..perm.len()).rev() {
                            perm.swap(i, rng.next() as usize % (i + 1));
                        }
                        for (i, s) in perm.iter().enumerate() {
                            mem.write_u32(ptr + 4 * i as u64, *s);
                        }
                    } else if p.name.starts_with("tbl_") {
                        for i in 0..SNAPSHOT_VOL {
                            mem.write_u32(ptr + 4 * i, (rng.next() % SNAPSHOT_VOL) as u32);
                        }
                    } else if sp {
                        for i in 0..2 * buf_words as u64 {
                            mem.write_f32(ptr + 4 * i, rng.unit() as f32);
                        }
                    } else {
                        for i in 0..buf_words as u64 {
                            mem.write_f64(ptr + 8 * i, rng.unit());
                        }
                    }
                    LaunchArg::Ptr(ptr)
                }
            };
            args.push(arg);
        }
        (mem, args)
    }

    fn dump(mem: &DeviceMemory) -> Vec<u8> {
        let mut out = vec![0u8; mem.capacity() - 256];
        mem.copy_to_host(256, &mut out);
        out
    }

    /// Every snapshot kernel takes the lane engine, and its device memory
    /// after a launch is bit-identical to the thread-at-a-time engine
    /// running the uncompacted program — for block sizes that split warps
    /// and a thread count that retires lanes mid-warp. Both builds of the
    /// lane engine are compared: the one `run_grid` picks for this CPU and
    /// the portable one.
    #[test]
    fn lane_engine_matches_thread_engine_on_snapshots() {
        for kernel in snapshot_kernels() {
            let lanes = lower_kernel(&kernel).unwrap();
            let ssa = crate::lower::lower_ssa(&kernel).unwrap();
            assert!(lanes.straight_line, "{} must take the lane engine", kernel.name);
            assert!(lanes.n_slots < ssa.n_slots, "{}", kernel.name);
            for (block, n) in [(32, 61), (48, 61), (128, 45), (1024, 61), (48, 20)] {
                let seed = 0xD1FF ^ u64::from(block) << 8 ^ u64::from(n);
                let (mem_t, args) = seeded_launch(&kernel, n, seed);
                let blocks = n.div_ceil(block) + 1; // one block entirely past n
                let bits: Vec<u64> = args.iter().map(|a| a.bits()).collect();
                run_grid_threads(&ssa, &bits, &mem_t, blocks, block);
                let want = dump(&mem_t);
                for build in ["picked", "portable"] {
                    let (mem_l, args_l) = seeded_launch(&kernel, n, seed);
                    assert_eq!(args, args_l);
                    if build == "picked" {
                        run_grid(&lanes, &args, &mem_l, blocks, block);
                    } else {
                        run_grid_warps(&lanes, &bits, &mem_l, blocks, block, run_warp_lanes);
                    }
                    let got = dump(&mem_l);
                    let first_diff = got.iter().zip(&want).position(|(x, y)| x != y);
                    assert!(
                        first_diff.is_none(),
                        "{}: {build} build, block {block}, n {n}: engines differ at byte \
                         {first_diff:?}",
                        kernel.name
                    );
                }
            }
        }
    }

    /// `out[i] = (sum of j for j in 0..k)` with a backward branch (a loop).
    fn looping_kernel() -> Kernel {
        let mut b = KernelBuilder::new("looping");
        let p_out = b.param("out", PtxType::U64);
        let p_n = b.param("n", PtxType::U32);
        let tid = b.global_tid();
        let n = b.ld_param(&p_n, PtxType::U32);
        let exit = b.guard(tid, n);
        let acc = b.fresh(RegClass::B32);
        let j = b.fresh(RegClass::B32);
        b.push(Inst::Mov { ty: PtxType::U32, dst: acc, src: Operand::ImmI(0) });
        b.push(Inst::Mov { ty: PtxType::U32, dst: j, src: Operand::ImmI(0) });
        let top = b.label("top");
        b.bind_label(&top);
        b.push(Inst::Binary {
            op: BinOp::Add,
            ty: PtxType::U32,
            dst: acc,
            a: acc.into(),
            b: j.into(),
        });
        b.push(Inst::Binary {
            op: BinOp::Add,
            ty: PtxType::U32,
            dst: j,
            a: j.into(),
            b: Operand::ImmI(1),
        });
        let p = b.fresh(RegClass::Pred);
        b.push(Inst::Setp {
            cmp: CmpOp::Lt,
            ty: PtxType::U32,
            dst: p,
            a: j.into(),
            b: tid.into(),
        });
        b.push(Inst::Bra { target: top, pred: Some((p, false)) });
        store_u32_at_tid(&mut b, &p_out, tid, acc);
        b.bind_label(&exit);
        b.finish()
    }

    fn store_u32_at_tid(b: &mut KernelBuilder, p_out: &str, tid: Reg, v: Reg) {
        let off = b.fresh(RegClass::B64);
        b.push(Inst::MulWide {
            src_ty: PtxType::U32,
            dst: off,
            a: tid,
            b: Operand::ImmI(4),
        });
        let base = b.ld_param(p_out, PtxType::U64);
        let addr = b.bin(BinOp::Add, PtxType::U64, base.into(), off.into());
        b.push(Inst::StGlobal {
            ty: PtxType::U32,
            addr,
            offset: 0,
            src: v.into(),
        });
    }

    fn run_u32_kernel(kernel: &Kernel, n: usize) -> (CompiledKernel, Vec<u32>) {
        let k = lower_kernel(kernel).unwrap();
        let mem = DeviceMemory::new(1 << 16);
        let po = mem.alloc(256 * 4).unwrap();
        run_grid(&k, &[LaunchArg::Ptr(po), LaunchArg::U32(n as u32)], &mem, 2, 48);
        let out = (0..96).map(|i| mem.read_u32(po + 4 * i)).collect();
        (k, out)
    }

    #[test]
    fn backward_branch_takes_the_thread_engine() {
        let kernel = looping_kernel();
        let (k, out) = run_u32_kernel(&kernel, 70);
        assert!(!k.straight_line);
        assert_eq!(k.n_slots, kernel.reg_counts.iter().sum::<u32>());
        for (i, v) in out.iter().enumerate() {
            // the loop body runs at least once: j = 0, then while j < tid
            let expect = if i < 70 { (0..(i as u32).max(1)).sum() } else { 0 };
            assert_eq!(*v, expect, "thread {i}");
        }
    }

    #[test]
    fn use_before_def_takes_the_thread_engine() {
        // `out[i] = r + 5` where `r` is never written: registers start at 0.
        let mut b = KernelBuilder::new("undef");
        let p_out = b.param("out", PtxType::U64);
        let p_n = b.param("n", PtxType::U32);
        let tid = b.global_tid();
        let n = b.ld_param(&p_n, PtxType::U32);
        let exit = b.guard(tid, n);
        let undef = b.fresh(RegClass::B32);
        let v = b.bin(BinOp::Add, PtxType::U32, undef.into(), Operand::ImmI(5));
        store_u32_at_tid(&mut b, &p_out, tid, v);
        b.bind_label(&exit);
        let (k, out) = run_u32_kernel(&b.finish(), 50);
        assert!(!k.straight_line);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, if i < 50 { 5 } else { 0 }, "thread {i}");
        }
    }

    #[test]
    fn int_semantics() {
        assert_eq!(bin_int(BinOp::Add, PtxType::U32, 0xFFFF_FFFF, 1), 0);
        assert_eq!(
            bin_int(BinOp::Shr, PtxType::S32, (-8i32) as u32 as u64, 1),
            (-4i32) as u32 as u64
        );
        assert_eq!(bin_int(BinOp::Shr, PtxType::U32, 0x8000_0000, 1), 0x4000_0000);
        assert_eq!(
            bin_int(BinOp::Div, PtxType::S32, (-7i32) as u32 as u64, 2),
            (-3i32) as u32 as u64
        );
        assert_eq!(bin_int(BinOp::Min, PtxType::S32, (-1i32) as u32 as u64, 1), (-1i32) as u32 as u64);
        assert_eq!(bin_int(BinOp::Min, PtxType::U32, (-1i32) as u32 as u64, 1), 1);
    }

    #[test]
    fn conversions() {
        // f64 -> f32 rounding
        let b = convert(PtxType::F32, PtxType::F64, (1.0f64 / 3.0).to_bits());
        assert_eq!(f32_of(b), (1.0f64 / 3.0) as f32);
        // s32 -> f64 exact
        let b = convert(PtxType::F64, PtxType::S32, (-5i32) as u32 as u64);
        assert_eq!(f64_of(b), -5.0);
        // f32 -> s32 truncation toward zero
        let b = convert(PtxType::S32, PtxType::F32, (( -2.7f32).to_bits()) as u64);
        assert_eq!(b as u32 as i32, -2);
        // u32 widening
        let b = convert(PtxType::U64, PtxType::U32, 0xFFFF_FFFF);
        assert_eq!(b, 0xFFFF_FFFF);
    }

    #[test]
    fn nan_comparisons_are_false() {
        let nan = f64::NAN.to_bits();
        let one = 1.0f64.to_bits();
        for cmp in [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            assert!(!cmp_values(cmp, PtxType::F64, nan, one), "{cmp:?}");
        }
    }
}
