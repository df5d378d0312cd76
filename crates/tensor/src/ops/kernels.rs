//! Slice-in / slice-out kernels for the element-wise, reduction and permute
//! ops, shared by the dynamic engine and both plan executors.
//!
//! [`BinKind`] and the [`UnKind`] arms of [`unary_block`] and
//! [`unary_bwd_block`] are the one place each element formula and its
//! derivative is written; the transcendental ones call the pinned
//! [`simd::exp`] and [`simd::tanh`]. The walks over operands are described
//! by a geometry built once — at bind time by the executors, at op time by
//! the dynamic engine — so the `*_block` kernels themselves allocate
//! nothing (the worker-loop lint rules hold them to that).
//!
//! Every kernel writes its output in row-major order and accumulates each
//! adjoint in ascending output order, so both engines produce the same bits.

use crate::shape::Shape;
use crate::simd::{self, map_lanes};

/// Element-wise binary ops (with broadcasting).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BinKind {
    Add,
    Sub,
    Mul,
    Div,
    /// Smooth-L1 (Huber, δ=1) per Eq. (17) of the paper on `d = a − b`.
    SmoothL1,
}

impl BinKind {
    /// The op name the dynamic engine records.
    pub(crate) fn name(self) -> &'static str {
        match self {
            BinKind::Add => "add",
            BinKind::Sub => "sub",
            BinKind::Mul => "mul",
            BinKind::Div => "div",
            BinKind::SmoothL1 => "smooth_l1",
        }
    }

    /// True when the derivative reads the operands; Add and Sub move the
    /// upstream gradient only.
    pub(crate) fn reads_operands(self) -> bool {
        !matches!(self, BinKind::Add | BinKind::Sub)
    }

    #[inline(always)]
    fn value(self, a: f32, b: f32) -> f32 {
        match self {
            BinKind::Add => a + b,
            BinKind::Sub => a - b,
            BinKind::Mul => a * b,
            BinKind::Div => a / b,
            BinKind::SmoothL1 => {
                let d = a - b;
                if d.abs() < 1.0 {
                    0.5 * d * d
                } else {
                    d.abs() - 0.5
                }
            }
        }
    }

    /// `(∂L/∂a, ∂L/∂b)` for one element given the upstream gradient `g`.
    #[inline(always)]
    fn grad(self, a: f32, b: f32, g: f32) -> (f32, f32) {
        match self {
            BinKind::Add => (g, g),
            BinKind::Sub => (g, -g),
            BinKind::Mul => (g * b, g * a),
            BinKind::Div => (g / b, -g * a / (b * b)),
            BinKind::SmoothL1 => {
                let d = (a - b).clamp(-1.0, 1.0);
                (g * d, -g * d)
            }
        }
    }
}

/// Element-wise unary ops.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum UnKind {
    AddScalar(f32),
    MulScalar(f32),
    Exp,
    Ln,
    Sqrt,
    /// `1/√x`.
    Rsqrt,
    Square,
    /// Gradient 0 at 0.
    Abs,
    Relu,
    /// Tanh approximation.
    Gelu,
    Tanh,
    Sigmoid,
    /// Gradient 0 outside `[lo, hi]`.
    Clamp {
        lo: f32,
        hi: f32,
    },
}

/// `sqrt(2/π)`, the GELU tanh-approximation constant.
const GELU_C: f32 = 0.797_884_6;

impl UnKind {
    /// The op name the dynamic engine records.
    pub(crate) fn name(self) -> &'static str {
        match self {
            UnKind::AddScalar(_) => "add_scalar",
            UnKind::MulScalar(_) => "mul_scalar",
            UnKind::Exp => "exp",
            UnKind::Ln => "ln",
            UnKind::Sqrt => "sqrt",
            UnKind::Rsqrt => "rsqrt",
            UnKind::Square => "square",
            UnKind::Abs => "abs",
            UnKind::Relu => "relu",
            UnKind::Gelu => "gelu",
            UnKind::Tanh => "tanh",
            UnKind::Sigmoid => "sigmoid",
            UnKind::Clamp { .. } => "clamp",
        }
    }

    /// True when the derivative reads the input `x`.
    pub(crate) fn reads_input(self) -> bool {
        matches!(
            self,
            UnKind::Ln
                | UnKind::Rsqrt
                | UnKind::Square
                | UnKind::Abs
                | UnKind::Relu
                | UnKind::Gelu
                | UnKind::Clamp { .. }
        )
    }

    /// True when the derivative reads the op's output `y`, which the
    /// backward must then keep.
    pub(crate) fn reads_output(self) -> bool {
        matches!(
            self,
            UnKind::Exp | UnKind::Sqrt | UnKind::Rsqrt | UnKind::Tanh | UnKind::Sigmoid
        )
    }
}

/// A row-major walk of an output with `N` strided operands: rows of `len`
/// elements, the start offset of each row in every operand, and the step
/// each operand takes along a row (0 where it broadcasts).
///
/// Size-1 axes are dropped and adjacent axes merged wherever every operand
/// is contiguous across them, so a same-shape operand pair is one row and
/// a trailing-axis broadcast is one row per leading index. Merging changes
/// how the walk is cut into rows, never the order it visits elements in.
#[derive(Clone, Debug)]
pub(crate) struct RowWalk<const N: usize> {
    len: usize,
    step: [usize; N],
    starts: Vec<[usize; N]>,
}

impl<const N: usize> RowWalk<N> {
    /// `strides[k]` gives operand `k`'s offset step along each axis of the
    /// output `dims`.
    fn new(dims: &[usize], strides: [&[usize]; N]) -> RowWalk<N> {
        if dims.contains(&0) {
            return RowWalk {
                len: 0,
                step: [0; N],
                starts: Vec::new(),
            };
        }
        let mut axes: Vec<(usize, [usize; N])> = Vec::with_capacity(dims.len());
        for (ax, &d) in dims.iter().enumerate() {
            if d == 1 {
                continue;
            }
            let s: [usize; N] = std::array::from_fn(|k| strides[k][ax]);
            match axes.last_mut() {
                Some((pd, ps)) if (0..N).all(|k| ps[k] == s[k] * d) => {
                    *pd *= d;
                    *ps = s;
                }
                _ => axes.push((d, s)),
            }
        }
        let (len, step) = axes.pop().unwrap_or((1, [0; N]));
        // Row `r`'s start: `r` read as a mixed-radix index over the outer
        // axes (last axis fastest), each digit times its operand strides.
        let rows: usize = axes.iter().map(|&(d, _)| d).product();
        let starts = (0..rows)
            .map(|r| {
                let (mut rem, mut off) = (r, [0usize; N]);
                for &(d, s) in axes.iter().rev() {
                    for k in 0..N {
                        off[k] += rem % d * s[k];
                    }
                    rem /= d;
                }
                off
            })
            .collect();
        RowWalk { len, step, starts }
    }
}

/// Stride of `src` (aligned to the trailing axes of `out`) along each
/// `out` axis; 0 where the `src` axis is missing or has size 1, so walking
/// `out` visits the element each output element broadcasts from.
fn eff_strides(src: &[usize], out: &[usize]) -> Vec<usize> {
    let src_strides = Shape::new(src).strides();
    let pad = out.len() - src.len();
    let mut eff = vec![0usize; out.len()];
    for i in pad..out.len() {
        if src[i - pad] != 1 {
            eff[i] = src_strides[i - pad];
        }
    }
    eff
}

/// The walk of a broadcasting binary op: operands of dims `a` and `b`
/// against their broadcast output `out`.
pub(crate) fn broadcast_walk(a: &[usize], b: &[usize], out: &[usize]) -> RowWalk<2> {
    RowWalk::new(out, [&eff_strides(a, out), &eff_strides(b, out)])
}

/// The walk of `permute(perm)` over a source of dims `src`: the output in
/// row-major order, gathering through the permuted source strides.
pub(crate) fn permute_walk(src: &[usize], perm: &[usize]) -> RowWalk<1> {
    let src_strides = Shape::new(src).strides();
    let dims: Vec<usize> = perm.iter().map(|&p| src[p]).collect();
    let strides: Vec<usize> = perm.iter().map(|&p| src_strides[p]).collect();
    RowWalk::new(&dims, [&strides])
}

/// The inverse of the permutation `perm`.
pub(crate) fn inverse_perm(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        inv[p] = i;
    }
    inv
}

/// A tensor viewed as `[outer, mid, inner]` around one reduced axis.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AxisSplit {
    pub(crate) outer: usize,
    pub(crate) mid: usize,
    pub(crate) inner: usize,
}

impl AxisSplit {
    pub(crate) fn new(dims: &[usize], axis: usize) -> AxisSplit {
        AxisSplit {
            outer: dims[..axis].iter().product(),
            mid: dims[axis],
            inner: dims[axis + 1..].iter().product(),
        }
    }
}

/// `out = a ∘ b` along `walk`. Binary operand steps are 0 or 1: a
/// non-broadcast operand is contiguous along the last kept output axis.
pub(crate) fn binary_block(
    kind: BinKind,
    walk: &RowWalk<2>,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    let len = walk.len;
    for (r, &[ao, bo]) in walk.starts.iter().enumerate() {
        let row = &mut out[r * len..(r + 1) * len];
        match walk.step {
            [1, 1] => {
                for ((o, &x), &y) in row.iter_mut().zip(&a[ao..ao + len]).zip(&b[bo..bo + len]) {
                    *o = kind.value(x, y);
                }
            }
            [1, _] => {
                let y = b[bo];
                for (o, &x) in row.iter_mut().zip(&a[ao..ao + len]) {
                    *o = kind.value(x, y);
                }
            }
            [_, 1] => {
                let x = a[ao];
                for (o, &y) in row.iter_mut().zip(&b[bo..bo + len]) {
                    *o = kind.value(x, y);
                }
            }
            _ => row.fill(kind.value(a[ao], b[bo])),
        }
    }
}

/// The adjoint of [`binary_block`]: overwrites `ga`/`gb` (when present)
/// with each operand's gradient from the upstream `g`, accumulating a
/// broadcast operand's contributions in ascending output order. Each
/// gradient starts from `0.0`, so an element's first contribution `d`
/// lands as `0.0 + d` (which maps `−0.0` to `+0.0`).
///
/// One arm per kind, so each kind's loops are compiled with its
/// derivative inlined ([`binary_bwd_rows`]).
pub(crate) fn binary_bwd_block(
    kind: BinKind,
    walk: &RowWalk<2>,
    a: &[f32],
    b: &[f32],
    g: &[f32],
    ga: Option<&mut [f32]>,
    gb: Option<&mut [f32]>,
) {
    let ops = (walk, a, b, g);
    match kind {
        BinKind::Add => binary_bwd_rows(ops, ga, gb, |x, y, g| BinKind::Add.grad(x, y, g)),
        BinKind::Sub => binary_bwd_rows(ops, ga, gb, |x, y, g| BinKind::Sub.grad(x, y, g)),
        BinKind::Mul => binary_bwd_rows(ops, ga, gb, |x, y, g| BinKind::Mul.grad(x, y, g)),
        BinKind::Div => binary_bwd_rows(ops, ga, gb, |x, y, g| BinKind::Div.grad(x, y, g)),
        BinKind::SmoothL1 => {
            binary_bwd_rows(ops, ga, gb, |x, y, g| BinKind::SmoothL1.grad(x, y, g))
        }
    }
}

/// The rows of [`binary_bwd_block`] for one derivative `f`. A contiguous
/// operand (step 1) gets one element-wise pass per row, which vectorizes;
/// an operand that broadcasts along the row (step 0) folds the row's
/// contributions into its one element in ascending order.
#[inline(always)]
fn binary_bwd_rows(
    (walk, a, b, g): (&RowWalk<2>, &[f32], &[f32], &[f32]),
    mut ga: Option<&mut [f32]>,
    mut gb: Option<&mut [f32]>,
    f: impl Fn(f32, f32, f32) -> (f32, f32),
) {
    if let Some(ga) = ga.as_deref_mut() {
        ga.fill(0.0);
    }
    if let Some(gb) = gb.as_deref_mut() {
        gb.fill(0.0);
    }
    let len = walk.len;
    for (r, &[ao, bo]) in walk.starts.iter().enumerate() {
        let gr = &g[r * len..(r + 1) * len];
        match walk.step {
            [1, 1] => {
                let (ar, br) = (&a[ao..ao + len], &b[bo..bo + len]);
                if let Some(ga) = ga.as_deref_mut() {
                    for (((d, &x), &y), &gj) in ga[ao..ao + len].iter_mut().zip(ar).zip(br).zip(gr)
                    {
                        *d += f(x, y, gj).0;
                    }
                }
                if let Some(gb) = gb.as_deref_mut() {
                    for (((d, &x), &y), &gj) in gb[bo..bo + len].iter_mut().zip(ar).zip(br).zip(gr)
                    {
                        *d += f(x, y, gj).1;
                    }
                }
            }
            [1, _] => {
                let (ar, y) = (&a[ao..ao + len], b[bo]);
                if let Some(ga) = ga.as_deref_mut() {
                    for ((d, &x), &gj) in ga[ao..ao + len].iter_mut().zip(ar).zip(gr) {
                        *d += f(x, y, gj).0;
                    }
                }
                if let Some(gb) = gb.as_deref_mut() {
                    let mut acc = gb[bo];
                    for (&x, &gj) in ar.iter().zip(gr) {
                        acc += f(x, y, gj).1;
                    }
                    gb[bo] = acc;
                }
            }
            [_, 1] => {
                let (x, br) = (a[ao], &b[bo..bo + len]);
                if let Some(ga) = ga.as_deref_mut() {
                    let mut acc = ga[ao];
                    for (&y, &gj) in br.iter().zip(gr) {
                        acc += f(x, y, gj).0;
                    }
                    ga[ao] = acc;
                }
                if let Some(gb) = gb.as_deref_mut() {
                    for ((d, &y), &gj) in gb[bo..bo + len].iter_mut().zip(br).zip(gr) {
                        *d += f(x, y, gj).1;
                    }
                }
            }
            _ => {
                let (x, y) = (a[ao], b[bo]);
                for &gj in gr {
                    let (da, db) = f(x, y, gj);
                    if let Some(ga) = ga.as_deref_mut() {
                        ga[ao] += da;
                    }
                    if let Some(gb) = gb.as_deref_mut() {
                        gb[bo] += db;
                    }
                }
            }
        }
    }
}

/// `out = f(x)` element-wise. One arm per kind, so each kind's loop is
/// compiled with its formula inlined and vectorizes as an
/// [`F32x8`](crate::simd::F32x8) body plus a scalar tail of the same
/// formula ([`map_lanes`]).
pub(crate) fn unary_block(kind: UnKind, x: &[f32], out: &mut [f32]) {
    match kind {
        UnKind::AddScalar(c) => map_lanes([x], out, |[x]| x + c),
        UnKind::MulScalar(c) => map_lanes([x], out, |[x]| x * c),
        UnKind::Exp => map_lanes([x], out, |[x]| simd::exp(x)),
        UnKind::Ln => map_lanes([x], out, |[x]| x.ln()),
        UnKind::Sqrt => map_lanes([x], out, |[x]| x.sqrt()),
        UnKind::Rsqrt => map_lanes([x], out, |[x]| 1.0 / x.sqrt()),
        UnKind::Square => map_lanes([x], out, |[x]| x * x),
        UnKind::Abs => map_lanes([x], out, |[x]| x.abs()),
        UnKind::Relu => map_lanes([x], out, |[x]| x.max(0.0)),
        UnKind::Gelu => map_lanes([x], out, |[x]| {
            let inner = GELU_C * (x + 0.044715 * x * x * x);
            0.5 * x * (1.0 + simd::tanh(inner))
        }),
        UnKind::Tanh => map_lanes([x], out, |[x]| simd::tanh(x)),
        UnKind::Sigmoid => map_lanes([x], out, |[x]| 1.0 / (1.0 + simd::exp(-x))),
        UnKind::Clamp { lo, hi } => map_lanes([x], out, |[x]| x.clamp(lo, hi)),
    }
}

/// The adjoint of [`unary_block`]: `gx = f'(x, y) · g` from the input `x`,
/// the output `y` and the upstream gradient `g`. `x` and `y` are read only
/// as [`reads_input`](UnKind::reads_input) and
/// [`reads_output`](UnKind::reads_output) say; one arm per kind, as in
/// the forward.
pub(crate) fn unary_bwd_block(kind: UnKind, x: &[f32], y: &[f32], g: &[f32], gx: &mut [f32]) {
    match kind {
        UnKind::AddScalar(_) => gx.copy_from_slice(&g[..gx.len()]),
        UnKind::MulScalar(c) => map_lanes([g], gx, |[g]| g * c),
        UnKind::Exp => map_lanes([y, g], gx, |[y, g]| g * y),
        UnKind::Ln => map_lanes([x, g], gx, |[x, g]| g / x),
        UnKind::Sqrt => map_lanes([y, g], gx, |[y, g]| g * 0.5 / y),
        // d/dx x^(-1/2) = -1/2 x^(-3/2)
        UnKind::Rsqrt => map_lanes([x, y, g], gx, |[x, y, g]| g * (-0.5) * y / x),
        UnKind::Square => map_lanes([x, g], gx, |[x, g]| g * 2.0 * x),
        UnKind::Abs => map_lanes([x, g], gx, |[x, g]| {
            if x > 0.0 {
                g
            } else if x < 0.0 {
                -g
            } else {
                0.0
            }
        }),
        UnKind::Relu => map_lanes([x, g], gx, |[x, g]| if x > 0.0 { g } else { 0.0 }),
        UnKind::Gelu => map_lanes([x, g], gx, |[x, g]| {
            let x3 = 0.044715 * x * x * x;
            let t = simd::tanh(GELU_C * (x + x3));
            let sech2 = 1.0 - t * t;
            let d_inner = GELU_C * (1.0 + 3.0 * 0.044715 * x * x);
            g * (0.5 * (1.0 + t) + 0.5 * x * sech2 * d_inner)
        }),
        UnKind::Tanh => map_lanes([y, g], gx, |[y, g]| g * (1.0 - y * y)),
        UnKind::Sigmoid => map_lanes([y, g], gx, |[y, g]| g * y * (1.0 - y)),
        UnKind::Clamp { lo, hi } => map_lanes(
            [x, g],
            gx,
            |[x, g]| if x >= lo && x <= hi { g } else { 0.0 },
        ),
    }
}

/// Sums `x` over the middle axis of `ax` into `out`, folding each output
/// element from 0.0 in ascending `mid` order. A per-row reduction
/// (`inner == 1`) sums each contiguous row into a local accumulator.
pub(crate) fn sum_axis_block(x: &[f32], out: &mut [f32], ax: AxisSplit) {
    let AxisSplit { outer, mid, inner } = ax;
    if inner == 1 && mid > 0 {
        for (o, row) in out.iter_mut().zip(x.chunks_exact(mid)) {
            let mut s = 0.0f32;
            for &v in row {
                s += v;
            }
            *o = s;
        }
        return;
    }
    out.fill(0.0);
    for o in 0..outer {
        let acc = &mut out[o * inner..(o + 1) * inner];
        for m in 0..mid {
            let base = (o * mid + m) * inner;
            for (s, &v) in acc.iter_mut().zip(&x[base..base + inner]) {
                *s += v;
            }
        }
    }
}

/// The adjoint of [`sum_axis_block`]: every `mid` slice of `gx` receives
/// the upstream gradient of its output row.
pub(crate) fn sum_axis_bwd_block(g: &[f32], gx: &mut [f32], ax: AxisSplit) {
    let AxisSplit { outer, mid, inner } = ax;
    gx.fill(0.0);
    for o in 0..outer {
        let src = &g[o * inner..(o + 1) * inner];
        for m in 0..mid {
            let base = (o * mid + m) * inner;
            for (d, &v) in gx[base..base + inner].iter_mut().zip(src) {
                *d += v;
            }
        }
    }
}

/// Gathers `src` into `out` along a [`permute_walk`]: a contiguous row is
/// one block copy, any other a strided gather.
pub(crate) fn permute_block(walk: &RowWalk<1>, src: &[f32], out: &mut [f32]) {
    let len = walk.len;
    let [step] = walk.step;
    for (r, &[so]) in walk.starts.iter().enumerate() {
        let row = &mut out[r * len..(r + 1) * len];
        if step == 1 {
            row.copy_from_slice(&src[so..so + len]);
        } else {
            for (j, o) in row.iter_mut().enumerate() {
                *o = src[so + j * step];
            }
        }
    }
}

/// Gathers rows of a `[V, d]` table: `out[s, :] = table[ids[s], :]`. The
/// ids are exact integers held in f32.
pub(crate) fn gather_rows_block(table: &[f32], ids: &[f32], d: usize, out: &mut [f32]) {
    for (row, &id) in out.chunks_exact_mut(d).zip(ids) {
        let i = id as usize;
        row.copy_from_slice(&table[i * d..(i + 1) * d]);
    }
}

/// The adjoint of [`gather_rows_block`]: zeroes `gw`, then adds each
/// gradient row into its table row in ascending `s` order, so a repeated
/// id accumulates in output order.
pub(crate) fn gather_rows_bwd_block(ids: &[f32], d: usize, g: &[f32], gw: &mut [f32]) {
    gw.fill(0.0);
    for (g_row, &id) in g.chunks_exact(d).zip(ids) {
        let i = id as usize;
        for (w, &x) in gw[i * d..(i + 1) * d].iter_mut().zip(g_row) {
            *w += x;
        }
    }
}

/// Copies the window `start..start + len` of the middle axis of `x`
/// (viewed as `[outer, mid, inner]`) into `out`.
pub(crate) fn slice_block(x: &[f32], out: &mut [f32], ax: AxisSplit, start: usize, len: usize) {
    let AxisSplit { mid, inner, .. } = ax;
    let chunk = len * inner;
    for (o, dst) in out
        .chunks_exact_mut(chunk.max(1))
        .enumerate()
        .take(ax.outer)
    {
        let base = (o * mid + start) * inner;
        dst.copy_from_slice(&x[base..base + chunk]);
    }
}

/// Softmax over rows of `c` elements: each row shifted by its max, the
/// pinned [`simd::exp`] of the shifted row (staged in `out`), its
/// ascending sum, then every element scaled by the sum's reciprocal.
pub(crate) fn softmax_block(x: &[f32], out: &mut [f32], c: usize) {
    for (row, out_row) in x.chunks_exact(c).zip(out.chunks_exact_mut(c)) {
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        map_lanes([row], out_row, |[x]| simd::exp(x - m));
        let mut denom = 0.0f32;
        for &e in out_row.iter() {
            denom += e;
        }
        let inv = 1.0 / denom;
        for o in out_row {
            *o *= inv;
        }
    }
}

/// The adjoint of [`softmax_block`] from its output `y`:
/// `gx = y ⊙ (g − ⟨g, y⟩)` per row, the dot product an ascending sum.
pub(crate) fn softmax_bwd_block(y: &[f32], g: &[f32], gx: &mut [f32], c: usize) {
    for ((y_row, g_row), gx_row) in y
        .chunks_exact(c)
        .zip(g.chunks_exact(c))
        .zip(gx.chunks_exact_mut(c))
    {
        let dot: f32 = y_row.iter().zip(g_row).map(|(a, b)| a * b).sum();
        for ((o, &yi), &gi) in gx_row.iter_mut().zip(y_row).zip(g_row) {
            *o = yi * (gi - dot);
        }
    }
}

/// Log-softmax over rows of `c` elements: each row shifted by its max,
/// the pinned [`simd::exp`] of the shifted row (staged in `out`), its
/// ascending sum, `lse = max + ln(sum)`, then `out = x − lse`.
pub(crate) fn log_softmax_block(x: &[f32], out: &mut [f32], c: usize) {
    for (row, out_row) in x.chunks_exact(c).zip(out.chunks_exact_mut(c)) {
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        map_lanes([row], out_row, |[x]| simd::exp(x - m));
        let mut denom = 0.0f32;
        for &e in out_row.iter() {
            denom += e;
        }
        let lse = m + denom.ln();
        map_lanes([row], out_row, |[x]| x - lse);
    }
}

/// The adjoint of [`log_softmax_block`] from its output `y`:
/// `gx = g − softmax · Σg` per row, with `softmax = exp(y)` recomputed by
/// the pinned [`simd::exp`].
pub(crate) fn log_softmax_bwd_block(y: &[f32], g: &[f32], gx: &mut [f32], c: usize) {
    for ((y_row, g_row), gx_row) in y
        .chunks_exact(c)
        .zip(g.chunks_exact(c))
        .zip(gx.chunks_exact_mut(c))
    {
        let gsum: f32 = g_row.iter().sum();
        map_lanes([y_row], gx_row, |[y]| simd::exp(y));
        for (o, &gi) in gx_row.iter_mut().zip(g_row) {
            *o = gi - *o * gsum;
        }
    }
}

/// One element per row of `c`: `out[r] = x[r, ids[r]]`, the ids exact
/// integers held in f32.
pub(crate) fn gather_last_block(x: &[f32], ids: &[f32], c: usize, out: &mut [f32]) {
    for (r, (o, &id)) in out.iter_mut().zip(ids).enumerate() {
        *o = x[r * c + id as usize];
    }
}

/// The adjoint of [`gather_last_block`]: zeroes `gx` and adds `g[r]` at
/// each row's picked element.
pub(crate) fn gather_last_bwd_block(ids: &[f32], c: usize, g: &[f32], gx: &mut [f32]) {
    gx.fill(0.0);
    for (r, (&gr, &id)) in g.iter().zip(ids).enumerate() {
        gx[r * c + id as usize] += gr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::IndexIter;

    /// Source offset of every output element, in order, by a per-element
    /// walk over the output index.
    fn reference_offsets(strides: &[usize], out: &[usize]) -> Vec<usize> {
        IndexIter::new(&Shape::new(out))
            .map(|idx| idx.iter().zip(strides).map(|(i, s)| i * s).sum())
            .collect()
    }

    fn visited<const N: usize>(walk: &RowWalk<N>) -> [Vec<usize>; N] {
        let mut got: [Vec<usize>; N] = std::array::from_fn(|_| Vec::new());
        for start in &walk.starts {
            for j in 0..walk.len {
                for k in 0..N {
                    got[k].push(start[k] + j * walk.step[k]);
                }
            }
        }
        got
    }

    #[test]
    fn broadcast_walk_visits_reference_offsets_in_order() {
        for (a, b) in [
            (vec![2, 3], vec![2, 3]),
            (vec![2, 3], vec![1, 3]),
            (vec![2, 3], vec![2, 1]),
            (vec![2, 3], vec![3]),
            (vec![2, 1, 4], vec![3, 1]),
            (vec![4, 3, 3], vec![3, 3]),
            (vec![1], vec![]),
            (vec![], vec![]),
            (vec![5, 1], vec![1, 4]),
            (vec![2, 1, 3, 1], vec![1, 4, 1, 1]),
            (vec![0, 3], vec![3]),
        ] {
            let out = Shape::new(a.clone())
                .broadcast_with(&Shape::new(b.clone()))
                .expect("broadcastable");
            let walk = broadcast_walk(&a, &b, out.dims());
            let [got_a, got_b] = visited(&walk);
            let tag = format!("{a:?} x {b:?}");
            let (ea, eb) = (eff_strides(&a, out.dims()), eff_strides(&b, out.dims()));
            assert_eq!(got_a, reference_offsets(&ea, out.dims()), "{tag}: a");
            assert_eq!(got_b, reference_offsets(&eb, out.dims()), "{tag}: b");
            assert!(walk.step.iter().all(|&s| s <= 1), "{tag}: steps");
        }
    }

    #[test]
    fn permute_walk_visits_reference_offsets_in_order() {
        for (src, perm) in [
            (vec![2, 3], vec![1, 0]),
            (vec![2, 3, 4], vec![2, 0, 1]),
            (vec![2, 3, 4, 5], vec![0, 2, 1, 3]),
            (vec![1, 3, 1, 2], vec![3, 2, 1, 0]),
            (vec![4], vec![0]),
            (vec![], vec![]),
        ] {
            let walk = permute_walk(&src, &perm);
            let strides = Shape::new(src.clone()).strides();
            let out: Vec<usize> = perm.iter().map(|&p| src[p]).collect();
            let perm_strides: Vec<usize> = perm.iter().map(|&p| strides[p]).collect();
            let [got] = visited(&walk);
            assert_eq!(
                got,
                reference_offsets(&perm_strides, &out),
                "{src:?} {perm:?}"
            );
        }
    }

    #[test]
    fn binary_bwd_block_matches_the_scalar_loop_at_every_length() {
        // The per-element loop the kernel replaced, restated: zeroed
        // gradients, then `+=` of each element's derivative in output order.
        fn scalar(
            kind: BinKind,
            walk: &RowWalk<2>,
            a: &[f32],
            b: &[f32],
            g: &[f32],
            ga: &mut [f32],
            gb: &mut [f32],
        ) {
            ga.fill(0.0);
            gb.fill(0.0);
            for (r, &[ao, bo]) in walk.starts.iter().enumerate() {
                for j in 0..walk.len {
                    let (ia, ib) = (ao + j * walk.step[0], bo + j * walk.step[1]);
                    let (da, db) = kind.grad(a[ia], b[ib], g[r * walk.len + j]);
                    ga[ia] += da;
                    gb[ib] += db;
                }
            }
        }
        let special = [0.0f32, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let values = |n: usize, salt: usize| -> Vec<f32> {
            (0..n)
                .map(|i| match (i * 7 + salt) % 11 {
                    k @ 0..=4 => special[k],
                    k => ((i + salt) as f32 * 0.37).sin() * k as f32 * 0.5,
                })
                .collect()
        };
        // Rust pins no NaN sign or payload (the compiler may commute an
        // add), so every NaN compares as one value; all other bits exactly.
        let bits = |v: &[f32]| {
            v.iter()
                .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
                .collect::<Vec<_>>()
        };
        let kinds = [
            BinKind::Add,
            BinKind::Sub,
            BinKind::Mul,
            BinKind::Div,
            BinKind::SmoothL1,
        ];
        for len in 0..=33usize {
            // Same shape, a row broadcast on either side, an outer-axis
            // broadcast (one contiguous operand hit once per row), and a
            // scalar operand.
            for (da, db) in [
                (vec![3, len], vec![3, len]),
                (vec![3, len], vec![3, 1]),
                (vec![3, 1], vec![3, len]),
                (vec![1, len], vec![3, len]),
                (vec![3, len], vec![]),
            ] {
                let out = Shape::new(da.clone())
                    .broadcast_with(&Shape::new(db.clone()))
                    .expect("broadcastable");
                let walk = broadcast_walk(&da, &db, out.dims());
                let n = |d: &[usize]| d.iter().product::<usize>();
                let (a, b) = (values(n(&da), 1), values(n(&db), 4));
                let g = values(out.num_elements(), 9);
                for kind in kinds {
                    let tag = format!("{kind:?} {da:?} x {db:?}");
                    let (mut ga, mut gb) = (vec![1.0f32; a.len()], vec![1.0f32; b.len()]);
                    let (mut ra, mut rb) = (vec![0.0f32; a.len()], vec![0.0f32; b.len()]);
                    binary_bwd_block(kind, &walk, &a, &b, &g, Some(&mut ga), Some(&mut gb));
                    scalar(kind, &walk, &a, &b, &g, &mut ra, &mut rb);
                    assert_eq!(bits(&ga), bits(&ra), "{tag}: ga");
                    assert_eq!(bits(&gb), bits(&rb), "{tag}: gb");
                    // Each side alone gives the same bits.
                    let mut only_a = vec![1.0f32; a.len()];
                    binary_bwd_block(kind, &walk, &a, &b, &g, Some(&mut only_a), None);
                    assert_eq!(bits(&only_a), bits(&ra), "{tag}: ga alone");
                    let mut only_b = vec![1.0f32; b.len()];
                    binary_bwd_block(kind, &walk, &a, &b, &g, None, Some(&mut only_b));
                    assert_eq!(bits(&only_b), bits(&rb), "{tag}: gb alone");
                }
            }
        }
    }

    #[test]
    fn sum_axis_is_the_ascending_fold_from_zero() {
        // Magnitudes spread over seven decades, so any other fold order
        // would round differently.
        let dims = [2, 5, 17];
        let x: Vec<f32> = (0..170)
            .map(|v| (v as f32 * 0.37).sin() * 10f32.powi(v % 7 - 3))
            .collect();
        for axis in 0..3 {
            let ax = AxisSplit::new(&dims, axis);
            let mut out = vec![0.0f32; ax.outer * ax.inner];
            sum_axis_block(&x, &mut out, ax);
            for o in 0..ax.outer {
                for i in 0..ax.inner {
                    let mut want = 0.0f32;
                    for m in 0..ax.mid {
                        want += x[(o * ax.mid + m) * ax.inner + i];
                    }
                    let got = out[o * ax.inner + i];
                    assert_eq!(got.to_bits(), want.to_bits(), "axis {axis}");
                }
            }
        }
    }
}
