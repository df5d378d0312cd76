//! Batched multi-window planned training.
//!
//! [`Plan::compile_training_batched`] augments a per-window training plan
//! (one forward + reverse schedule, see [`crate::plan_train`]) with batch
//! metadata: a lane count `B`, a per-lane arena stride, and a pinned list
//! of [`ReduceStep`]s. [`BatchTrainExecutor`] then replays that schedule
//! once per staged window on `B` private lanes — fanned out over the
//! worker pool so each worker owns a disjoint, contiguous window range,
//! clamped to the physically available parallelism — folds the
//! per-window gradients into lane 0, and applies the fused optimizer
//! exactly once per batch.
//!
//! ## Determinism contract
//!
//! The reduction order is keyed by *window index*, never by thread id or
//! arrival order: lane 0 starts from window 0's gradients and the pinned
//! [`ReduceStep`] sequence adds windows `1, 2, …, B-1` element-wise in
//! exactly that order (update-schedule order within a window). Each
//! lane's replay is the serial single-window schedule — kernels called
//! from inside a pool region collapse to their serial paths — so any
//! `TIMEKD_THREADS` and any shard partition is bitwise identical to the
//! serial window loop.

use crate::parallel::{effective_threads, hardware_threads, parallel_for, with_serial_region};
use crate::plan::{Plan, PlanError, PlanSpec, ValueId};
use crate::plan_train::{TrainExecutor, TrainSpec};
use crate::symbolic::SymbolicTensor;

/// One pinned cross-window gradient reduction: add lane `src_lane`'s
/// copy of gradient `grad` into lane 0's copy, element-wise ascending.
/// A batched plan orders its steps by ascending `src_lane` (window
/// index) first and update-schedule position second; `timekd-check
/// --plan` re-derives and enforces exactly that sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReduceStep {
    /// The gradient value folded into lane 0.
    pub grad: ValueId,
    /// The source lane (window index), always in `1..batch`.
    pub src_lane: usize,
}

impl Plan {
    /// Compiles a batched training plan: the per-window schedule of
    /// [`Plan::compile_training`] plus batch metadata — `batch` lanes, a
    /// lane stride of one full arena (lanes are physically disjoint),
    /// and the pinned gradient-reduction sequence described on
    /// [`ReduceStep`]. `batch == 1` degenerates to the per-window plan
    /// with an empty reduction list.
    pub fn compile_training_batched(
        root: &SymbolicTensor,
        spec: &PlanSpec,
        train: &TrainSpec,
        batch: usize,
    ) -> Result<Plan, PlanError> {
        if batch == 0 {
            return Err(PlanError::new("batched training plan requires batch ≥ 1"));
        }
        let mut plan = Plan::compile_training(root, spec, train)?;
        plan.batch = batch;
        plan.lane_stride = plan.arena_len();
        let mut reduce_steps =
            Vec::with_capacity(batch.saturating_sub(1) * plan.update_steps().len());
        for lane in 1..batch {
            for u in plan.update_steps() {
                reduce_steps.push(ReduceStep {
                    grad: u.grad,
                    src_lane: lane,
                });
            }
        }
        plan.reduce_steps = reduce_steps;
        Ok(plan)
    }
}

/// A [`ReduceStep`] resolved to its arena region at bind time.
#[derive(Clone, Copy, Debug)]
struct ReduceExec {
    src_lane: usize,
    off: usize,
    len: usize,
}

/// Replays a batched training [`Plan`] over up to `B` windows per step
/// with zero steady-state heap allocation. Every lane is a private
/// [`TrainExecutor`] (its own arena, adjoint scratch, and parameter
/// copies), so parallel window replays never share mutable state; lane 0
/// additionally owns the optimizer moments and the authoritative
/// parameters, which are broadcast back to the other lanes after each
/// update.
#[derive(Debug)]
pub struct BatchTrainExecutor {
    /// Lane 0 owns the optimizer; lanes `1..` are gradient factories.
    lanes: Vec<TrainExecutor>,
    reduce: Vec<ReduceExec>,
    /// Staged window inputs, `batch × input_len`, row-major by window.
    x_buf: Vec<f32>,
    batch: usize,
    input_len: usize,
}

impl BatchTrainExecutor {
    /// Builds `plan.batch()` lanes, resolving parameters through
    /// `param_source` once per lane so every lane starts from identical
    /// weights. Fails on plans without batch metadata (use
    /// [`Plan::compile_training_batched`]) and on plans whose lane
    /// stride would overlap per-lane arenas.
    pub fn new(
        plan: &Plan,
        mut param_source: impl FnMut(&str, &[usize]) -> Option<Vec<f32>>,
    ) -> Result<BatchTrainExecutor, PlanError> {
        let batch = plan.batch();
        if batch == 0 {
            return Err(PlanError::new(
                "plan has no batch metadata; use Plan::compile_training_batched",
            ));
        }
        if plan.lane_stride() < plan.arena_len() {
            return Err(PlanError::new(
                "batched plan's lane stride overlaps per-lane arenas; refusing to bind",
            ));
        }
        let mut lanes = Vec::with_capacity(batch);
        for _ in 0..batch {
            lanes.push(TrainExecutor::new(plan, |l, d| param_source(l, d))?);
        }
        let mut reduce = Vec::with_capacity(plan.reduce_steps().len());
        for r in plan.reduce_steps() {
            if r.src_lane == 0 || r.src_lane >= batch {
                return Err(PlanError::new(format!(
                    "reduce step reads lane {} outside 1..{batch}",
                    r.src_lane
                )));
            }
            let (off, len) = plan
                .arena_range(r.grad)
                .ok_or_else(|| PlanError::new("reduce step names a gradient with no arena slot"))?;
            reduce.push(ReduceExec {
                src_lane: r.src_lane,
                off,
                len,
            });
        }
        let input_len = lanes[0].input_len();
        Ok(BatchTrainExecutor {
            x_buf: vec![0.0; batch * input_len],
            lanes,
            reduce,
            batch,
            input_len,
        })
    }

    /// Stages window `w`'s input and target ahead of [`Self::run_batch`].
    pub fn stage_window(&mut self, w: usize, x: &[f32], y: &[f32]) {
        assert!(w < self.batch, "window index out of range");
        assert_eq!(x.len(), self.input_len, "input length mismatch");
        self.x_buf[w * self.input_len..(w + 1) * self.input_len].copy_from_slice(x);
        self.lanes[w].set_target(y);
    }

    /// Stages auxiliary feed `k` (indexed per
    /// [`crate::plan::PlanSpec::aux_labels`]) for window `w`.
    pub fn stage_aux(&mut self, w: usize, k: usize, data: &[f32]) {
        assert!(w < self.batch, "window index out of range");
        self.lanes[w].set_aux(k, data);
    }

    /// Runs one batched step over the first `count` staged windows:
    /// parallel per-window forward+backward replays, the pinned gradient
    /// reduction into lane 0, then lane-0 gradient clipping and optimizer
    /// update. Lane 0's parameters are canonical; the other lanes read
    /// them via a broadcast (parallel replay) or an O(1) buffer loan
    /// (serial replay) at the start of the next replay. `count < batch`
    /// serves an epoch's tail; reductions sourced from unstaged lanes
    /// are skipped. Read per-window losses back with [`Self::lane_loss`].
    pub fn run_batch(&mut self, count: usize) {
        assert!(count >= 1 && count <= self.batch, "count outside 1..=batch");
        self.replay_lanes_block(count);
        self.reduce_plan_loop(count);
        self.lanes[0].run_grad_clip();
        self.lanes[0].run_optimizer();
    }

    /// Fans the first `count` window replays out over the worker pool.
    /// Each block owns a contiguous window range computed from `count`
    /// and the block count alone, so the partition is independent of
    /// scheduling; lane replays collapse to the serial single-window
    /// schedule inside the pool region, making every partition
    /// bitwise-identical.
    ///
    /// The shard count is additionally clamped to the *physically*
    /// available parallelism: an oversubscribed pool (`TIMEKD_THREADS`
    /// above the hardware) would only time-slice the same cores, and
    /// every slice re-streams a full lane arena through the cache. The
    /// clamp is pure scheduling — the determinism contract above means
    /// no partition can change a single bit. When the shards collapse to
    /// one block the lane loop runs inline inside an explicit serial
    /// region, so lane replays keep the batch region's "no op-level
    /// fan-out" contract either way.
    fn replay_lanes_block(&mut self, count: usize) {
        let blocks = effective_threads().min(hardware_threads()).min(count);
        let il = self.input_len;
        if blocks <= 1 {
            let (lane0, rest) = self.lanes.split_at_mut(1);
            let x_buf = &self.x_buf;
            with_serial_region(|| {
                lane0[0].run_forward_backward(&x_buf[..il]);
                for (i, lane) in rest.iter_mut().take(count.saturating_sub(1)).enumerate() {
                    let w = i + 1;
                    // Lend lane 0's canonical parameters to lane `w` for
                    // its replay: an O(1) buffer swap instead of a full
                    // broadcast copy, possible only because the lanes run
                    // one at a time here.
                    std::mem::swap(&mut lane0[0].fwd.params, &mut lane.fwd.params);
                    lane.run_forward_backward(&x_buf[w * il..(w + 1) * il]);
                    std::mem::swap(&mut lane0[0].fwd.params, &mut lane.fwd.params);
                }
            });
            return;
        }
        // Concurrent lanes each need their own copy of the post-update
        // parameters; refresh them from lane 0 just before the fan-out.
        self.broadcast_params_block();
        let lanes_addr = self.lanes.as_mut_ptr() as usize;
        let x_buf = &self.x_buf;
        parallel_for(blocks, |b| {
            let base = count / blocks;
            let extra = count % blocks;
            let start = b * base + b.min(extra);
            let len = base + usize::from(b < extra);
            for w in start..start + len {
                // SAFETY: window `w` belongs to exactly one block, so no
                // other task touches lane `w`; the lane buffer outlives
                // the (blocking) parallel region.
                let lane = unsafe { &mut *(lanes_addr as *mut TrainExecutor).add(w) };
                lane.run_forward_backward(&x_buf[w * il..(w + 1) * il]);
            }
        });
    }

    /// Folds per-window gradients into lane 0 in the pinned order:
    /// ascending source lane (window index) first, update-schedule order
    /// within a lane. The element-wise ascending adds reproduce the
    /// serial window loop's accumulation fold bitwise.
    fn reduce_plan_loop(&mut self, count: usize) {
        let (dst_lane, src_lanes) = self.lanes.split_at_mut(1);
        let dst = &mut dst_lane[0].fwd.arena;
        for r in &self.reduce {
            if r.src_lane >= count {
                continue;
            }
            let src = &src_lanes[r.src_lane - 1].fwd.arena[r.off..r.off + r.len];
            for (d, s) in dst[r.off..r.off + r.len].iter_mut().zip(src) {
                *d += *s;
            }
        }
    }

    /// Copies lane 0's post-update parameters into every other lane so a
    /// *concurrent* replay reads the new weights; the serial replay path
    /// loans lane 0's buffers out instead and never calls this.
    fn broadcast_params_block(&mut self) {
        let (lane0, rest) = self.lanes.split_at_mut(1);
        let src = &lane0[0].fwd.params;
        for lane in rest.iter_mut() {
            for (dst, s) in lane.fwd.params.iter_mut().zip(src.iter()) {
                dst.copy_from_slice(s);
            }
        }
    }

    /// The lane count `B` the plan was compiled for.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Flattened input length of one window.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Flattened target length of one window.
    pub fn target_len(&self) -> usize {
        self.lanes[0].target_len()
    }

    /// Length of auxiliary feed `k`, or 0 when the plan never reads it.
    pub fn aux_len(&self, k: usize) -> usize {
        self.lanes[0].aux_len(k)
    }

    /// Number of bound parameters (plan binding order).
    pub fn num_params(&self) -> usize {
        self.lanes[0].num_params()
    }

    /// Parameter `idx`'s current data; lane 0 is authoritative.
    pub fn param_data(&self, idx: usize) -> &[f32] {
        self.lanes[0].param_data(idx)
    }

    /// The fused AdamW step count.
    pub fn step_count(&self) -> u64 {
        self.lanes[0].step_count()
    }

    /// Seeds the AdamW step counter, mirroring
    /// [`TrainExecutor::set_step_count`].
    pub fn set_step_count(&mut self, n: u64) {
        self.lanes[0].set_step_count(n);
    }

    /// Overrides the learning rate for subsequent batches.
    pub fn set_lr(&mut self, lr: f32) {
        self.lanes[0].set_lr(lr);
    }

    /// Window `w`'s loss from the latest [`Self::run_batch`].
    pub fn lane_loss(&self, w: usize) -> f32 {
        self.lanes[w].loss()
    }

    /// Reads `len` floats at arena offset `off` in window `w`'s lane.
    /// Pair with [`Plan::pinned`] and [`Plan::arena_range`] to pull
    /// pinned component values out of a finished batch.
    pub fn lane_value(&self, w: usize, off: usize, len: usize) -> &[f32] {
        self.lanes[w].arena_value(off, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::with_threads;
    use crate::plan::{PlanFault, ValueSource};
    use crate::plan_train::tests::{adamw, bits, dyn_adamw, mlp_loss, param_bank, spec, windows};
    use crate::plan_train::PlanOptimizer;
    use crate::Tensor;

    /// The serial micro-batched oracle: accumulate each chunk's window
    /// gradients in ascending window order on the live autograd graph,
    /// then take exactly one optimizer step per chunk.
    fn dynamic_microbatch_train(
        w0: &[f32],
        b0: &[f32],
        xs: &[Vec<f32>],
        ys: &[Vec<f32>],
        batch: usize,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let w = Tensor::param(w0.to_vec(), [3, 2]);
        let b = Tensor::param(b0.to_vec(), [2]);
        let mut opt = dyn_adamw();
        let mut losses = Vec::new();
        let mut i = 0;
        while i < xs.len() {
            let count = batch.min(xs.len() - i);
            w.zero_grad();
            b.zero_grad();
            for k in 0..count {
                let x = Tensor::from_vec(xs[i + k].clone(), [4, 3]);
                let y = Tensor::from_vec(ys[i + k].clone(), [4, 2]);
                let h = x.matmul(&w).add(&b).relu();
                let loss = h.smooth_l1(&y).mean();
                losses.push(loss.item());
                loss.backward();
            }
            opt.step(&[w.clone(), b.clone()]);
            i += count;
        }
        (w.to_vec(), b.to_vec(), losses)
    }

    fn batched_plan(optimizer: PlanOptimizer, batch: usize) -> (Plan, usize, usize) {
        let plan = Plan::compile_training_batched(
            &mlp_loss(),
            &spec(),
            &TrainSpec::new("y", optimizer),
            batch,
        )
        .expect("batched plan compiles");
        let labels: Vec<String> = plan
            .values()
            .iter()
            .filter(|v| v.source == ValueSource::Param)
            .map(|v| v.label.clone())
            .collect();
        let wi = labels.iter().position(|l| l == "w").unwrap();
        let bi = labels.iter().position(|l| l == "bias").unwrap();
        (plan, wi, bi)
    }

    fn batched_train(
        optimizer: PlanOptimizer,
        w0: &[f32],
        b0: &[f32],
        xs: &[Vec<f32>],
        ys: &[Vec<f32>],
        batch: usize,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let (plan, wi, bi) = batched_plan(optimizer, batch);
        let mut exec = BatchTrainExecutor::new(&plan, |label, _| match label {
            "w" => Some(w0.to_vec()),
            "bias" => Some(b0.to_vec()),
            _ => None,
        })
        .expect("batched executor binds");
        let mut losses = Vec::new();
        let mut i = 0;
        while i < xs.len() {
            let count = batch.min(xs.len() - i);
            for k in 0..count {
                exec.stage_window(k, &xs[i + k], &ys[i + k]);
            }
            exec.run_batch(count);
            for k in 0..count {
                losses.push(exec.lane_loss(k));
            }
            i += count;
        }
        (
            exec.param_data(wi).to_vec(),
            exec.param_data(bi).to_vec(),
            losses,
        )
    }

    #[test]
    fn batched_training_matches_dynamic_microbatch_grid() {
        let (w0, b0) = param_bank();
        // 7 windows: uneven shards at B ∈ {2, 5} and a tail chunk at
        // every batch that does not divide 7.
        let (xs, ys) = windows(7);
        for &threads in &[1usize, 2, 5] {
            for &batch in &[1usize, 2, 5, 7] {
                let (dw, db, dl) = dynamic_microbatch_train(&w0, &b0, &xs, &ys, batch);
                let (pw, pb, pl) = with_threads(threads, || {
                    batched_train(adamw(), &w0, &b0, &xs, &ys, batch)
                });
                assert_eq!(dw, pw, "AdamW weights t={threads} B={batch}");
                assert_eq!(db, pb, "AdamW bias t={threads} B={batch}");
                assert_eq!(bits(&dl), bits(&pl), "AdamW losses t={threads} B={batch}");
            }
        }
    }

    #[test]
    fn batch_one_is_bitwise_the_per_window_executor() {
        let (w0, b0) = param_bank();
        let (xs, ys) = windows(5);
        let plan = Plan::compile_training(&mlp_loss(), &spec(), &TrainSpec::new("y", adamw()))
            .expect("per-window plan compiles");
        let mut exec = TrainExecutor::new(&plan, |label, _| match label {
            "w" => Some(w0.to_vec()),
            "bias" => Some(b0.to_vec()),
            _ => None,
        })
        .expect("per-window executor binds");
        let mut serial_losses = Vec::new();
        for (xv, yv) in xs.iter().zip(&ys) {
            serial_losses.push(exec.run_train_step(xv, yv));
        }
        let (pw, pb, pl) = batched_train(adamw(), &w0, &b0, &xs, &ys, 1);
        assert_eq!(exec.param_data(0), &pw[..], "param 0 diverges at B=1");
        assert_eq!(exec.param_data(1), &pb[..], "param 1 diverges at B=1");
        assert_eq!(bits(&serial_losses), bits(&pl), "losses diverge at B=1");
    }

    #[test]
    fn batch_metadata_pins_the_reduction_order() {
        let (plan, _, _) = batched_plan(adamw(), 4);
        assert_eq!(plan.batch(), 4);
        assert_eq!(plan.lane_stride(), plan.arena_len());
        let upd = plan.update_steps();
        let reduce = plan.reduce_steps();
        assert_eq!(reduce.len(), 3 * upd.len(), "one pass per extra lane");
        for (i, r) in reduce.iter().enumerate() {
            let lane = 1 + i / upd.len();
            let u = i % upd.len();
            assert_eq!(r.src_lane, lane, "step {i} lane order");
            assert_eq!(r.grad, upd[u].grad, "step {i} grad order");
        }
    }

    #[test]
    fn per_window_plan_carries_no_batch_metadata() {
        let plan = Plan::compile_training(&mlp_loss(), &spec(), &TrainSpec::new("y", adamw()))
            .expect("per-window plan compiles");
        assert_eq!(plan.batch(), 0);
        assert_eq!(plan.lane_stride(), 0);
        assert!(plan.reduce_steps().is_empty());
        let err = BatchTrainExecutor::new(&plan, |_, _| None)
            .expect_err("binding a per-window plan fails");
        assert!(
            err.to_string().contains("batch metadata"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn zero_batch_is_rejected_at_compile() {
        let err =
            Plan::compile_training_batched(&mlp_loss(), &spec(), &TrainSpec::new("y", adamw()), 0)
                .expect_err("batch 0 rejected");
        assert!(err.to_string().contains("batch ≥ 1"), "unexpected: {err}");
    }

    #[test]
    fn overlapping_lane_arenas_are_rejected_at_bind() {
        let (w0, b0) = param_bank();
        let (mut plan, _, _) = batched_plan(adamw(), 2);
        plan.inject_fault(PlanFault::OverlapLaneArenas);
        let err = BatchTrainExecutor::new(&plan, |label, _| match label {
            "w" => Some(w0.to_vec()),
            "bias" => Some(b0.to_vec()),
            _ => None,
        })
        .expect_err("overlapping lanes rejected");
        assert!(
            err.to_string().contains("lane stride overlaps"),
            "unexpected error: {err}"
        );
    }
}
