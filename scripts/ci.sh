#!/usr/bin/env bash
# The full CI gate, in the order cheapest-to-fail-first. Run from anywhere;
# works offline (the workspace has no external dependencies).
set -euo pipefail
cd "$(dirname "$0")/.."

# Formatting is advisory when rustfmt is not installed in the toolchain.
if cargo fmt --version >/dev/null 2>&1; then
  echo "==> cargo fmt --check"
  cargo fmt --all --check
else
  echo "==> cargo fmt not available; skipping format check"
fi

echo "==> cargo clippy (every target, warnings are errors)"
cargo clippy -q --workspace --all-targets -- -D warnings

echo "==> timekd-check --lints (source rules, allowlist, tracked artifacts)"
cargo run -q -p timekd-check -- --lints --strict

echo "==> timekd-check --verify (shapes checked by the engine as one real training step runs under recording; gradient-flow proofs over its replay)"
cargo run -q -p timekd-check -- --verify

echo "==> timekd-check --graph (dynamic graph audits + frozen-LM invariant)"
cargo run -q -p timekd-check -- --graph

echo "==> timekd-check --plan (forward: liveness, arena, graph diff; training proofs on the objective plan (PKD + forecast, clip, AdamW) and the teacher warm-up plan (reconstruction, clip, AdamW) the trainer runs: adjoint completeness, reverse schedule, saved-activation liveness, bitwise plan-vs-dynamic updates — all configs)"
cargo run -q -p timekd-check -- --plan --strict

echo "==> release build"
cargo build --release --workspace

echo "==> tests"
cargo test -q --workspace

echo "==> sanitizer (timekd-tensor's opt-in \`sanitize\` feature)"
# The feature is off in every other step, so compile and test it here.
cargo test -q -p timekd-tensor --features sanitize --lib sanitize

echo "==> bitwise gates (planned vs dynamic predict, objective and teacher warm-up epochs on every teacher arm, a training concat of constant operands, stored teacher targets vs a fresh teacher forward, store rebuilds and no-cache arm, planned vs dynamic epochs across a checkpoint load, zero-alloc replay and training steps, key skipping and eight-row attention groups, a group reading no key past its live count, pruned CLM forward, prompt-family CLM forward dynamic and compiled, family vs sequential frozen-LM cache, one family-plan compile per key, planned vs dynamic CLM pretraining and its trace, lane-class NT kernel, binary adjoint arms, pinned exp/tanh, AdamW and row-group dot lane kernels, libm lint, recorded plans, recorder replay)"
# Re-run the bitwise gates by name so a filtered or flaky-skipped workspace
# run can never silently drop them: the planned forecast and the planned
# objective over several steps must reproduce the dynamic engine bit for
# bit, as must the planned student epoch the dynamic per-window loop (on
# the tiny and the default student dims) and the planned teacher warm-up
# epoch its dynamic loop (every teacher arm, clipping on, a warm-up cosine
# schedule, CLM cache on and off). The teacher targets
# a model stores per training window must equal a fresh teacher forward
# bit for bit; a moved or changed window rebuilds its entry, and with the
# CLM cache off nothing is stored. Planned and dynamic epochs around a
# checkpoint save and load must reach the same parameters.
cargo test -q -p timekd -- --exact \
  plan::tests::planned_predict_is_bitwise_identical_to_dynamic \
  trainer::tests::planned_student_epoch_is_bitwise_identical_to_dynamic \
  trainer::tests::planned_teacher_epoch_is_bitwise_identical_to_dynamic \
  trainer::tests::stored_targets_equal_a_fresh_teacher_forward \
  trainer::tests::a_moved_or_changed_window_rebuilds_its_entry \
  trainer::tests::nothing_is_stored_while_the_clm_cache_is_off \
  model_io::tests::planned_epochs_train_a_loaded_checkpoint_like_dynamic_ones \
  plan::tests::planned_objective_training_is_bitwise_identical_to_dynamic \
  plan::tests::batch_trainer_reuses_cached_plan_across_rebuilds
cargo test -q -p timekd-bench --test planned_alloc
# Forbidden-key skipping must match the full-key reference bit for bit,
# for every lane-group shape: full and partial eight-row groups, groups
# cut by a live-count change, and lone rows (groups of one), over row
# windows of a mask and the Base CLM's head geometry. A group must read no
# key past its live count: NaN keys there leave its context, map and dQ
# rows bitwise unchanged. The pruned last-token CLM forward must match the
# full forward's last row, also for each member of a prompt family that
# shares its prefix's keys and values. The frozen LM replays that family
# forward as a compiled plan, which must give the same bits for every
# family, every LM size, with calibration on and off. A family batch
# through the frozen-LM cache must give the values, counters and entries of
# sequential `embed` calls, and a warm-up epoch compiles the family plan
# once per key.
cargo test -q -p timekd-tensor --test attention_key_skip -- --exact \
  key_skipping_forward_matches_full_key_reference_bitwise \
  key_skipping_gradients_match_full_key_reference_bitwise \
  rows_read_no_key_past_their_live_count
cargo test -q -p timekd-lm --test proptest_lm -- --exact \
  last_token_embedding_is_last_row_of_hidden_states_bitwise \
  prompt_family_embeddings_are_last_rows_of_hidden_states_bitwise
cargo test -q -p timekd-lm --lib -- --exact \
  frozen::tests::family_batch_matches_sequential_embeds
cargo test -q --test golden_trace -- --exact \
  warm_up_epoch_compiles_one_clm_plan_per_key
# A pretraining step reads both losses from one CLM forward: the shared
# losses equal the separate forwards' bit for bit. The steps replay one
# compiled plan, which must reproduce the dynamic step's losses and every
# parameter bit over several steps (every LM size, calibration on and
# off), and the trace shows one planned step replay per step, one compile
# and no dynamic backward. The plan's new ops (row gathers, slices with
# both first and added window writes, log-softmax, masked attention and
# a standalone softmax) and their adjoints match the dynamic graph bit for
# bit. The family plan's forward-only ops match too: `concat` and masks
# read as row windows of a fed mask; a compile error names an unlabelled
# value by id, dims and op. A training plan runs a `concat` of operands
# that take no gradient (the `w/o_CLM` teacher's windows) like the dynamic
# step, and refuses one with a tracked operand.
cargo test -q -p timekd-lm --lib -- --exact \
  pretrain::tests::shared_forward_losses_match_separate_forwards_bitwise \
  pretrain::tests::planned_pretraining_matches_dynamic_steps_bitwise \
  pretrain::tests::corpus_prompts_of_one_series_length_have_one_length
cargo test -q -p timekd-lm --test pretrain_trace -- --exact \
  pretraining_runs_one_encoder_forward_per_step
cargo test -q -p timekd-tensor --lib -- --exact \
  plan_train::tests::planned_runtime_operand_ops_train_bitwise_dynamic \
  plan::tests::masked_attention_runs_with_its_mask_fed_at_run_time \
  plan::tests::concat_runs_as_a_copy_and_training_plans_reject_it \
  plan_train::tests::concat_of_untracked_operands_trains_and_a_tracked_one_is_refused \
  plan::tests::row_sliced_masks_read_their_rows_of_the_fed_mask \
  plan::tests::unclassified_leaf_is_rejected
# The pinned transcendentals: exp and tanh within 2 ULP of an f64
# reference over the finite range, their special values, the same bits in
# a lane kernel's body and its scalar tail at every row length 0..=33, and
# softmax rows through them; the AdamW lane kernel gives the scalar
# update's bits, and the row-group dots give each lane `dot_lanes`' bits.
# The lint keeps libm's exp/tanh/exp_m1 out of the kernel layer: its rule
# trips at exact fixture lines and the shipped files pass.
cargo test -q -p timekd-tensor --test simd_equivalence -- --exact \
  pinned_exp_is_within_two_ulp_over_the_finite_range \
  pinned_tanh_is_within_two_ulp_over_the_finite_range \
  pinned_exp_and_tanh_special_values \
  lane_body_and_scalar_tail_give_the_same_bits_at_every_length \
  softmax_rows_use_the_pinned_exp_at_every_length
cargo test -q -p timekd-tensor --lib -- --exact \
  simd::tests::adamw_lanes_matches_the_scalar_update_at_every_length \
  simd::tests::row_group_dots_match_dot_lanes_per_lane \
  simd::tests::transpose8_swaps_rows_and_lanes
# The NT matmul adjoint runs `dot_lanes` for 8 outputs at once (one
# accumulator per lane class): a plain-loop restatement of that order must
# match it over every (m, k, n) up to 17, dynamically and through a
# planned training step. The binary adjoint's per-kind
# arms must give the scalar loop's bits at every length 0..=33.
cargo test -q -p timekd-tensor --test simd_equivalence -- --exact \
  nt_lane_class_kernel_matches_scalar_reference \
  planned_nt_adjoint_matches_lane_class_reference
cargo test -q -p timekd-tensor --lib -- --exact \
  ops::kernels::tests::binary_bwd_block_matches_the_scalar_loop_at_every_length
cargo test -q -p timekd-check --test trip -- --exact \
  libm_transcendentals_in_kernel_files_trip_on_exact_lines \
  libm_transcendental_rule_is_path_scoped \
  real_kernel_files_use_only_pinned_transcendentals
# Plans are lowered from a recording of the real modules: every plan the
# `--plan` matrix covers must match the committed fingerprint fixture, and
# every replayed op must copy the recorded node's op, dims, payload and
# grad flag. Every teacher arm's warm-up plan passes every `--plan` pass,
# and its divergence pass catches a plan that freezes a teacher parameter.
cargo test -q -p timekd-check --lib -- --exact \
  plan::tests::plan_fingerprints_match_the_committed_fixture \
  plan::tests::clean_teacher_plans_pass_every_pass_and_divergence \
  plan::tests::teacher_divergence_pass_catches_a_frozen_teacher_param
cargo test -q -p timekd-tensor --lib -- --exact \
  recorder::tests::every_replayed_op_copies_the_recorded_node

echo "==> serving integration suite (number reader vs str::parse, typed body decode vs the Json tree, activation order, pooled executors, bitwise parity, hot-swap under load, registry faults, framing differential + fuzz)"
# Same rationale as the determinism gates: re-run the serving contract
# tests by name so a filtered workspace run can never silently drop them.
# The JSON number reader must give `str::parse::<f64>`'s bits or its
# rejection, and the typed `/forecast` and `/observe` body decode the
# status, error text and f32 bits of `Json::parse` plus the tree walkers.
# The executor pool must serve every window bitwise as a fresh executor
# and never bind more executors than there are cores. Activations run in
# request order, so an earlier, slower one cannot overwrite a later one.
cargo test -q -p timekd-obs --lib -- --exact \
  json::tests::number_reader_matches_str_parse_bit_for_bit
cargo test -q -p timekd-serve --lib -- --exact \
  server::tests::typed_decode_matches_the_tree_reference \
  server::tests::earlier_slower_activation_cannot_overwrite_a_later_one \
  registry::tests::pooled_forecasts_are_bitwise_fresh_and_bounded_under_contention
cargo test -q -p timekd-serve --test http_serving
cargo test -q -p timekd-serve --test registry_faults
cargo test -q -p timekd-serve --test http_framing

echo "==> benchmark package tests (result-line schema, metric tables)"
# The benchmark package is its own workspace, so the workspace run above
# never reaches its tests; run them here.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> observability gate (golden trace + overhead guard + traced quickstart)"
if ! scripts/trace.sh; then
  echo "ci.sh: observability gate failed" >&2
  exit 1
fi

echo "CI gate passed."
