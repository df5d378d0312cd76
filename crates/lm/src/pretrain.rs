//! In-process pretraining of the causal LM on a synthetic prompt corpus.
//!
//! The paper plugs in GPT-2 pretrained on WebText, and relies on one
//! property of that model: *the last-token embedding of a prompt encodes
//! the numeric values written in the prompt* (that is what the teacher's
//! reconstruction head decodes). Offline, a tiny LM pretrained for a few
//! dozen steps with the plain next-token objective does not acquire that
//! property, so pretraining here is multi-task:
//!
//! 1. **next-token cross-entropy** over ground-truth-style prompts drawn
//!    from the Fig. 2 grammar (teaches the prompt syntax and digit
//!    statistics), and
//! 2. **value regression**: a throw-away linear head must recover the
//!    prompt's future values from the last-token embedding (instils the
//!    value-encoding property the teacher depends on).
//!
//! The regression head is discarded after pretraining; the frozen LM keeps
//! only what GPT-2 would have had anyway. See DESIGN.md ("Substitutions").
//!
//! A run records its first step — forward, backward, `clip_grad_norm(1.0)`
//! and AdamW — and compiles it into one training plan (`PretrainPlan`),
//! which every step replays with no graph and no allocation, bitwise the
//! dynamic step. The held-out evaluations stay dynamic `no_grad` forwards.

use timekd_nn::{AdamWConfig, Linear, Module};
use timekd_tensor::{
    record, sample_standard_normal, seeded_rng, Plan, PlanError, PlanOptimizer, PlanSpec, Recorder,
    SeededRng, Tensor, TrainExecutor, TrainSpec, ValueSource,
};

use crate::config::LmConfig;
use crate::model::CausalLm;
use crate::tokenizer::{PromptPiece, PromptTokenizer, Token};

/// Version of the pretraining recipe: which bits [`pretrain_lm`] produces
/// for a given [`LmConfig`] and [`PretrainConfig`]. It changes whenever the
/// pretrained weights' bits do, so state saved against one pretrained CLM
/// (see `timekd::save_checkpoint`) is never loaded onto another.
///
/// - 1: a next-token forward plus a separate full forward for the value
///   loss in every step.
/// - 2: one shared forward per step (both losses read the same hidden
///   states, so one graph is differentiated).
/// - 3: every kernel-layer `exp` and `tanh` (softmax, attention, GELU) is
///   the pinned lane kernel of `timekd_tensor::simd` instead of libm's.
///
/// Replaying the step as a compiled plan moves no bit, so it is still
/// recipe 3.
pub const PRETRAIN_RECIPE: u32 = 3;

/// Pretraining hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct PretrainConfig {
    /// Number of optimisation steps.
    pub steps: usize,
    /// Series length embedded in each sampled prompt (history and future
    /// halves).
    pub series_len: usize,
    /// Learning rate.
    pub lr: f32,
    /// Weight of the auxiliary value-regression loss.
    pub value_regression_weight: f32,
    /// RNG seed for the corpus and init.
    pub seed: u64,
}

impl Default for PretrainConfig {
    fn default() -> Self {
        PretrainConfig {
            steps: 400,
            series_len: 12,
            lr: 3e-3,
            value_regression_weight: 3.0,
            seed: 1234,
        }
    }
}

/// One corpus example: a ground-truth-style prompt (history + future
/// values, Fig. 2a) plus the future values as regression targets.
pub struct CorpusExample {
    /// Tokenised prompt.
    pub tokens: Vec<Token>,
    /// The future values written in the prompt (regression targets).
    pub future_values: Vec<f32>,
}

/// Samples one corpus example: a standardised AR(1) series rendered through
/// the ground-truth prompt template.
pub fn sample_corpus_example(
    tokenizer: &PromptTokenizer,
    series_len: usize,
    rng: &mut SeededRng,
) -> CorpusExample {
    let mut pieces = vec![
        PromptPiece::Word("from"),
        PromptPiece::Number(1.0),
        PromptPiece::Word("to"),
        PromptPiece::Number(series_len as f32),
        PromptPiece::Word(","),
        PromptPiece::Word("values"),
        PromptPiece::Word("were"),
    ];
    // Standardised AR(1): matches the distribution of scaled dataset
    // windows the teacher will feed through the frozen model.
    let mut v = sample_standard_normal(rng);
    let mut sample_next = |rng: &mut SeededRng| {
        v = 0.85 * v + 0.5 * sample_standard_normal(rng);
        v
    };
    for _ in 0..series_len {
        let val = sample_next(rng);
        pieces.push(PromptPiece::Number(val));
        pieces.push(PromptPiece::Word(","));
    }
    pieces.push(PromptPiece::Word("every"));
    pieces.push(PromptPiece::Number(rng.gen_range(1..=60) as f32));
    pieces.push(PromptPiece::Word("minutes"));
    pieces.push(PromptPiece::Word("."));
    pieces.push(PromptPiece::Word("next"));
    pieces.push(PromptPiece::Number(series_len as f32));
    pieces.push(PromptPiece::Word("steps"));
    pieces.push(PromptPiece::Word(":"));
    let mut future_values = Vec::with_capacity(series_len);
    for i in 0..series_len {
        let val = sample_next(rng);
        // Regress what is actually written in the prompt (the bin center),
        // not the unquantized sample.
        let written = tokenizer.quantize(val);
        future_values.push(written);
        pieces.push(PromptPiece::Number(val));
        if i + 1 < series_len {
            pieces.push(PromptPiece::Word(","));
        }
    }
    // End on the final value token, matching the Fig. 2a template: the
    // extracted last token must be numeric so calibrated attention does not
    // penalise its view of the other value tokens.
    CorpusExample {
        tokens: tokenizer.encode(&pieces),
        future_values,
    }
}

/// Backwards-compatible helper returning only the tokens (used by the
/// kernel microbenchmarks).
pub fn sample_corpus_prompt(
    tokenizer: &PromptTokenizer,
    series_len: usize,
    rng: &mut SeededRng,
) -> Vec<Token> {
    sample_corpus_example(tokenizer, series_len, rng).tokens
}

/// Initialises the numeric-bin token embeddings with a smooth value
/// encoding: each bin's row is `v·u₁ + |v|·u₂ + ε`, with fixed random unit
/// directions `u₁, u₂` and small noise `ε`.
///
/// Large pretrained LMs demonstrably embed numerals so that magnitude is
/// (approximately) linearly decodable; a from-scratch tiny LM starts with
/// i.i.d. rows and has to *discover* that structure, which dominates the
/// pretraining budget. Installing the prior reproduces the property the
/// teacher actually relies on (see DESIGN.md "Substitutions"); the rows
/// remain trainable.
pub fn install_numeracy_prior(lm: &CausalLm, vocab: &PromptTokenizer, rng: &mut SeededRng) {
    let dim = lm.config().dim;
    let unit = |rng: &mut SeededRng| {
        let mut u: Vec<f32> = (0..dim).map(|_| sample_standard_normal(rng)).collect();
        let norm = u.iter().map(|x| x * x).sum::<f32>().sqrt();
        for x in &mut u {
            *x /= norm;
        }
        u
    };
    let u1 = unit(rng);
    let u2 = unit(rng);
    let table = lm.token_embedding_table();
    let vocab_size = table.dims()[0];
    let mut data = table.to_vec();
    for id in 0..vocab_size {
        let token = Token {
            id,
            modality: crate::tokenizer::Modality::Numeric,
        };
        if let Some(v) = vocab.token_value(token) {
            let v_scaled = v / crate::tokenizer::BIN_MAX; // in [-1, 1]
            for d in 0..dim {
                data[id * dim + d] = 0.5 * v_scaled * u1[d]
                    + 0.25 * v_scaled.abs() * u2[d]
                    + 0.02 * sample_standard_normal(rng);
            }
        }
    }
    table.copy_from_slice(&data);
}

/// Report of a pretraining run.
#[derive(Debug, Clone, Copy)]
pub struct PretrainReport {
    /// LM loss on a held-out prompt before training.
    pub initial_loss: f32,
    /// Held-out LM loss after training.
    pub final_loss: f32,
    /// Value-regression MSE on the held-out prompt before training.
    pub initial_value_mse: f32,
    /// Held-out value-regression MSE after training.
    pub final_value_mse: f32,
    /// Steps actually taken.
    pub steps: usize,
}

/// Pretrains a fresh LM on the synthetic prompt corpus and returns it
/// together with a loss report. The returned model should be treated as
/// frozen by callers (see [`crate::FrozenLm`]).
pub fn pretrain_lm(
    vocab: &PromptTokenizer,
    lm_config: LmConfig,
    config: PretrainConfig,
) -> (CausalLm, PretrainReport) {
    let _span = timekd_obs::span("lm.pretrain");
    let mut rng = seeded_rng(config.seed);
    let lm = CausalLm::new(vocab.vocab_size(), lm_config, &mut rng);
    install_numeracy_prior(&lm, vocab, &mut rng);
    let value_head = Linear::new(lm_config.dim, config.series_len, &mut rng);
    let params = pretrain_params(&lm, &value_head);
    let mut holdout_rng = seeded_rng(config.seed ^ 0xdead_beef);
    let holdouts: Vec<CorpusExample> = (0..8)
        .map(|_| sample_corpus_example(vocab, config.series_len, &mut holdout_rng))
        .collect();
    let eval = |lm: &CausalLm, head: &Linear| {
        timekd_tensor::no_grad(|| {
            let mut lm_loss = 0.0f32;
            let mut value_mse = 0.0f32;
            for h in &holdouts {
                let (loss, value) = example_losses(lm, head, h);
                lm_loss += loss.item();
                value_mse += value.item();
            }
            (
                lm_loss / holdouts.len() as f32,
                value_mse / holdouts.len() as f32,
            )
        })
    };
    let (initial_loss, initial_value_mse) = eval(&lm, &value_head);
    // The plan and its arena live for this loop only.
    let mut planned: Option<PretrainPlan> = None;
    for _ in 0..config.steps {
        let example = sample_corpus_example(vocab, config.series_len, &mut rng);
        let feeds = StepFeeds::new(&lm, &example, true);
        let plan = match &mut planned {
            Some(plan) => plan,
            None => planned.insert(
                PretrainPlan::compile(&lm, &value_head, &params, &feeds, &config)
                    .unwrap_or_else(|e| panic!("CLM pretraining step does not plan: {e}")),
            ),
        };
        plan.step(&lm, &feeds);
    }
    if let Some(plan) = planned {
        plan.write_back(&params);
    }
    let (final_loss, final_value_mse) = eval(&lm, &value_head);
    // The model is handed out as frozen: leave no stale gradients behind.
    lm.zero_grad();
    (
        lm,
        PretrainReport {
            initial_loss,
            final_loss,
            initial_value_mse,
            final_value_mse,
            steps: config.steps,
        },
    )
}

/// Every parameter a pretraining step trains, under its naming-walk label:
/// the LM's (`lm.…`) then the throw-away value head's (`value_head.…`).
/// This order is the gradient-clipping traversal order.
fn pretrain_params(lm: &CausalLm, value_head: &Linear) -> Vec<(String, Tensor)> {
    let mut params = lm.named_params("lm");
    params.extend(value_head.named_params("value_head"));
    params
}

/// The AdamW settings of pretraining: the defaults with no weight decay.
fn pretrain_adamw() -> AdamWConfig {
    AdamWConfig {
        weight_decay: 0.0,
        ..Default::default()
    }
}

/// What one pretraining example feeds a step besides the weights.
pub(crate) struct StepFeeds {
    /// Token ids `[S]`, exact in f32.
    ids: Tensor,
    /// The attention mask `[S, S]`.
    mask: Tensor,
    /// Next-token targets `[S − 1]`, exact in f32.
    next_ids: Tensor,
    /// The written future values `[1, n]` the value head regresses.
    values: Tensor,
    /// Whether the mask is calibrated (Eq. 5) or plain causal.
    calibrated: bool,
}

impl StepFeeds {
    pub(crate) fn new(lm: &CausalLm, example: &CorpusExample, calibrated: bool) -> StepFeeds {
        let (ids, mask) = lm.prompt_feeds(&example.tokens, 0, calibrated);
        let next: Vec<usize> = example.tokens[1..].iter().map(|t| t.id).collect();
        let n = example.future_values.len();
        StepFeeds {
            ids,
            mask,
            next_ids: Tensor::indices(&next),
            values: Tensor::from_vec(example.future_values.clone(), [1, n]),
            calibrated,
        }
    }

    /// Prompt length `S`.
    fn tokens(&self) -> usize {
        self.ids.num_elements()
    }

    /// The positional rows `PE[0..S]` this prompt reads: a slice of the
    /// table.
    fn positions(&self, lm: &CausalLm) -> Tensor {
        lm.positional_table().slice(0, 0, self.tokens())
    }
}

/// The next-token loss and the value-regression MSE of one example, both
/// read from one [`CausalLm::hidden_states`] forward: the loss from every
/// row, the value head from the last row (bitwise the prompt's
/// [`CausalLm::last_token_embedding`]). A step differentiates one graph.
fn example_losses(lm: &CausalLm, value_head: &Linear, example: &CorpusExample) -> (Tensor, Tensor) {
    let feeds = StepFeeds::new(lm, example, true);
    example_losses_fed(lm, value_head, &feeds, &feeds.positions(lm))
}

/// [`example_losses`] from an example's [`StepFeeds`], with the
/// positional rows `pos` `[S, D]` (see [`CausalLm::hidden_states_at`]).
fn example_losses_fed(
    lm: &CausalLm,
    value_head: &Linear,
    feeds: &StepFeeds,
    pos: &Tensor,
) -> (Tensor, Tensor) {
    let hidden = lm.hidden_states_at(&feeds.ids, pos, &feeds.mask);
    let lm_loss = lm.next_token_loss_of(&hidden, &feeds.next_ids);
    let last = hidden.slice(0, feeds.tokens() - 1, 1); // [1, D]
    let value_loss = value_head.forward(&last).sub(&feeds.values).square().mean();
    (lm_loss, value_loss)
}

/// A step's total loss: next-token cross-entropy plus the weighted value
/// regression.
fn step_loss(
    lm: &CausalLm,
    value_head: &Linear,
    feeds: &StepFeeds,
    pos: &Tensor,
    weight: f32,
) -> Tensor {
    let (lm_loss, value_loss) = example_losses_fed(lm, value_head, feeds, pos);
    lm_loss.add(&value_loss.mul_scalar(weight))
}

/// Plan labels of the [`StepFeeds`]: the token ids are the plan input,
/// the mask and next-token ids aux feeds (in this slot order), the values
/// the training target.
const IDS_LABEL: &str = "lm.ids";
const MASK_LABEL: &str = "lm.mask";
const NEXT_IDS_LABEL: &str = "lm.next_ids";
const VALUES_LABEL: &str = "lm.values";
/// Label of the positional table (see [`pretrain_params`]).
const POS_LABEL: &str = "lm.pos_embedding";
const AUX_MASK: usize = 0;
const AUX_NEXT_IDS: usize = 1;

/// What a compiled pretraining step is specialised to: the LM geometry,
/// the prompt length `S` and whether the mask is calibrated. Each word
/// and each number of a corpus prompt is one token, so every prompt of one
/// series length has the same `S` and a run compiles once.
#[derive(Clone, Copy, Debug, PartialEq)]
struct PretrainKey {
    lm: LmConfig,
    tokens: usize,
    calibrated: bool,
}

impl PretrainKey {
    fn of(lm: &CausalLm, feeds: &StepFeeds) -> PretrainKey {
        PretrainKey {
            lm: *lm.config(),
            tokens: feeds.tokens(),
            calibrated: feeds.calibrated,
        }
    }
}

/// One pretraining step — the [`step_loss`] forward, its backward,
/// `clip_grad_norm(1.0)` and AdamW — compiled into a training plan and
/// replayed with no graph and no allocation. The executor holds the
/// parameters and the optimizer moments until
/// [`write_back`](Self::write_back); each step is bitwise the dynamic step
/// (`tests::dynamic_step`).
struct PretrainPlan {
    key: PretrainKey,
    exec: TrainExecutor,
    /// Parameter labels in the executor's binding order.
    labels: Vec<String>,
}

impl PretrainPlan {
    /// Records one step's loss on `feeds` (the real modules, under a
    /// [`record`] scope), replays it and compiles the training plan.
    fn compile(
        lm: &CausalLm,
        value_head: &Linear,
        params: &[(String, Tensor)],
        feeds: &StepFeeds,
        config: &PretrainConfig,
    ) -> Result<PretrainPlan, PlanError> {
        let _span = timekd_obs::span("lm.pretrain_compile");
        let key = PretrainKey::of(lm, feeds);
        let root = {
            let mut rec = Recorder::new();
            for (label, p) in params {
                rec.param(label, p, false);
            }
            rec.name(IDS_LABEL, &feeds.ids);
            rec.name(MASK_LABEL, &feeds.mask);
            rec.name(NEXT_IDS_LABEL, &feeds.next_ids);
            rec.name(VALUES_LABEL, &feeds.values);
            // The step reads only rows `0..S` of the positional table, so
            // the plan trains exactly those rows as their own parameter.
            // The dynamic step also updates the other rows, but with zero
            // gradients, zero moments and no weight decay AdamW leaves
            // them bit for bit as they were.
            let table = lm.positional_table();
            let rows = Tensor::param(
                table.data()[..feeds.tokens() * table.dims()[1]].to_vec(),
                [feeds.tokens(), table.dims()[1]],
            );
            rec.param(POS_LABEL, &rows, false);
            let weight = config.value_regression_weight;
            let loss = record(|| step_loss(lm, value_head, feeds, &rows, weight));
            rec.replay(&[&loss])
                .map_err(|e| PlanError {
                    message: format!("pretraining step does not replay: {e}"),
                })?
                .remove(0)
            // The recorded graph and its activations are freed here,
            // before the executor allocates its arena.
        };
        let spec = PlanSpec {
            input_label: IDS_LABEL.to_string(),
            aux_labels: vec![MASK_LABEL.to_string(), NEXT_IDS_LABEL.to_string()],
            ..PlanSpec::default()
        };
        let adamw = pretrain_adamw();
        assert_eq!(
            adamw.weight_decay, 0.0,
            "training only the positional rows read is exact without weight decay"
        );
        let mut train = TrainSpec::new(
            VALUES_LABEL,
            PlanOptimizer::AdamW {
                lr: config.lr,
                beta1: adamw.beta1,
                beta2: adamw.beta2,
                eps: adamw.eps,
                weight_decay: adamw.weight_decay,
            },
        );
        train.grad_clip = Some(1.0);
        train.clip_param_order = params.iter().map(|(l, _)| l.clone()).collect();
        let plan = Plan::compile_training(&root, &spec, &train)?;
        // A parameter binds its tensor's leading rows (all of them, except
        // for the positional table).
        let exec = TrainExecutor::new(&plan, |label, dims| {
            let (_, t) = params.iter().find(|(l, _)| l == label)?;
            let len: usize = dims.iter().product();
            (t.dims()[1..] == dims[1..] && len <= t.num_elements())
                .then(|| t.data()[..len].to_vec())
        })?;
        let labels = plan
            .values()
            .iter()
            .filter(|v| v.source == ValueSource::Param)
            .map(|v| v.label.clone())
            .collect();
        Ok(PretrainPlan { key, exec, labels })
    }

    /// Runs one training step of `lm` on `feeds` and returns its loss.
    fn step(&mut self, lm: &CausalLm, feeds: &StepFeeds) -> f32 {
        assert_eq!(
            PretrainKey::of(lm, feeds),
            self.key,
            "one plan serves a run: corpus prompts of one series length have one length"
        );
        let _span = timekd_obs::span("lm.pretrain_step");
        self.exec.set_aux(AUX_MASK, &feeds.mask.data());
        self.exec.set_aux(AUX_NEXT_IDS, &feeds.next_ids.data());
        self.exec
            .run_train_step(&feeds.ids.data(), &feeds.values.data())
    }

    /// Copies the trained parameters back into the leading rows of the
    /// model's tensors.
    fn write_back(&self, params: &[(String, Tensor)]) {
        for (idx, label) in self.labels.iter().enumerate() {
            if let Some((_, t)) = params.iter().find(|(l, _)| l == label) {
                let trained = self.exec.param_data(idx);
                t.update_data(|data| data[..trained.len()].copy_from_slice(trained));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timekd_nn::AdamW;

    /// The dynamic pretraining step, the equivalence oracle of
    /// [`PretrainPlan`]: one graph build, backward, `clip_grad_norm(1.0)`
    /// and AdamW step over `params` (in [`pretrain_params`] order).
    fn dynamic_step(
        lm: &CausalLm,
        value_head: &Linear,
        params: &[Tensor],
        opt: &mut AdamW,
        feeds: &StepFeeds,
        weight: f32,
    ) -> f32 {
        for p in params {
            p.zero_grad();
        }
        let loss = step_loss(lm, value_head, feeds, &feeds.positions(lm), weight);
        let value = loss.item();
        loss.backward();
        timekd_nn::clip_grad_norm(params, 1.0);
        opt.step(params);
        value
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.to_vec().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn planned_pretraining_matches_dynamic_steps_bitwise() {
        let tok = PromptTokenizer::new();
        let config = PretrainConfig::default();
        for size in [
            crate::LmSize::Small,
            crate::LmSize::Base,
            crate::LmSize::Large,
        ] {
            for calibrated in [true, false] {
                let tag = format!("{size:?} calibrated={calibrated}");
                let build = || {
                    let mut rng = seeded_rng(77);
                    let lm = CausalLm::new(tok.vocab_size(), LmConfig::for_size(size), &mut rng);
                    install_numeracy_prior(&lm, &tok, &mut rng);
                    let head = Linear::new(lm.config().dim, config.series_len, &mut rng);
                    (lm, head)
                };
                let (dyn_lm, dyn_head) = build();
                let (plan_lm, plan_head) = build();
                let dyn_params = pretrain_params(&dyn_lm, &dyn_head);
                let plan_params = pretrain_params(&plan_lm, &plan_head);
                let tensors: Vec<Tensor> = dyn_params.iter().map(|(_, t)| t.clone()).collect();
                let mut opt = AdamW::new(config.lr, pretrain_adamw());
                let mut corpus = seeded_rng(5);
                let mut plan: Option<PretrainPlan> = None;
                for step in 0..3 {
                    let example = sample_corpus_example(&tok, config.series_len, &mut corpus);
                    let dyn_feeds = StepFeeds::new(&dyn_lm, &example, calibrated);
                    let want = dynamic_step(
                        &dyn_lm,
                        &dyn_head,
                        &tensors,
                        &mut opt,
                        &dyn_feeds,
                        config.value_regression_weight,
                    );
                    let feeds = StepFeeds::new(&plan_lm, &example, calibrated);
                    let planned = plan.get_or_insert_with(|| {
                        PretrainPlan::compile(&plan_lm, &plan_head, &plan_params, &feeds, &config)
                            .expect("the pretraining step plans")
                    });
                    let got = planned.step(&plan_lm, &feeds);
                    assert_eq!(got.to_bits(), want.to_bits(), "{tag} step {step}: loss");
                }
                plan.expect("compiled").write_back(&plan_params);
                for ((label, want), (_, got)) in dyn_params.iter().zip(&plan_params) {
                    assert_eq!(bits(got), bits(want), "{tag}: {label}");
                }
            }
        }
    }

    #[test]
    fn corpus_prompts_of_one_series_length_have_one_length() {
        // One plan serves a pretraining run because of this.
        let tok = PromptTokenizer::new();
        for series_len in [1, 6, 12] {
            let mut rng = seeded_rng(series_len as u64);
            let first = sample_corpus_example(&tok, series_len, &mut rng)
                .tokens
                .len();
            for _ in 0..200 {
                let e = sample_corpus_example(&tok, series_len, &mut rng);
                assert_eq!(e.tokens.len(), first, "series_len {series_len}");
            }
        }
    }

    #[test]
    fn corpus_example_well_formed() {
        let tok = PromptTokenizer::new();
        let mut rng = seeded_rng(0);
        let e = sample_corpus_example(&tok, 8, &mut rng);
        assert!(e.tokens.len() > 30);
        assert_eq!(e.tokens[0], tok.bos());
        assert_eq!(e.future_values.len(), 8);
        assert!(e.tokens.iter().all(|t| t.id < tok.vocab_size()));
    }

    #[test]
    fn regression_targets_match_rendered_precision() {
        let tok = PromptTokenizer::new();
        let mut rng = seeded_rng(1);
        let e = sample_corpus_example(&tok, 6, &mut rng);
        for v in &e.future_values {
            // One decimal place exactly.
            assert!((v * 10.0 - (v * 10.0).round()).abs() < 1e-4);
        }
    }

    #[test]
    fn corpus_examples_vary() {
        let tok = PromptTokenizer::new();
        let mut rng = seeded_rng(0);
        let a = sample_corpus_example(&tok, 8, &mut rng);
        let b = sample_corpus_example(&tok, 8, &mut rng);
        assert_ne!(a.tokens, b.tokens);
    }

    #[test]
    fn shared_forward_losses_match_separate_forwards_bitwise() {
        // One `hidden_states` forward must give the same loss values as the
        // separate forwards it replaces: `next_token_loss` for the LM loss,
        // and the value head on `last_token_embedding` for the value loss.
        let tok = PromptTokenizer::new();
        let series_len = 12;
        for size in [
            crate::LmSize::Small,
            crate::LmSize::Base,
            crate::LmSize::Large,
        ] {
            let mut rng = seeded_rng(21);
            let lm = CausalLm::new(tok.vocab_size(), LmConfig::for_size(size), &mut rng);
            install_numeracy_prior(&lm, &tok, &mut rng);
            let dim = lm.config().dim;
            let head = Linear::new(dim, series_len, &mut rng);
            for i in 0..3 {
                let example = sample_corpus_example(&tok, series_len, &mut rng);
                let (lm_loss, value_loss) = example_losses(&lm, &head, &example);
                let want_lm = lm.next_token_loss(&example.tokens, true);
                let emb = lm
                    .last_token_embedding(&example.tokens, true)
                    .reshape([1, dim]);
                let target = Tensor::from_vec(example.future_values.clone(), [1, series_len]);
                let want_value = head.forward(&emb).sub(&target).square().mean();
                assert_eq!(
                    lm_loss.item().to_bits(),
                    want_lm.item().to_bits(),
                    "{size:?} example {i}: LM loss"
                );
                assert_eq!(
                    value_loss.item().to_bits(),
                    want_value.item().to_bits(),
                    "{size:?} example {i}: value loss"
                );
            }
        }
    }

    #[test]
    fn pretraining_reduces_holdout_losses() {
        let tok = PromptTokenizer::new();
        let cfg = PretrainConfig {
            steps: 60,
            series_len: 8,
            ..Default::default()
        };
        let (_lm, report) = pretrain_lm(&tok, LmConfig::for_size(crate::LmSize::Small), cfg);
        assert!(
            report.final_loss < report.initial_loss,
            "LM loss must fall on held-out prompt: {} -> {}",
            report.initial_loss,
            report.final_loss
        );
        assert!(
            report.final_value_mse < report.initial_value_mse,
            "value regression must improve: {} -> {}",
            report.initial_value_mse,
            report.final_value_mse
        );
    }

    #[test]
    fn numeracy_prior_makes_value_linearly_decodable() {
        // After installing the prior (before any training), a least-squares
        // readout along u1 recovers bin values: check that embedding dot
        // products correlate with value differences.
        let tok = PromptTokenizer::new();
        let mut rng = seeded_rng(3);
        let lm = CausalLm::new(
            tok.vocab_size(),
            LmConfig::for_size(crate::LmSize::Small),
            &mut rng,
        );
        install_numeracy_prior(&lm, &tok, &mut rng);
        let emb = |v: f32| {
            let t = tok.number(v)[0];
            let table = lm.token_embedding_table();
            let d = table.dims()[1];
            table.to_vec()[t.id * d..(t.id + 1) * d].to_vec()
        };
        let a = emb(-3.0);
        let b = emb(0.0);
        let c = emb(3.0);
        // -3 and +3 should be near-opposite along the value direction,
        // both far from 0's embedding.
        let dot = |x: &[f32], y: &[f32]| x.iter().zip(y).map(|(p, q)| p * q).sum::<f32>();
        assert!(dot(&a, &c) < dot(&a, &b), "value direction not monotone");
        let dist = |x: &[f32], y: &[f32]| {
            x.iter()
                .zip(y)
                .map(|(p, q)| (p - q) * (p - q))
                .sum::<f32>()
                .sqrt()
        };
        assert!(
            dist(&a, &c) > dist(&a, &b),
            "distance not monotone in value gap"
        );
    }

    #[test]
    fn pretraining_deterministic_per_seed() {
        let tok = PromptTokenizer::new();
        let cfg = PretrainConfig {
            steps: 5,
            series_len: 6,
            ..Default::default()
        };
        let (_lm1, r1) = pretrain_lm(&tok, LmConfig::for_size(crate::LmSize::Small), cfg);
        let (_lm2, r2) = pretrain_lm(&tok, LmConfig::for_size(crate::LmSize::Small), cfg);
        assert_eq!(r1.final_loss, r2.final_loss);
        assert_eq!(r1.final_value_mse, r2.final_value_mse);
    }
}
