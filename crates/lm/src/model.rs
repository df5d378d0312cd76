//! The causal language model with calibrated attention — the CLM of the
//! paper's cross-modality teacher (Fig. 4, Eq. 1–7).

use timekd_nn::{
    causal_mask, causal_mask_rows, Activation, Embedding, KeyValues, Module, ParamVisitor,
    TransformerEncoder,
};
use timekd_tensor::Tensor;
use timekd_tensor::{F32x8, SeededRng};

use crate::calibration::calibrated_mask_rows;
use crate::config::LmConfig;
use crate::tokenizer::Token;

/// Decoder-only LM: token + learnable positional embeddings (the `PE` of
/// Eq. 1), a stack of Pre-LN blocks whose self-attention is calibrated
/// (Eq. 3–5), and a tied output head for pretraining.
pub struct CausalLm {
    config: LmConfig,
    tok_embedding: Embedding,
    pos_embedding: Tensor,
    encoder: TransformerEncoder,
}

impl CausalLm {
    /// Creates a randomly initialised LM over `vocab_size` tokens.
    pub fn new(vocab_size: usize, config: LmConfig, rng: &mut SeededRng) -> CausalLm {
        CausalLm {
            config,
            tok_embedding: Embedding::new(vocab_size, config.dim, rng),
            pos_embedding: Tensor::randn_param([config.max_seq_len, config.dim], 0.02, rng),
            encoder: TransformerEncoder::new(
                config.dim,
                config.num_layers,
                config.num_heads,
                config.ffn_hidden,
                Activation::Gelu,
                rng,
            ),
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &LmConfig {
        &self.config
    }

    /// What rows `start..S` of a prompt feed the model besides its
    /// weights: their token ids `[S − start]` (exact in f32, see
    /// [`Tensor::indices`]) and their rows of the `[S, S]` attention mask,
    /// calibrated (Eq. 5, configured Δ) or, without `calibrated`, plain
    /// causal (the `w/o_CA` ablation).
    pub(crate) fn prompt_feeds(
        &self,
        tokens: &[Token],
        start: usize,
        calibrated: bool,
    ) -> (Tensor, Tensor) {
        let s = tokens.len();
        assert!(s > 0, "empty prompt");
        assert!(
            s <= self.config.max_seq_len,
            "prompt length {s} exceeds max_seq_len {}",
            self.config.max_seq_len
        );
        let ids: Vec<usize> = tokens[start..].iter().map(|t| t.id).collect();
        let mask = if calibrated {
            calibrated_mask_rows(tokens, self.config.calibration_delta, true, start)
        } else {
            causal_mask_rows(start, s)
        };
        (Tensor::indices(&ids), mask)
    }

    /// Encoder input rows `I⁰ = I + PE` (Eq. 1) `[n, D]` for `n` token
    /// ids and their positional rows `pos` `[n, D]`.
    fn input_rows(&self, ids: &Tensor, pos: &Tensor) -> Tensor {
        self.tok_embedding.weight().index_select_rows(ids).add(pos)
    }

    /// The learnable positional table `PE` `[max_seq_len, D]`.
    pub(crate) fn positional_table(&self) -> &Tensor {
        &self.pos_embedding
    }

    /// Contextual hidden states `[S, D]` for a prompt.
    ///
    /// With `calibrated` the attention bias of Eq. 5 is applied with the
    /// configured Δ; otherwise a plain causal mask is used (the `w/o_CA`
    /// ablation).
    pub fn hidden_states(&self, tokens: &[Token], calibrated: bool) -> Tensor {
        let (ids, mask) = self.prompt_feeds(tokens, 0, calibrated);
        let pos = self.pos_embedding.slice(0, 0, tokens.len());
        self.hidden_states_at(&ids, &pos, &mask)
    }

    /// [`hidden_states`](Self::hidden_states) from a whole prompt's feeds
    /// ([`prompt_feeds`](Self::prompt_feeds) with `start` 0) and its
    /// positional rows `PE[0..S]` `[S, D]`: the slice of the table, or a
    /// parameter holding just those rows.
    pub(crate) fn hidden_states_at(&self, ids: &Tensor, pos: &Tensor, mask: &Tensor) -> Tensor {
        let x = self.input_rows(ids, pos);
        self.encoder.forward(&x, Some(mask)).output
    }

    /// The last-token embedding `[D]` — the paper's last token extractor:
    /// under causal masking the final position has attended to the entire
    /// prompt and summarises it. The one-prompt case of
    /// [`last_token_embeddings`](Self::last_token_embeddings).
    ///
    /// LM pretraining needs every row for its next-token loss, so it runs
    /// one `hidden_states` forward and takes its value-regression
    /// embedding from that forward's last row instead.
    pub fn last_token_embedding(&self, tokens: &[Token], calibrated: bool) -> Tensor {
        let mut out = self.last_token_embeddings(&[tokens], calibrated);
        out.pop().expect("one prompt, one embedding")
    }

    /// Last-token embeddings `[D]` of a *family* of prompts, in order; each
    /// equals the last row of that prompt's
    /// [`hidden_states`](Self::hidden_states) bit for bit.
    ///
    /// Members share the keys and values of their common prefix instead of
    /// recomputing it: the shortest member runs all its rows
    /// ([`TransformerEncoder::forward_rows`]), and every other member runs
    /// only its own rows against that run's per-layer keys and values of
    /// the first `shared_rows` rows. Each member builds only its own
    /// input and mask rows, and the last block runs its query, FFN and the
    /// final norm for the last row only.
    ///
    /// This dynamic forward is the bitwise oracle of the compiled family
    /// plan `FrozenLm` replays.
    pub fn last_token_embeddings(&self, prompts: &[&[Token]], calibrated: bool) -> Vec<Tensor> {
        match FamilyFeeds::new(self, prompts, calibrated) {
            Some(feeds) => self.family_embeddings(&feeds, &self.pos_embedding),
            None => Vec::new(),
        }
    }

    /// [`last_token_embeddings`](Self::last_token_embeddings) from a
    /// family's feeds and positional rows `pos`: the table, or a parameter
    /// holding its leading rows (at least the longest member's).
    pub(crate) fn family_embeddings(&self, feeds: &FamilyFeeds, pos: &Tensor) -> Vec<Tensor> {
        let run = |m: &MemberFeeds, past: &[KeyValues]| {
            let rows = pos.slice(0, m.start, m.len - m.start);
            self.encoder
                .forward_rows(&self.input_rows(&m.ids, &rows), &m.mask, past)
        };
        let carried = run(&feeds.members[feeds.carrier], &[]);
        let prefix: Vec<KeyValues> = if feeds.shared > 0 {
            carried
                .key_values
                .iter()
                .map(|kv| kv.prefix(feeds.shared))
                .collect()
        } else {
            Vec::new()
        };
        feeds
            .members
            .iter()
            .enumerate()
            .map(|(i, member)| {
                let last = if i == feeds.carrier {
                    carried.last.clone()
                } else {
                    run(member, &prefix).last
                };
                last.reshape([self.config.dim])
            })
            .collect()
    }

    /// Labels a last-token embedding the frozen model hands out as a
    /// constant of the CLM's own, so a recording replays it as the leaf
    /// `<the CLM's module>.last_token_embedding` (see [`Tensor::named`]).
    pub(crate) fn own_embedding(&self, embedding: Tensor) -> Tensor {
        embedding.named("last_token_embedding", &self.pos_embedding)
    }

    /// Runs the LM body over pre-computed *continuous* embeddings `[S, D]`
    /// (adding positional embeddings and a causal mask), returning hidden
    /// states `[S, D]`.
    ///
    /// This is the white-box pathway used by OFA/Time-LLM/UniTime-style
    /// baselines, which feed time-series patch embeddings through the
    /// frozen LM blocks: gradients flow *through* the blocks into the input
    /// embedding while the block parameters themselves are excluded from
    /// the optimizer.
    pub fn encode_embeddings(&self, x: &Tensor) -> Tensor {
        let s = x.dims()[0];
        assert!(
            s > 0 && s <= self.config.max_seq_len,
            "bad sequence length {s}"
        );
        assert_eq!(x.dims()[1], self.config.dim, "embedding width mismatch");
        let pos = self.pos_embedding.slice(0, 0, s);
        let h = x.add(&pos);
        let mask = causal_mask(s);
        self.encoder.forward(&h, Some(&mask)).output
    }

    /// The token-embedding table `[V, D]` (Time-LLM initialises its
    /// reprogramming prototypes from it).
    pub fn token_embedding_table(&self) -> &Tensor {
        self.tok_embedding.weight()
    }

    /// Next-token logits `[S, V]` with the output head tied to the token
    /// embedding.
    pub fn logits(&self, tokens: &[Token], calibrated: bool) -> Tensor {
        self.tied_head(&self.hidden_states(tokens, calibrated))
    }

    /// The output head, tied to the token embedding: hidden states
    /// `[S, D]` to logits `[S, V]`.
    fn tied_head(&self, hidden: &Tensor) -> Tensor {
        hidden.matmul(&self.tok_embedding.weight().transpose_last())
    }

    /// Autoregressively samples `max_new_tokens` continuation tokens.
    ///
    /// `temperature = 0` is greedy decoding; higher values sample from the
    /// scaled softmax. New tokens are tagged with the modality recorded in
    /// `vocab_modalities` (index = token id). Used by diagnostics and the
    /// LM tests; TimeKD itself never generates.
    pub fn generate(
        &self,
        prompt: &[Token],
        max_new_tokens: usize,
        temperature: f32,
        vocab_modalities: &[crate::tokenizer::Modality],
        rng: &mut SeededRng,
    ) -> Vec<Token> {
        assert!(temperature >= 0.0, "temperature must be non-negative");
        let mut tokens = prompt.to_vec();
        for _ in 0..max_new_tokens {
            if tokens.len() >= self.config.max_seq_len {
                break;
            }
            let next_id = timekd_tensor::no_grad(|| {
                let logits = self.logits(&tokens, true);
                let s = tokens.len();
                let v = logits.dims()[1];
                let last: Vec<f32> = logits.to_vec()[(s - 1) * v..s * v].to_vec();
                if temperature == 0.0 {
                    last.iter()
                        .enumerate()
                        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                        .map(|(i, _)| i)
                        .expect("non-empty vocab")
                } else {
                    // Stable softmax sampling at the given temperature.
                    let m = last.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    let probs: Vec<f32> = last
                        .iter()
                        .map(|&x| ((x - m) / temperature).exp())
                        .collect();
                    let total: f32 = probs.iter().sum();
                    let mut draw = rng.gen::<f32>() * total;
                    let mut pick = probs.len() - 1;
                    for (i, &p) in probs.iter().enumerate() {
                        if draw <= p {
                            pick = i;
                            break;
                        }
                        draw -= p;
                    }
                    pick
                }
            });
            tokens.push(Token {
                id: next_id,
                modality: vocab_modalities[next_id],
            });
        }
        tokens
    }

    /// Mean next-token cross-entropy over the prompt (pretraining loss).
    pub fn next_token_loss(&self, tokens: &[Token], calibrated: bool) -> Tensor {
        assert!(tokens.len() >= 2, "need at least two tokens for LM loss");
        let targets: Vec<usize> = tokens[1..].iter().map(|t| t.id).collect();
        let hidden = self.hidden_states(tokens, calibrated);
        self.next_token_loss_of(&hidden, &Tensor::indices(&targets))
    }

    /// [`next_token_loss`](Self::next_token_loss) from the prompt's hidden
    /// states `[S, D]` and its next-token ids `[S − 1]` (exact in f32), so
    /// a caller that also reads the hidden states runs one forward.
    pub(crate) fn next_token_loss_of(&self, hidden: &Tensor, targets: &Tensor) -> Tensor {
        let s = hidden.dims()[0];
        let logits = self.tied_head(hidden); // [S, V]
        let inputs = logits.slice(0, 0, s - 1); // predict positions 1..S
        inputs.cross_entropy(targets)
    }
}

/// What one member of a prompt family feeds the model: its length `S`,
/// the first row it runs (`start`), and the ids and mask rows of rows
/// `start..S` ([`CausalLm::prompt_feeds`]).
pub(crate) struct MemberFeeds {
    pub(crate) len: usize,
    pub(crate) start: usize,
    pub(crate) ids: Tensor,
    pub(crate) mask: Tensor,
}

/// What a prompt family (see [`CausalLm::last_token_embeddings`]) feeds
/// the model besides its weights: each member's feeds, the member that
/// runs every row (`carrier`, the first shortest one) and how many of its
/// rows the others share ([`shared_rows`]).
pub(crate) struct FamilyFeeds {
    pub(crate) members: Vec<MemberFeeds>,
    pub(crate) carrier: usize,
    pub(crate) shared: usize,
}

impl FamilyFeeds {
    /// The feeds of `prompts`; `None` for an empty family.
    pub(crate) fn new(
        lm: &CausalLm,
        prompts: &[&[Token]],
        calibrated: bool,
    ) -> Option<FamilyFeeds> {
        let carrier = (0..prompts.len()).min_by_key(|&i| prompts[i].len())?;
        let shared = shared_rows(prompts);
        let members = prompts
            .iter()
            .enumerate()
            .map(|(i, tokens)| {
                let start = if i == carrier { 0 } else { shared };
                let (ids, mask) = lm.prompt_feeds(tokens, start, calibrated);
                MemberFeeds {
                    len: tokens.len(),
                    start,
                    ids,
                    mask,
                }
            })
            .collect();
        Some(FamilyFeeds {
            members,
            carrier,
            shared,
        })
    }
}

/// Rows a family of prompts (see [`CausalLm::last_token_embeddings`]) runs
/// once for all members: their longest common prefix, capped so every
/// member keeps at least one row of its own; 0 for a single prompt.
///
/// The shared rows must have visited the same keys in every member's own
/// forward. A masked attention row visits keys up to its last allowed one
/// rounded up to the 8-lane width and capped at the sequence length, and
/// a cap that lands off the lane grid changes the reduction order (see
/// `Tensor::fused_attention`). So when members differ in length, the
/// prefix also stops at the last lane boundary of the shortest member,
/// where no shared row's key range reaches the cap.
fn shared_rows(prompts: &[&[Token]]) -> usize {
    let Some(shortest) = prompts.iter().map(|p| p.len()).min() else {
        return 0;
    };
    if prompts.len() < 2 || shortest == 0 {
        return 0;
    }
    let first = prompts[0];
    let common = (0..shortest - 1)
        .take_while(|&i| prompts.iter().all(|p| p[i] == first[i]))
        .count();
    if prompts.iter().all(|p| p.len() == shortest) {
        common
    } else {
        common.min(shortest / F32x8::LANES * F32x8::LANES)
    }
}

impl Module for CausalLm {
    fn visit_params(&self, v: &mut ParamVisitor<'_>) {
        v.module("tok_embedding", &self.tok_embedding);
        v.param("pos_embedding", &self.pos_embedding);
        v.module("encoder", &self.encoder);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::{PromptPiece, PromptTokenizer};
    use timekd_tensor::seeded_rng;

    fn sample_tokens(tok: &PromptTokenizer) -> Vec<Token> {
        tok.encode(&[
            PromptPiece::Word("the"),
            PromptPiece::Word("values"),
            PromptPiece::Word("were"),
            PromptPiece::Number(1.5),
            PromptPiece::Number(-2.0),
            PromptPiece::Word("forecast"),
        ])
    }

    #[test]
    fn hidden_state_shapes() {
        let mut rng = seeded_rng(0);
        let tok = PromptTokenizer::new();
        let lm = CausalLm::new(tok.vocab_size(), LmConfig::base(), &mut rng);
        let toks = sample_tokens(&tok);
        let h = lm.hidden_states(&toks, true);
        assert_eq!(h.dims(), &[toks.len(), 32]);
        let last = lm.last_token_embedding(&toks, true);
        assert_eq!(last.dims(), &[32]);
    }

    #[test]
    fn logits_cover_vocab() {
        let mut rng = seeded_rng(1);
        let tok = PromptTokenizer::new();
        let lm = CausalLm::new(
            tok.vocab_size(),
            LmConfig::for_size(crate::LmSize::Small),
            &mut rng,
        );
        let toks = sample_tokens(&tok);
        let logits = lm.logits(&toks, false);
        assert_eq!(logits.dims(), &[toks.len(), tok.vocab_size()]);
    }

    #[test]
    fn calibration_changes_representation() {
        let mut rng = seeded_rng(2);
        let tok = PromptTokenizer::new();
        let lm = CausalLm::new(tok.vocab_size(), LmConfig::base(), &mut rng);
        let toks = sample_tokens(&tok);
        let with = lm.last_token_embedding(&toks, true).to_vec();
        let without = lm.last_token_embedding(&toks, false).to_vec();
        assert_ne!(with, without, "Δ-bias must change the embedding");
    }

    #[test]
    fn causality_last_token_ignores_nothing_before_it() {
        // Changing an early token must change the last-token embedding
        // (it attends to everything), but changing the last token must not
        // change the embeddings of earlier positions.
        let mut rng = seeded_rng(3);
        let tok = PromptTokenizer::new();
        let lm = CausalLm::new(tok.vocab_size(), LmConfig::base(), &mut rng);
        let toks_a = sample_tokens(&tok);
        let mut toks_b = toks_a.clone();
        toks_b[1] = tok.word("value"); // perturb early token
        let ha = lm.hidden_states(&toks_a, true);
        let hb = lm.hidden_states(&toks_b, true);
        let s = toks_a.len();
        assert_ne!(
            ha.slice(0, s - 1, 1).to_vec(),
            hb.slice(0, s - 1, 1).to_vec(),
            "last token must see early edits"
        );
        assert_eq!(
            ha.slice(0, 0, 1).to_vec(),
            hb.slice(0, 0, 1).to_vec(),
            "position 0 must not see later edits"
        );
    }

    #[test]
    fn lm_loss_decreases_with_training() {
        let mut rng = seeded_rng(4);
        let tok = PromptTokenizer::new();
        let lm = CausalLm::new(
            tok.vocab_size(),
            LmConfig::for_size(crate::LmSize::Small),
            &mut rng,
        );
        let toks = sample_tokens(&tok);
        let params = lm.params();
        let mut opt = timekd_nn::AdamW::new(
            0.01,
            timekd_nn::AdamWConfig {
                weight_decay: 0.0,
                ..Default::default()
            },
        );
        let before = lm.next_token_loss(&toks, true).item();
        for _ in 0..30 {
            lm.zero_grad();
            lm.next_token_loss(&toks, true).backward();
            opt.step(&params);
        }
        let after = lm.next_token_loss(&toks, true).item();
        assert!(after < before * 0.8, "loss {before} -> {after}");
    }

    #[test]
    fn greedy_generation_deterministic() {
        let mut rng = seeded_rng(5);
        let tok = PromptTokenizer::new();
        let lm = CausalLm::new(
            tok.vocab_size(),
            LmConfig::for_size(crate::LmSize::Small),
            &mut rng,
        );
        let prompt = sample_tokens(&tok);
        let mods = tok.modalities();
        let mut r1 = seeded_rng(0);
        let mut r2 = seeded_rng(99);
        let a = lm.generate(&prompt, 5, 0.0, &mods, &mut r1);
        let b = lm.generate(&prompt, 5, 0.0, &mods, &mut r2);
        assert_eq!(a, b, "greedy decoding must ignore the RNG");
        assert_eq!(a.len(), prompt.len() + 5);
        assert!(a.iter().all(|t| t.id < tok.vocab_size()));
    }

    #[test]
    fn sampled_generation_seed_dependent() {
        let mut rng = seeded_rng(6);
        let tok = PromptTokenizer::new();
        let lm = CausalLm::new(
            tok.vocab_size(),
            LmConfig::for_size(crate::LmSize::Small),
            &mut rng,
        );
        let prompt = sample_tokens(&tok);
        let mods = tok.modalities();
        let mut r1 = seeded_rng(1);
        let mut r2 = seeded_rng(1);
        let a = lm.generate(&prompt, 8, 1.0, &mods, &mut r1);
        let b = lm.generate(&prompt, 8, 1.0, &mods, &mut r2);
        assert_eq!(a, b, "same seed, same sample");
    }

    #[test]
    fn generation_respects_max_seq_len() {
        let mut rng = seeded_rng(7);
        let tok = PromptTokenizer::new();
        let mut cfg = LmConfig::for_size(crate::LmSize::Small);
        cfg.max_seq_len = 12;
        let lm = CausalLm::new(tok.vocab_size(), cfg, &mut rng);
        let prompt = sample_tokens(&tok);
        let out = lm.generate(&prompt, 100, 0.5, &tok.modalities(), &mut rng);
        assert!(out.len() <= 12);
    }

    #[test]
    #[should_panic(expected = "empty prompt")]
    fn empty_prompt_panics() {
        let mut rng = seeded_rng(0);
        let tok = PromptTokenizer::new();
        let lm = CausalLm::new(tok.vocab_size(), LmConfig::base(), &mut rng);
        let _ = lm.hidden_states(&[], true);
    }
}
