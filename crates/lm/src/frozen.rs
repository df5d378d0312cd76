//! Frozen-LM feature extraction with an embedding cache.
//!
//! TimeKD keeps the CLM frozen and, to avoid "repetitive processing with
//! the frozen CLMs", stores the extracted embeddings for reuse (§IV-B2).
//! [`FrozenLm`] wraps a pretrained [`CausalLm`] and memoises last-token
//! embeddings keyed by the exact token sequence and calibration flag.
//!
//! Misses run as a prompt family ([`CausalLm::last_token_embeddings`])
//! through a compiled forward-only plan of that forward, replayed with no
//! graph. A plan is specialised to a [`FamilyKey`]: the model geometry,
//! the calibration flag, the members' lengths in order, which member
//! carries the shared prefix and how many rows it shares. Every word and
//! every number of a prompt is one token, so the prompts of one prompt
//! configuration have fixed lengths and a training run compiles one key,
//! on its first miss; the plan then lives as long as the `FrozenLm`. The
//! token ids and mask rows are fed per family from the same
//! `prompt_feeds` code the dynamic forward reads, which stays the bitwise
//! oracle (`proptest_lm`).
//!
//! The cache keeps one map per calibration flag, keyed by the prompt's
//! tokens themselves, one `u32` each ([`encode_key`]), so a hit is always
//! the same prompt.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use timekd_nn::Module;
use timekd_tensor::{no_grad, record, Plan, PlanError, PlanExecutor, PlanSpec, Recorder, Tensor};

use crate::config::LmConfig;
use crate::model::{CausalLm, FamilyFeeds};
use crate::tokenizer::Token;

/// Where [`FrozenLm::embed_family`] takes one prompt's embedding from.
enum Source {
    /// The `n`th miss of the call, computed now: the miss itself, or a
    /// later hit on it in the same call.
    Computed(usize),
    /// A hit on a stored entry.
    Cached(Vec<f32>),
}

/// Embeddings `[D]` by encoded prompt ([`encode_key`]).
type EmbeddingCache = HashMap<Box<[u32]>, Vec<f32>>;

/// A frozen language model with embedding memoisation.
///
/// The model is shared via `Rc` and the tensor engine is single-threaded,
/// so plain interior mutability suffices for the cache, its counters and
/// the compiled family plans.
pub struct FrozenLm {
    lm: CausalLm,
    plans: RefCell<Vec<FamilyPlan>>,
    /// One cache per calibration flag, indexed by it.
    cache: RefCell<[EmbeddingCache; 2]>,
    caching_enabled: Cell<bool>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl FrozenLm {
    /// Freezes `lm`.
    pub fn new(lm: CausalLm) -> FrozenLm {
        FrozenLm {
            lm,
            plans: RefCell::new(Vec::new()),
            cache: RefCell::new([HashMap::new(), HashMap::new()]),
            caching_enabled: Cell::new(true),
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// The wrapped model (read-only use).
    pub fn model(&self) -> &CausalLm {
        &self.lm
    }

    /// Last-token embedding `[D]` as a constant tensor, served from the
    /// cache when this exact prompt has been embedded before. The
    /// one-prompt case of [`embed_family`](Self::embed_family).
    pub fn embed(&self, tokens: &[Token], calibrated: bool) -> Tensor {
        let mut out = self.embed_family(&[tokens], calibrated);
        out.pop().expect("one prompt, one embedding")
    }

    /// Last-token embeddings `[D]` of several prompts, in order, as
    /// constant tensors. Hits come from the cache; the misses run
    /// as one family ([`CausalLm::last_token_embeddings`], replayed as its
    /// compiled plan), so prompts that share a prefix (a variable's
    /// ground-truth and historical prompts) compute it once.
    ///
    /// Hits, misses and the cache afterwards are exactly those
    /// of calling [`embed`](Self::embed) on each prompt in turn: a prompt
    /// that repeats an earlier miss of the same call is a hit on it.
    pub fn embed_family(&self, prompts: &[&[Token]], calibrated: bool) -> Vec<Tensor> {
        let _span = timekd_obs::span("lm.embed");
        let caching = self.caching_enabled.get();
        let dim = self.lm.config().dim;
        // Prompt indices of the misses, in order.
        let mut misses: Vec<usize> = Vec::new();
        let mut sources = Vec::with_capacity(prompts.len());
        let mut key = Vec::new();
        {
            let cache = &self.cache.borrow()[usize::from(calibrated)];
            for (i, &tokens) in prompts.iter().enumerate() {
                if caching {
                    // The entry a sequential `embed` would find: an earlier
                    // miss of this call, else the stored one.
                    let found = match misses.iter().position(|&m| prompts[m] == tokens) {
                        Some(slot) => Some(Source::Computed(slot)),
                        None => {
                            encode_key(tokens, &mut key);
                            (cache.get(key.as_slice())).map(|data| Source::Cached(data.clone()))
                        }
                    };
                    if let Some(source) = found {
                        self.hits.set(self.hits.get() + 1);
                        timekd_obs::LM_CACHE_HITS.add(1);
                        sources.push(source);
                        continue;
                    }
                }
                self.misses.set(self.misses.get() + 1);
                timekd_obs::LM_CACHE_MISSES.add(1);
                sources.push(Source::Computed(misses.len()));
                misses.push(i);
            }
        }
        let computed: Vec<Vec<f32>> = if misses.is_empty() {
            Vec::new()
        } else {
            let _span = timekd_obs::span("lm.forward");
            let family: Vec<&[Token]> = misses.iter().map(|&i| prompts[i]).collect();
            self.forward_family(&family, calibrated)
        };
        if caching {
            let cache = &mut self.cache.borrow_mut()[usize::from(calibrated)];
            for (&i, emb) in misses.iter().zip(&computed) {
                encode_key(prompts[i], &mut key);
                cache.insert(key.as_slice().into(), emb.clone());
            }
        }
        sources
            .into_iter()
            .map(|source| {
                let data = match source {
                    Source::Computed(slot) => computed[slot].clone(),
                    Source::Cached(data) => data,
                };
                self.lm.own_embedding(Tensor::from_vec(data, [dim]))
            })
            .collect()
    }

    /// Last-token embeddings of a non-empty family, replayed by the plan of
    /// its [`FamilyKey`], which compiles now if the key is new.
    fn forward_family(&self, family: &[&[Token]], calibrated: bool) -> Vec<Vec<f32>> {
        let feeds =
            FamilyFeeds::new(&self.lm, family, calibrated).expect("a miss family is non-empty");
        let key = FamilyKey::of(&self.lm, &feeds, calibrated);
        let mut plans = self.plans.borrow_mut();
        let slot = match plans.iter().position(|p| p.key == key) {
            Some(slot) => slot,
            None => {
                let plan = FamilyPlan::compile(&self.lm, &feeds, key)
                    .unwrap_or_else(|e| panic!("the CLM family forward does not plan: {e}"));
                plans.push(plan);
                plans.len() - 1
            }
        };
        plans[slot].run(&feeds)
    }

    /// Enables or disables the embedding cache (the design-choice ablation
    /// measured by the `ablation_cache` bench — §IV-B2's "we store the
    /// subtracted embeddings").
    pub fn set_caching(&self, enabled: bool) {
        self.caching_enabled.set(enabled);
    }

    /// Whether the embedding cache is on ([`set_caching`](Self::set_caching)).
    pub fn caching(&self) -> bool {
        self.caching_enabled.get()
    }

    /// (cache hits, cache misses) so far.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    /// Number of family forwards compiled so far: one per distinct
    /// [`FamilyKey`] a miss has run.
    pub fn compiled_plans(&self) -> usize {
        self.plans.borrow().len()
    }

    /// Number of distinct prompts embedded (a prompt embedded with and
    /// without calibration counts twice).
    pub fn cache_len(&self) -> usize {
        self.cache.borrow().iter().map(HashMap::len).sum()
    }

    /// Drops all cached embeddings.
    pub fn clear_cache(&self) {
        self.cache.borrow_mut().iter_mut().for_each(HashMap::clear);
    }
}

/// Writes `tokens` into `key` as cache-key words, one per token: the id
/// shifted left by one with the modality in the low bit, so prompts that
/// differ only in a token's modality get different keys.
fn encode_key(tokens: &[Token], key: &mut Vec<u32>) {
    key.clear();
    key.extend(tokens.iter().map(|t| {
        let id = u32::try_from(t.id).expect("token id fits in u32");
        id << 1 | t.modality as u32
    }));
}

/// What a compiled family forward is specialised to: the LM geometry,
/// the calibration flag, the members' lengths in order, the carrier (the
/// member that runs every row) and the rows it shares with the others.
/// The feeds' shapes, and so the whole recorded graph, follow from these.
#[derive(Clone, Debug, PartialEq)]
struct FamilyKey {
    lm: LmConfig,
    calibrated: bool,
    lengths: Vec<usize>,
    carrier: usize,
    shared: usize,
}

impl FamilyKey {
    fn of(lm: &CausalLm, feeds: &FamilyFeeds, calibrated: bool) -> FamilyKey {
        FamilyKey {
            lm: *lm.config(),
            calibrated,
            lengths: feeds.members.iter().map(|m| m.len).collect(),
            carrier: feeds.carrier,
            shared: feeds.shared,
        }
    }
}

/// Plan label of the positional rows a family reads (see
/// [`FamilyPlan::compile`]).
const POS_LABEL: &str = "lm.pos_embedding";

/// Plan label of member `i`'s token ids.
fn ids_label(i: usize) -> String {
    format!("lm.ids.{i}")
}

/// A family's aux feeds in their slot order, with their plan labels:
/// every member's mask rows, then the ids of every member but the
/// carrier, whose ids are the plan input.
fn aux_feeds(feeds: &FamilyFeeds) -> impl Iterator<Item = (String, &Tensor)> {
    let masks = (feeds.members.iter().enumerate()).map(|(i, m)| (format!("lm.mask.{i}"), &m.mask));
    let ids = (feeds.members.iter().enumerate())
        .filter(|&(i, _)| i != feeds.carrier)
        .map(|(i, m)| (ids_label(i), &m.ids));
    masks.chain(ids)
}

/// [`CausalLm::family_embeddings`] compiled for one [`FamilyKey`] into a
/// forward-only plan, replayed with no graph; each replay is bitwise the
/// dynamic forward.
struct FamilyPlan {
    key: FamilyKey,
    exec: PlanExecutor,
    /// The members' embeddings `[n·D]`, in order.
    out: Vec<f32>,
}

impl FamilyPlan {
    /// Records the family forward on `feeds` (the real modules, under a
    /// [`record`] scope) and compiles it.
    fn compile(
        lm: &CausalLm,
        feeds: &FamilyFeeds,
        key: FamilyKey,
    ) -> Result<FamilyPlan, PlanError> {
        let _span = timekd_obs::span("lm.forward_compile");
        let params = lm.named_params("lm");
        let root = {
            let mut rec = Recorder::new();
            for (label, p) in &params {
                rec.param(label, p, true);
            }
            rec.name(&ids_label(feeds.carrier), &feeds.members[feeds.carrier].ids);
            for (label, t) in aux_feeds(feeds) {
                rec.name(&label, t);
            }
            // The family reads only the leading rows of the positional
            // table, so the plan binds only those.
            let table = lm.positional_table();
            let rows = key.lengths.iter().copied().max().unwrap_or(0);
            let dim = table.dims()[1];
            let pos = Tensor::param(table.data()[..rows * dim].to_vec(), [rows, dim]);
            rec.param(POS_LABEL, &pos, true);
            let out = no_grad(|| record(|| Tensor::concat(&lm.family_embeddings(feeds, &pos), 0)));
            rec.replay(&[&out])
                .map_err(|e| PlanError {
                    message: format!("CLM family forward does not replay: {e}"),
                })?
                .remove(0)
            // The recorded forward is freed here, before the executor
            // allocates its arena.
        };
        let spec = PlanSpec {
            input_label: ids_label(feeds.carrier),
            aux_labels: aux_feeds(feeds).map(|(label, _)| label).collect(),
            ..PlanSpec::default()
        };
        let plan = Plan::compile(&root, &spec)?;
        // A parameter binds its tensor's leading rows (all of them, except
        // for the positional table).
        let exec = PlanExecutor::new(&plan, |label, dims| {
            let (_, t) = params.iter().find(|(l, _)| l == label)?;
            let len: usize = dims.iter().product();
            (t.dims()[1..] == dims[1..] && len <= t.num_elements())
                .then(|| t.data()[..len].to_vec())
        })?;
        let out = vec![0.0; exec.output_len()];
        Ok(FamilyPlan { key, exec, out })
    }

    /// The members' last-token embeddings `[D]` for `feeds`, which must
    /// match the plan's key.
    fn run(&mut self, feeds: &FamilyFeeds) -> Vec<Vec<f32>> {
        for (k, (_, t)) in aux_feeds(feeds).enumerate() {
            self.exec.set_aux(k, &t.data());
        }
        let input = feeds.members[feeds.carrier].ids.data();
        self.exec.run(&input, &mut self.out);
        self.out
            .chunks_exact(self.key.lm.dim)
            .map(<[f32]>::to_vec)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LmConfig;
    use crate::tokenizer::{PromptPiece, PromptTokenizer};
    use timekd_tensor::seeded_rng;

    fn setup() -> (PromptTokenizer, FrozenLm) {
        let tok = PromptTokenizer::new();
        let mut rng = seeded_rng(0);
        let lm = CausalLm::new(
            tok.vocab_size(),
            LmConfig::for_size(crate::LmSize::Small),
            &mut rng,
        );
        (tok, FrozenLm::new(lm))
    }

    #[test]
    fn embeddings_are_constant_tensors() {
        let (tok, frozen) = setup();
        let toks = tok.encode(&[PromptPiece::Word("forecast"), PromptPiece::Number(3.0)]);
        let e = frozen.embed(&toks, true);
        assert!(
            !e.requires_grad(),
            "frozen LM output must not join the graph"
        );
        assert_eq!(e.dims(), &[frozen.model().config().dim]);
    }

    #[test]
    fn cache_hit_on_repeat() {
        let (tok, frozen) = setup();
        let toks = tok.encode(&[PromptPiece::Word("forecast")]);
        let a = frozen.embed(&toks, true);
        let b = frozen.embed(&toks, true);
        assert_eq!(a.to_vec(), b.to_vec());
        let (hits, misses) = frozen.cache_stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn calibration_flag_is_part_of_key() {
        let (tok, frozen) = setup();
        let toks = tok.encode(&[PromptPiece::Word("forecast"), PromptPiece::Number(1.0)]);
        let a = frozen.embed(&toks, true);
        let b = frozen.embed(&toks, false);
        assert_ne!(a.to_vec(), b.to_vec());
        assert_eq!(frozen.cache_len(), 2);
    }

    #[test]
    fn different_prompts_different_entries() {
        let (tok, frozen) = setup();
        let a = tok.encode(&[PromptPiece::Number(1.0)]);
        let b = tok.encode(&[PromptPiece::Number(2.0)]);
        let _ = frozen.embed(&a, true);
        let _ = frozen.embed(&b, true);
        assert_eq!(frozen.cache_len(), 2);
        // Tokens that differ only in modality are different prompts.
        use crate::tokenizer::Modality;
        let id = a[0].id;
        let [text, numeric] =
            [Modality::Text, Modality::Numeric].map(|modality| [Token { id, modality }]);
        let _ = frozen.embed(&text, true);
        let _ = frozen.embed(&numeric, true);
        assert_eq!(frozen.cache_stats(), (0, 4));
        assert_eq!(frozen.cache_len(), 4);
    }

    #[test]
    fn caching_can_be_disabled() {
        let (tok, frozen) = setup();
        frozen.set_caching(false);
        let toks = tok.encode(&[PromptPiece::Word("forecast")]);
        let a = frozen.embed(&toks, true);
        let b = frozen.embed(&toks, true);
        assert_eq!(a.to_vec(), b.to_vec(), "results identical either way");
        let (hits, misses) = frozen.cache_stats();
        assert_eq!(hits, 0);
        assert_eq!(misses, 2, "every call recomputes with caching off");
        assert_eq!(frozen.cache_len(), 0);
    }

    #[test]
    fn clear_cache_resets() {
        let (tok, frozen) = setup();
        let toks = tok.encode(&[PromptPiece::Word("forecast")]);
        let _ = frozen.embed(&toks, true);
        frozen.clear_cache();
        assert_eq!(frozen.cache_len(), 0);
    }

    /// Embeds `prompts` as one `embed_family` call on `batch` and as
    /// sequential `embed` calls on `seq`; values, counters and cache size
    /// must agree.
    fn assert_family_matches_sequential(
        batch: &FrozenLm,
        seq: &FrozenLm,
        prompts: &[&[Token]],
        calibrated: bool,
    ) {
        let got = batch.embed_family(prompts, calibrated);
        let want: Vec<Tensor> = prompts.iter().map(|p| seq.embed(p, calibrated)).collect();
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            let bits = |t: &Tensor| t.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(g), bits(w), "prompt {i}");
            assert!(!g.requires_grad(), "prompt {i} joined the graph");
        }
        assert_eq!(batch.cache_stats(), seq.cache_stats(), "hits, misses");
        assert_eq!(batch.cache_len(), seq.cache_len(), "cache_len");
    }

    #[test]
    fn family_batch_matches_sequential_embeds() {
        let (tok, batch) = setup();
        let (_, seq) = setup();
        let series = |vals: &[f32]| {
            let mut pieces = vec![PromptPiece::Word("values"), PromptPiece::Word("were")];
            pieces.extend(vals.iter().map(|&v| PromptPiece::Number(v)));
            tok.encode(&pieces)
        };
        let hist = series(&[0.5, 1.0, -0.5, 2.0, 0.25, -1.0, 1.5, 0.0, -2.0, 0.75]);
        let gt = series(&[
            0.5, 1.0, -0.5, 2.0, 0.25, -1.0, 1.5, 0.0, -2.0, 0.75, 1.0, 1.25, -0.25,
        ]);
        let other = series(&[3.0, -3.0]);
        for calibrated in [true, false] {
            // Both miss and share a prefix; then both hit.
            assert_family_matches_sequential(&batch, &seq, &[&gt, &hist], calibrated);
            assert_family_matches_sequential(&batch, &seq, &[&hist, &gt], calibrated);
            // One hit, one miss; a duplicate inside one batch (`w/o_PI`
            // passes the historical prompt twice) is a hit on its first
            // occurrence.
            assert_family_matches_sequential(&batch, &seq, &[&other, &gt], calibrated);
            batch.clear_cache();
            seq.clear_cache();
            assert_family_matches_sequential(&batch, &seq, &[&hist, &hist, &gt], calibrated);
        }
        // Caching off: every prompt is a miss, duplicates included.
        batch.set_caching(false);
        seq.set_caching(false);
        assert_family_matches_sequential(&batch, &seq, &[&gt, &hist, &gt], true);
    }
}
