//! Frozen-LM feature extraction with an embedding cache.
//!
//! TimeKD keeps the CLM frozen and, to avoid "repetitive processing with
//! the frozen CLMs", stores the extracted embeddings for reuse (§IV-B2).
//! [`FrozenLm`] wraps a pretrained [`CausalLm`], runs it under `no_grad`,
//! and memoises last-token embeddings keyed by the exact token sequence and
//! calibration flag.
//!
//! The map is indexed by a 64-bit digest for O(1) lookup, but a digest
//! alone is not a correctness guarantee: two distinct prompts can collide,
//! and a collision would silently return the *wrong* prompt's embedding.
//! Every hit therefore verifies the stored `(tokens, calibrated)` key
//! against the query; a mismatch is treated as a miss, counted in
//! [`FrozenLm::collision_count`], and the entry is overwritten with the
//! recomputed embedding.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use timekd_tensor::{no_grad, Tensor};

use crate::model::CausalLm;
use crate::tokenizer::Token;

/// One memoised embedding plus the full key that produced it, so digest
/// collisions are detectable.
struct CacheEntry {
    tokens: Vec<Token>,
    calibrated: bool,
    data: Vec<f32>,
}

impl CacheEntry {
    fn matches(&self, tokens: &[Token], calibrated: bool) -> bool {
        self.calibrated == calibrated && self.tokens == tokens
    }
}

/// A frozen language model with embedding memoisation.
///
/// The model is shared via `Rc` and the tensor engine is single-threaded,
/// so plain interior mutability suffices for the cache and its counters.
pub struct FrozenLm {
    lm: CausalLm,
    cache: RefCell<HashMap<u64, CacheEntry>>,
    caching_enabled: Cell<bool>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    collisions: Cell<u64>,
}

fn cache_key(tokens: &[Token], calibrated: bool) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for t in tokens {
        t.id.hash(&mut h);
        t.modality.hash(&mut h);
    }
    calibrated.hash(&mut h);
    h.finish()
}

impl FrozenLm {
    /// Freezes `lm`.
    pub fn new(lm: CausalLm) -> FrozenLm {
        FrozenLm {
            lm,
            cache: RefCell::new(HashMap::new()),
            caching_enabled: Cell::new(true),
            hits: Cell::new(0),
            misses: Cell::new(0),
            collisions: Cell::new(0),
        }
    }

    /// The wrapped model (read-only use).
    pub fn model(&self) -> &CausalLm {
        &self.lm
    }

    /// Last-token embedding `[D]` as a constant tensor, served from the
    /// cache when this exact prompt has been embedded before.
    ///
    /// A digest hit only counts as a cache hit after the stored full key
    /// matches the query; colliding entries are recomputed and replaced.
    pub fn embed(&self, tokens: &[Token], calibrated: bool) -> Tensor {
        let _span = timekd_obs::span("lm.embed");
        let caching = self.caching_enabled.get();
        let key = cache_key(tokens, calibrated);
        if caching {
            if let Some(entry) = self.cache.borrow().get(&key) {
                if entry.matches(tokens, calibrated) {
                    self.hits.set(self.hits.get() + 1);
                    timekd_obs::LM_CACHE_HITS.add(1);
                    return Tensor::from_vec(entry.data.clone(), [self.lm.config().dim]);
                }
                self.collisions.set(self.collisions.get() + 1);
                timekd_obs::LM_CACHE_COLLISIONS.add(1);
            }
        }
        self.misses.set(self.misses.get() + 1);
        timekd_obs::LM_CACHE_MISSES.add(1);
        let emb = {
            let _span = timekd_obs::span("lm.forward");
            no_grad(|| self.lm.last_token_embedding(tokens, calibrated))
        };
        // A constant leaf; a recording keeps the forward behind it.
        let out = emb.detach();
        if caching {
            self.cache.borrow_mut().insert(
                key,
                CacheEntry {
                    tokens: tokens.to_vec(),
                    calibrated,
                    data: out.to_vec(),
                },
            );
        }
        out
    }

    /// Enables or disables the embedding cache (the design-choice ablation
    /// measured by the `ablation_cache` bench — §IV-B2's "we store the
    /// subtracted embeddings").
    pub fn set_caching(&self, enabled: bool) {
        self.caching_enabled.set(enabled);
    }

    /// (cache hits, cache misses) so far.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    /// Number of digest collisions detected (a digest matched an entry
    /// whose full key differed). Each one was recomputed, never served.
    pub fn collision_count(&self) -> u64 {
        self.collisions.get()
    }

    /// Number of distinct prompts embedded.
    pub fn cache_len(&self) -> usize {
        self.cache.borrow().len()
    }

    /// Drops all cached embeddings.
    pub fn clear_cache(&self) {
        self.cache.borrow_mut().clear();
    }

    /// Test hook: plants `data` in the cache under the digest of
    /// `(stored_tokens, calibrated)` as if `stored_tokens` had been
    /// embedded. Forced-collision regression tests use this to simulate two
    /// prompts hashing to the same digest (infeasible to construct for the
    /// real 64-bit hasher).
    #[doc(hidden)]
    pub fn inject_cache_entry_for_test(
        &self,
        digest_of: &[Token],
        stored_tokens: &[Token],
        calibrated: bool,
        data: Vec<f32>,
    ) {
        let key = cache_key(digest_of, calibrated);
        self.cache.borrow_mut().insert(
            key,
            CacheEntry {
                tokens: stored_tokens.to_vec(),
                calibrated,
                data,
            },
        );
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
        assert_eq!(frozen.collision_count(), 0);
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

    #[test]
    fn digest_collision_is_not_served() {
        // Simulate prompts A and B hashing to the same 64-bit digest: plant
        // poison data under A's digest, key-stamped as belonging to B. The
        // pre-fix cache would return the poison for A; the verified cache
        // must detect the key mismatch, recompute A, and never serve B's
        // data.
        let (tok, frozen) = setup();
        let a = tok.encode(&[PromptPiece::Number(1.0)]);
        let b = tok.encode(&[PromptPiece::Number(2.0)]);
        let dim = frozen.model().config().dim;
        let poison = vec![f32::MAX; dim];
        frozen.inject_cache_entry_for_test(&a, &b, true, poison.clone());

        let got = frozen.embed(&a, true);
        assert_ne!(got.to_vec(), poison, "collision served the wrong prompt");
        assert_eq!(frozen.collision_count(), 1);
        let (hits, misses) = frozen.cache_stats();
        assert_eq!((hits, misses), (0, 1), "a collision is a miss, not a hit");

        // The colliding entry was overwritten with A's true embedding, so a
        // repeat is a genuine verified hit.
        let again = frozen.embed(&a, true);
        assert_eq!(got.to_vec(), again.to_vec());
        assert_eq!(frozen.cache_stats(), (1, 1));
        assert_eq!(frozen.collision_count(), 1);
    }

    #[test]
    fn colliding_keys_differing_only_in_modality_are_distinguished() {
        // Same ids, different modalities — the digest input differs here,
        // but force them onto one digest anyway to prove the full-key
        // comparison (not the hash) is what decides a hit.
        use crate::tokenizer::Modality;
        let (_, frozen) = setup();
        let a = [Token {
            id: 5,
            modality: Modality::Text,
        }];
        let b = [Token {
            id: 5,
            modality: Modality::Numeric,
        }];
        let dim = frozen.model().config().dim;
        frozen.inject_cache_entry_for_test(&a, &b, true, vec![-1.0; dim]);
        let got = frozen.embed(&a, true);
        assert_ne!(got.to_vec(), vec![-1.0; dim]);
        assert_eq!(frozen.collision_count(), 1);
    }
}
