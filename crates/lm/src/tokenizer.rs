//! Word/value tokenizer for time-series prompts with per-token modality
//! tags.
//!
//! The calibrated attention of the paper (Eq. 5) needs to know, for every
//! pair of tokens, whether they belong to the same modality (text–text or
//! number–number) or cross modalities (text–number). The tokenizer
//! therefore labels each produced token with a [`Modality`].
//!
//! The vocabulary is closed: the template words of Fig. 2 plus a bank of
//! **quantized value tokens** — one token per 0.1-wide bin over
//! `[-BIN_MAX, +BIN_MAX]`. Each numeric value becomes a *single* token,
//! mirroring how large-scale LLM tokenizers compress common numerals and
//! keeping prompt lengths (and therefore CLM attention cost) independent
//! of numeric precision. The series fed through prompts are standardised,
//! so the bin range covers them with headroom; out-of-range values clamp
//! to the boundary bins.

use std::collections::HashMap;

/// Token modality per the paper's cross- vs intra-modality distinction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Modality {
    /// Template/instruction words.
    Text,
    /// Quantized value tokens that encode time-series values.
    Numeric,
}

/// A token id paired with its modality.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Token {
    /// Index into the tokenizer vocabulary.
    pub id: usize,
    /// Whether the token carries text or numeric content.
    pub modality: Modality,
}

/// The closed template vocabulary.
const WORDS: &[&str] = &[
    "<pad>", "<bos>", "<eos>", "from", "to", "the", "values", "were", "every", "minutes", "hours",
    "forecast", "next", "steps", "step", "and", "value", "was", "then", ",", ".", ":", "at",
    "time", "series", "variable", "of",
];

/// Quantization resolution of the value bins.
pub const BIN_RESOLUTION: f32 = 0.1;
/// Largest representable magnitude; values beyond clamp to the edge bins.
pub const BIN_MAX: f32 = 6.3;

const NUM_BINS: usize = (2.0 * BIN_MAX / BIN_RESOLUTION) as usize + 1; // 127

/// Deterministic tokenizer over the prompt grammar.
pub struct PromptTokenizer {
    vocab: Vec<String>,
    lookup: HashMap<String, usize>,
    bin_base: usize,
}

impl Default for PromptTokenizer {
    fn default() -> Self {
        Self::new()
    }
}

impl PromptTokenizer {
    /// Builds the fixed vocabulary (template words + value bins).
    pub fn new() -> PromptTokenizer {
        let mut vocab: Vec<String> = Vec::with_capacity(WORDS.len() + NUM_BINS);
        let mut lookup = HashMap::new();
        for w in WORDS {
            lookup.insert((*w).to_string(), vocab.len());
            vocab.push((*w).to_string());
        }
        let bin_base = vocab.len();
        for i in 0..NUM_BINS {
            let half = (NUM_BINS / 2) as i64;
            let center = (i as i64 - half) as f32 * BIN_RESOLUTION;
            vocab.push(format!("{center:.1}"));
        }
        PromptTokenizer {
            vocab,
            lookup,
            bin_base,
        }
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// Number of numeric value bins.
    pub fn num_bins(&self) -> usize {
        NUM_BINS
    }

    /// The id of the beginning-of-sequence token.
    pub fn bos(&self) -> Token {
        Token {
            id: self.lookup["<bos>"],
            modality: Modality::Text,
        }
    }

    /// Token for a known template word. Panics on out-of-vocabulary words —
    /// prompts in this system are always generated from the Fig. 2
    /// templates, so an unknown word is a programming error.
    pub fn word(&self, w: &str) -> Token {
        let id = *self
            .lookup
            .get(&w.to_lowercase())
            .unwrap_or_else(|| panic!("word '{w}' not in the template vocabulary"));
        Token {
            id,
            modality: Modality::Text,
        }
    }

    /// Quantizes `value` to its bin center.
    pub fn quantize(&self, value: f32) -> f32 {
        let v = if value.is_nan() { 0.0 } else { value };
        let v = v.clamp(-BIN_MAX, BIN_MAX);
        ((v / BIN_RESOLUTION).round()) * BIN_RESOLUTION
    }

    /// Encodes a numeric value as one [`Modality::Numeric`] token.
    ///
    /// Returned as a `Vec` for API symmetry with multi-token encodings.
    pub fn number(&self, value: f32) -> Vec<Token> {
        // Quantize first so the bin index agrees exactly with `quantize`
        // (rounding half away from zero on the raw value, not the shifted
        // one).
        let q = self.quantize(value);
        let idx = ((q + BIN_MAX) / BIN_RESOLUTION).round() as usize;
        vec![Token {
            id: self.bin_base + idx.min(NUM_BINS - 1),
            modality: Modality::Numeric,
        }]
    }

    /// The bin center a numeric token represents, or `None` for text
    /// tokens.
    pub fn token_value(&self, token: Token) -> Option<f32> {
        if token.modality != Modality::Numeric {
            return None;
        }
        let idx = token.id.checked_sub(self.bin_base)?;
        if idx >= NUM_BINS {
            return None;
        }
        // Compute from the signed bin offset so centers are exact 0.1
        // multiples (avoids -6.3 + k*0.1 accumulation error).
        let half = (NUM_BINS / 2) as i64;
        Some((idx as i64 - half) as f32 * BIN_RESOLUTION)
    }

    /// Per-id modality table (index = token id), for decoding sampled ids.
    pub fn modalities(&self) -> Vec<Modality> {
        (0..self.vocab_size())
            .map(|id| {
                if id >= self.bin_base {
                    Modality::Numeric
                } else {
                    Modality::Text
                }
            })
            .collect()
    }

    /// Tokenizes a whole prompt: a sequence of [`PromptPiece`]s.
    pub fn encode(&self, pieces: &[PromptPiece]) -> Vec<Token> {
        let mut out = vec![self.bos()];
        for piece in pieces {
            match piece {
                PromptPiece::Word(w) => out.push(self.word(w)),
                PromptPiece::Number(v) => out.extend(self.number(*v)),
            }
        }
        out
    }

    /// Decodes token ids back to a readable string (diagnostics only).
    pub fn decode(&self, tokens: &[Token]) -> String {
        tokens
            .iter()
            .map(|t| self.vocab[t.id].as_str())
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// One element of a prompt prior to tokenisation.
#[derive(Clone, Debug, PartialEq)]
pub enum PromptPiece {
    /// A template word (must be in the closed vocabulary).
    Word(&'static str),
    /// A numeric value quantized to its bin token.
    Number(f32),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocab_closed_and_stable() {
        let t = PromptTokenizer::new();
        assert_eq!(t.vocab_size(), WORDS.len() + NUM_BINS);
        assert_eq!(t.word("forecast").id, t.word("forecast").id);
        assert_eq!(t.num_bins(), 127);
    }

    #[test]
    fn words_are_text_modality() {
        let t = PromptTokenizer::new();
        assert_eq!(t.word("values").modality, Modality::Text);
        assert_eq!(
            t.word("FORECAST").modality,
            Modality::Text,
            "case-insensitive"
        );
    }

    #[test]
    fn numbers_are_single_numeric_tokens() {
        let t = PromptTokenizer::new();
        let toks = t.number(1.25);
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].modality, Modality::Numeric);
    }

    #[test]
    fn quantization_round_trip() {
        let t = PromptTokenizer::new();
        for v in [-6.3f32, -1.25, 0.0, 0.04, 0.06, 3.33, 6.3] {
            let tok = t.number(v)[0];
            let back = t.token_value(tok).unwrap();
            assert!((back - t.quantize(v)).abs() < 1e-4, "{v}: {back}");
            assert!(
                (back - v).abs() <= BIN_RESOLUTION / 2.0 + 1e-5,
                "{v} -> {back}"
            );
        }
    }

    #[test]
    fn out_of_range_clamps() {
        let t = PromptTokenizer::new();
        assert_eq!(t.token_value(t.number(100.0)[0]).unwrap(), BIN_MAX);
        assert_eq!(t.token_value(t.number(-100.0)[0]).unwrap(), -BIN_MAX);
    }

    #[test]
    fn nan_becomes_zero_bin() {
        let t = PromptTokenizer::new();
        assert_eq!(t.token_value(t.number(f32::NAN)[0]).unwrap(), 0.0);
    }

    #[test]
    fn adjacent_values_get_adjacent_bins() {
        let t = PromptTokenizer::new();
        let a = t.number(1.0)[0].id;
        let b = t.number(1.1)[0].id;
        assert_eq!(b, a + 1);
    }

    #[test]
    fn decode_shows_bin_centers() {
        let t = PromptTokenizer::new();
        let toks = t.number(-2.5);
        assert_eq!(t.decode(&toks), "-2.5");
    }

    #[test]
    fn encode_starts_with_bos() {
        let t = PromptTokenizer::new();
        let toks = t.encode(&[PromptPiece::Word("forecast"), PromptPiece::Number(1.0)]);
        assert_eq!(toks[0], t.bos());
        assert_eq!(toks[1], t.word("forecast"));
        assert_eq!(toks.len(), 3);
    }

    #[test]
    fn token_value_none_for_text() {
        let t = PromptTokenizer::new();
        assert_eq!(t.token_value(t.word("next")), None);
    }

    #[test]
    #[should_panic(expected = "not in the template vocabulary")]
    fn oov_word_panics() {
        let t = PromptTokenizer::new();
        let _ = t.word("quantum");
    }

    #[test]
    fn all_ids_below_vocab_size() {
        let t = PromptTokenizer::new();
        let toks = t.encode(&[
            PromptPiece::Word("from"),
            PromptPiece::Number(-123.4),
            PromptPiece::Word("to"),
            PromptPiece::Number(99999.9),
        ]);
        assert!(toks.iter().all(|tok| tok.id < t.vocab_size()));
    }
}
