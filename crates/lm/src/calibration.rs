//! Calibrated attention masks (paper Eq. 3–5).
//!
//! The calibrated language model replaces the vanilla masked self-attention
//! of a decoder-only LM with an attention whose pre-softmax scores are
//! biased by `−Δ` on **cross-modality** token pairs (text↔number) and left
//! unchanged on intra-modality pairs, all under the usual causal mask. This
//! suppresses inter-modality fusion and strengthens intra-modality
//! correlations, which the paper credits with resolving the data
//! entanglement of prompt-based time-series encoders.

use timekd_tensor::{Tensor, NEG_INF};

use crate::tokenizer::Token;

/// Builds the calibrated additive attention mask for a token sequence.
///
/// Entry `[i, j]` is:
/// - `NEG_INF` for `j > i` when `causal` (future positions);
/// - `−delta` when tokens `i` and `j` differ in modality (Eq. 5);
/// - `0` otherwise.
pub fn calibrated_mask(tokens: &[Token], delta: f32, causal: bool) -> Tensor {
    calibrated_mask_rows(tokens, delta, causal, 0)
}

/// Rows `start..S` `[S − start, S]` of [`calibrated_mask`].
pub fn calibrated_mask_rows(tokens: &[Token], delta: f32, causal: bool, start: usize) -> Tensor {
    let s = tokens.len();
    assert!(start <= s, "calibrated_mask_rows: start {start} > {s}");
    let mut data = vec![0.0f32; (s - start) * s];
    for i in start..s {
        let row = (i - start) * s;
        for j in 0..s {
            if causal && j > i {
                data[row + j] = NEG_INF;
            } else if tokens[i].modality != tokens[j].modality {
                data[row + j] = -delta;
            }
        }
    }
    Tensor::from_vec(data, [s - start, s])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::Modality;

    fn tok(id: usize, m: Modality) -> Token {
        Token { id, modality: m }
    }

    #[test]
    fn intra_modality_unbiased() {
        let toks = vec![tok(0, Modality::Text), tok(1, Modality::Text)];
        let m = calibrated_mask(&toks, 2.0, true);
        assert_eq!(m.at(&[1, 0]), 0.0);
        assert_eq!(m.at(&[0, 0]), 0.0);
    }

    #[test]
    fn cross_modality_penalised() {
        let toks = vec![tok(0, Modality::Text), tok(1, Modality::Numeric)];
        let m = calibrated_mask(&toks, 2.0, true);
        assert_eq!(m.at(&[1, 0]), -2.0);
    }

    #[test]
    fn causal_blocks_future() {
        let toks = vec![tok(0, Modality::Text), tok(1, Modality::Text)];
        let m = calibrated_mask(&toks, 2.0, true);
        assert_eq!(m.at(&[0, 1]), NEG_INF);
    }

    #[test]
    fn non_causal_keeps_future_penalty_only() {
        let toks = vec![tok(0, Modality::Text), tok(1, Modality::Numeric)];
        let m = calibrated_mask(&toks, 1.5, false);
        assert_eq!(m.at(&[0, 1]), -1.5);
        assert_eq!(m.at(&[1, 0]), -1.5);
    }

    #[test]
    fn zero_delta_reduces_to_causal() {
        let toks = vec![
            tok(0, Modality::Text),
            tok(1, Modality::Numeric),
            tok(2, Modality::Text),
        ];
        let a = calibrated_mask(&toks, 0.0, true);
        let b = timekd_nn::causal_mask(3);
        assert_eq!(a.to_vec(), b.to_vec());
    }

    #[test]
    fn calibration_shifts_softmax_mass_to_intra_modality() {
        // A row with one intra- and one cross-modality key: after softmax,
        // the intra-modality key must receive more mass under calibration.
        let toks = vec![
            tok(0, Modality::Text),
            tok(1, Modality::Numeric),
            tok(2, Modality::Text),
        ];
        let mask = calibrated_mask(&toks, 3.0, true);
        let scores = Tensor::zeros([3, 3]).add(&mask);
        let probs = scores.softmax_last().to_vec();
        // Row 2 (a Text token) attends over {Text, Numeric, Text}.
        let row = &probs[6..9];
        assert!(row[0] > row[1], "intra should beat cross: {row:?}");
        assert!(row[2] > row[1]);
    }
}
