//! Randomised property tests for the language-model crate: tokenizer
//! totality, calibrated-mask structure, and causal-LM invariants.

use timekd_lm::{
    calibrated_mask, CausalLm, FrozenLm, LmConfig, LmSize, Modality, PromptPiece, PromptTokenizer,
    NEG_INF,
};
use timekd_nn::causal_mask;
use timekd_tensor::{no_grad, seeded_rng};

const CASES: u64 = 48;

#[test]
fn any_finite_number_tokenises() {
    let tok = PromptTokenizer::new();
    for seed in 0..CASES {
        let mut rng = seeded_rng(seed);
        let v = rng.gen_range(-1e9f32..1e9);
        let toks = tok.number(v);
        assert_eq!(toks.len(), 1, "seed {seed}");
        assert!(toks.iter().all(|t| t.id < tok.vocab_size()), "seed {seed}");
        assert!(
            toks.iter().all(|t| t.modality == Modality::Numeric),
            "seed {seed}"
        );
    }
}

#[test]
fn tokenisation_deterministic() {
    let tok = PromptTokenizer::new();
    for seed in 0..CASES {
        let mut rng = seeded_rng(seed);
        let v = rng.gen_range(-1e5f32..1e5);
        assert_eq!(tok.number(v), tok.number(v), "seed {seed}");
    }
}

#[test]
fn quantization_error_bounded() {
    let tok = PromptTokenizer::new();
    for seed in 0..CASES {
        let mut rng = seeded_rng(seed);
        let v = rng.gen_range(-6.3f32..6.3);
        let t = tok.number(v)[0];
        let back = tok.token_value(t).expect("numeric token has a value");
        assert!(
            (back - v).abs() <= 0.05 + 1e-5,
            "seed {seed}: {v} -> {back}"
        );
    }
}

#[test]
fn bin_symmetric_under_negation() {
    let tok = PromptTokenizer::new();
    for seed in 0..CASES {
        let mut rng = seeded_rng(seed);
        let v = rng.gen_range(0.0f32..6.3);
        let pos = tok.token_value(tok.number(v)[0]).expect("value");
        let neg = tok.token_value(tok.number(-v)[0]).expect("value");
        assert!((pos + neg).abs() < 1e-5, "seed {seed}");
    }
}

#[test]
fn calibrated_mask_structure() {
    let tok = PromptTokenizer::new();
    for seed in 0..CASES {
        let mut rng = seeded_rng(seed);
        let delta = rng.gen_range(0.0f32..10.0);
        let len = rng.gen_range(2usize..12);
        // First `split` tokens Text, rest Numeric.
        let split = rng.gen_range(1usize..11).min(len - 1);
        let mut tokens = Vec::new();
        for i in 0..len {
            if i < split {
                tokens.push(tok.word("values"));
            } else {
                tokens.push(tok.number(1.0)[0]);
            }
        }
        let m = calibrated_mask(&tokens, delta, true);
        for i in 0..len {
            for j in 0..len {
                let v = m.at(&[i, j]);
                if j > i {
                    assert_eq!(v, NEG_INF, "seed {seed}");
                } else if (i < split) == (j < split) {
                    assert_eq!(v, 0.0, "seed {seed} intra pair ({i}, {j})");
                } else {
                    assert_eq!(v, -delta, "seed {seed} cross pair ({i}, {j})");
                }
            }
        }
    }
}

#[test]
fn zero_delta_equals_plain_causal() {
    let tok = PromptTokenizer::new();
    for len in 1usize..10 {
        let tokens: Vec<_> = (0..len)
            .map(|i| {
                if i % 2 == 0 {
                    tok.word("next")
                } else {
                    tok.number(2.0)[0]
                }
            })
            .collect();
        assert_eq!(
            calibrated_mask(&tokens, 0.0, true).to_vec(),
            causal_mask(len).to_vec(),
            "len {len}"
        );
    }
}

#[test]
fn lm_hidden_states_finite() {
    let tok = PromptTokenizer::new();
    for seed in 0..8 {
        let mut rng = seeded_rng(seed);
        let n_vals = rng.gen_range(1usize..6);
        let lm = CausalLm::new(
            tok.vocab_size(),
            LmConfig::for_size(LmSize::Small),
            &mut rng,
        );
        let mut pieces = vec![PromptPiece::Word("values"), PromptPiece::Word("were")];
        for i in 0..n_vals {
            pieces.push(PromptPiece::Number(i as f32 * 1.5 - 2.0));
        }
        let toks = tok.encode(&pieces);
        let h = lm.hidden_states(&toks, true);
        assert!(h.to_vec().iter().all(|v| v.is_finite()), "seed {seed}");
    }
}

#[test]
fn lm_prefix_embeddings_stable_under_suffix_edits() {
    // Causality: appending tokens never changes earlier hidden states.
    let tok = PromptTokenizer::new();
    for seed in 0..4 {
        let mut rng = seeded_rng(seed);
        let lm = CausalLm::new(
            tok.vocab_size(),
            LmConfig::for_size(LmSize::Small),
            &mut rng,
        );
        let base = tok.encode(&[PromptPiece::Word("forecast"), PromptPiece::Number(1.0)]);
        let mut extended = base.clone();
        extended.extend(tok.number(42.0));
        let hb = lm.hidden_states(&base, true);
        let he = lm.hidden_states(&extended, true);
        let d = lm.config().dim;
        let prefix_b = &hb.to_vec()[..base.len() * d];
        let prefix_e = &he.to_vec()[..base.len() * d];
        for (a, b) in prefix_b.iter().zip(prefix_e) {
            assert!((a - b).abs() < 1e-5, "seed {seed}");
        }
    }
}

#[test]
fn last_token_embedding_is_last_row_of_hidden_states_bitwise() {
    // The pruned final block (last query row only) must reproduce the
    // last row of the full forward bit for bit, for every model size,
    // with and without calibration, at every prompt length that exercises
    // a different lane tail of the live key range.
    let tok = PromptTokenizer::new();
    let lengths: Vec<usize> = (1..=20).chain([79]).collect();
    for size in [LmSize::Small, LmSize::Base, LmSize::Large] {
        for seed in 0..3u64 {
            let mut rng = seeded_rng(100 + seed);
            let lm = CausalLm::new(tok.vocab_size(), LmConfig::for_size(size), &mut rng);
            let d = lm.config().dim;
            for &len in &lengths {
                let toks: Vec<_> = (0..len)
                    .map(|_| {
                        if rng.gen_range(0..2usize) == 0 {
                            tok.word("values")
                        } else {
                            tok.number(rng.gen_range(-3.0f32..3.0))[0]
                        }
                    })
                    .collect();
                for calibrated in [true, false] {
                    let (full, last) = no_grad(|| {
                        (
                            lm.hidden_states(&toks, calibrated).to_vec(),
                            lm.last_token_embedding(&toks, calibrated).to_vec(),
                        )
                    });
                    let want = &full[(len - 1) * d..];
                    assert_eq!(last.len(), d);
                    for (i, (a, b)) in last.iter().zip(want).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{size:?} seed {seed} len {len} calibrated {calibrated} dim {i}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn prompt_family_embeddings_are_last_rows_of_hidden_states_bitwise() {
    // Members of a family share their common prefix's keys and values;
    // each member's embedding must still equal the last row of its own
    // full forward bit for bit. Families cover identical prompts, a prompt
    // that is a prefix of another, one-token prompts, lengths on both
    // sides of the 8-lane live-key boundary (the rendered prompt pair is
    // 49 and 79 tokens with a 44-token common prefix), and random
    // families whose shared prefix runs from none to the full length.
    // Each family also runs through the frozen LM's compiled family plan
    // (caching off, so every member is a miss of one family), which must
    // give the dynamic forward's bits.
    let tok = PromptTokenizer::new();
    let random_token = |rng: &mut timekd_tensor::SeededRng| {
        if rng.gen_range(0..2usize) == 0 {
            tok.word("values")
        } else {
            tok.number(rng.gen_range(-3.0f32..3.0))[0]
        }
    };
    for size in [LmSize::Small, LmSize::Base, LmSize::Large] {
        for seed in 0..3u64 {
            let mut rng = seeded_rng(200 + seed);
            let frozen = FrozenLm::new(CausalLm::new(
                tok.vocab_size(),
                LmConfig::for_size(size),
                &mut rng,
            ));
            frozen.set_caching(false);
            let lm = frozen.model();
            let d = lm.config().dim;
            let base: Vec<_> = (0..90).map(|_| random_token(&mut rng)).collect();
            let with_tail = |prefix: usize, tail: usize, rng: &mut timekd_tensor::SeededRng| {
                let mut p = base[..prefix].to_vec();
                p.extend((0..tail).map(|_| random_token(rng)));
                p
            };
            let mut families: Vec<Vec<Vec<_>>> = vec![
                vec![base[..20].to_vec(), base[..20].to_vec()],
                vec![base[..9].to_vec(), base[..30].to_vec()],
                vec![base[..30].to_vec(), base[..9].to_vec(), base[..30].to_vec()],
                vec![base[..1].to_vec(), base[..1].to_vec()],
                vec![base[..1].to_vec(), base[..12].to_vec()],
                vec![with_tail(0, 1, &mut rng), with_tail(0, 1, &mut rng)],
                vec![with_tail(44, 35, &mut rng), with_tail(44, 5, &mut rng)],
            ];
            for (short, long) in [
                (7, 9),
                (8, 9),
                (9, 17),
                (15, 16),
                (16, 17),
                (17, 40),
                (47, 49),
            ] {
                families.push(vec![base[..short].to_vec(), base[..long].to_vec()]);
                families.push(vec![
                    with_tail(short - 1, 1, &mut rng),
                    with_tail(short - 1, long - short + 1, &mut rng),
                ]);
            }
            for _ in 0..12 {
                let members = rng.gen_range(2usize..5);
                let common = rng.gen_range(0usize..=base.len());
                families.push(
                    (0..members)
                        .map(|_| {
                            let prefix = rng.gen_range(0..=common);
                            let tail = rng.gen_range(usize::from(prefix == 0)..12);
                            with_tail(prefix, tail, &mut rng)
                        })
                        .collect(),
                );
            }
            for family in &families {
                let prompts: Vec<&[_]> = family.iter().map(|p| p.as_slice()).collect();
                for calibrated in [true, false] {
                    let got = no_grad(|| lm.last_token_embeddings(&prompts, calibrated));
                    let planned = frozen.embed_family(&prompts, calibrated);
                    assert_eq!(got.len(), prompts.len());
                    assert_eq!(planned.len(), prompts.len());
                    for (m, (toks, emb)) in prompts.iter().zip(&got).enumerate() {
                        let full = no_grad(|| lm.hidden_states(toks, calibrated).to_vec());
                        let want = &full[(toks.len() - 1) * d..];
                        let lens: Vec<usize> = prompts.iter().map(|p| p.len()).collect();
                        for (path, emb) in [("dynamic", emb), ("planned", &planned[m])] {
                            for (i, (a, b)) in emb.to_vec().iter().zip(want).enumerate() {
                                assert_eq!(
                                    a.to_bits(),
                                    b.to_bits(),
                                    "{size:?} seed {seed} lengths {lens:?} member {m} calibrated {calibrated} {path} dim {i}: {a} vs {b}"
                                );
                            }
                        }
                    }
                }
            }
            assert!(frozen.compiled_plans() > 0, "{size:?}: no family plan ran");
        }
    }
}
