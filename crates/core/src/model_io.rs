//! Whole-model checkpointing for [`TimeKd`].
//!
//! Layout: magic `TKD1`, format version, the CLM pretraining recipe
//! ([`PRETRAIN_RECIPE`]), then the teacher's trainable parameters followed
//! by the student's, each as a [`timekd_tensor::io`] blob. The frozen CLM
//! is *not* part of the checkpoint — it is reconstructed deterministically
//! from its pretraining seed, exactly like the paper reloads the public
//! GPT-2 weights rather than shipping them. The teacher was trained on that
//! CLM's embeddings, so a blob written under another pretraining recipe is
//! rejected rather than loaded onto a differently pretrained CLM.

use timekd_lm::PRETRAIN_RECIPE;
use timekd_nn::Module;
use timekd_tensor::bytes::{Bytes, BytesMut};
use timekd_tensor::io::DecodeError;

use crate::trainer::TimeKd;

const MAGIC: &[u8; 4] = b"TKD1";
/// Version 2 added the pretraining recipe to the header.
const VERSION: u32 = 2;

/// Serialises the trainable state (teacher heads + student).
pub fn save_checkpoint(model: &TimeKd) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(PRETRAIN_RECIPE);
    buf.extend_from_slice(&model.teacher().save_params());
    buf.extend_from_slice(&model.student().save_params());
    buf.freeze()
}

/// Restores trainable state saved by [`save_checkpoint`] into an
/// identically configured model, and drops the teacher targets the model
/// stored for its training windows. Blobs of another format version or
/// pretraining recipe are rejected with [`DecodeError::BadShape`].
pub fn load_checkpoint(model: &mut TimeKd, blob: &mut Bytes) -> Result<(), DecodeError> {
    if blob.remaining() < 12 {
        return Err(DecodeError::Truncated);
    }
    let mut magic = [0u8; 4];
    blob.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = blob.get_u32_le();
    let recipe = blob.get_u32_le();
    if version != VERSION || recipe != PRETRAIN_RECIPE {
        return Err(DecodeError::BadShape);
    }
    model.drop_stored_targets();
    model.teacher().load_params(blob)?;
    model.student().load_params(blob)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TimeKdConfig;
    use crate::Forecaster;
    use std::rc::Rc;
    use timekd_data::{DatasetKind, Split, SplitDataset};
    use timekd_lm::{pretrain_lm, FrozenLm, LmConfig, LmSize, PretrainConfig, PromptTokenizer};

    #[allow(clippy::field_reassign_with_default)]
    fn setup() -> (TimeKd, SplitDataset) {
        let ds = SplitDataset::new(DatasetKind::EttH1, 600, 3, 24, 8);
        let tokenizer = Rc::new(PromptTokenizer::new());
        let mut cfg = TimeKdConfig::default();
        cfg.dim = 16;
        cfg.ffn_hidden = 32;
        cfg.num_heads = 2;
        cfg.lm = LmConfig::for_size(LmSize::Small);
        cfg.teacher_warmup_epochs = 1;
        let (lm, _) = pretrain_lm(
            &tokenizer,
            cfg.lm,
            PretrainConfig {
                steps: 3,
                ..Default::default()
            },
        );
        let model = TimeKd::with_frozen_lm(
            Rc::new(FrozenLm::new(lm)),
            tokenizer,
            cfg,
            24,
            8,
            ds.num_vars(),
        );
        (model, ds)
    }

    #[test]
    fn round_trip_preserves_predictions() {
        let (mut model, ds) = setup();
        let train = ds.windows(Split::Train, 16);
        model.train_epoch(&train[..3.min(train.len())]);
        let w = &ds.windows(Split::Test, 16)[0];
        let before = model.predict(&w.x);
        let mut blob = save_checkpoint(&model);

        let (mut model2, _) = setup();
        load_checkpoint(&mut model2, &mut blob).unwrap();
        let after = model2.predict(&w.x);
        assert_eq!(before.to_vec(), after.to_vec());
    }

    #[test]
    fn planned_epochs_train_a_loaded_checkpoint_like_dynamic_ones() {
        // Planned trainers kept across epochs must train the values a load
        // put into the live model, as the dynamic loops do. Each model
        // runs student and teacher epochs, all of one kind, around a save
        // and a load: the teacher epoch right after the load keeps the
        // teacher trainer the epochs before the load built.
        let run = |planned: bool| {
            let (mut model, ds) = setup();
            let train = ds.windows(Split::Train, 16);
            let windows = &train[..4];
            let epoch = |m: &mut TimeKd| {
                if planned {
                    m.train_student_epoch(windows);
                } else {
                    m.train_student_epoch_dynamic(windows);
                }
            };
            let teacher_epoch = |m: &mut TimeKd| {
                if planned {
                    m.train_teacher_epoch(windows);
                } else {
                    m.train_teacher_epoch_dynamic(windows);
                }
            };
            epoch(&mut model);
            teacher_epoch(&mut model);
            let mut blob = save_checkpoint(&model);
            teacher_epoch(&mut model);
            epoch(&mut model);
            load_checkpoint(&mut model, &mut blob).unwrap();
            teacher_epoch(&mut model);
            epoch(&mut model);
            model
                .trainable_params()
                .iter()
                .map(|p| p.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        };
        assert!(
            run(true) == run(false),
            "planned and dynamic params diverge"
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let (mut model, _) = setup();
        let mut blob = Bytes::from_static(b"XXXX\x01\x00\x00\x00rest");
        assert!(matches!(
            load_checkpoint(&mut model, &mut blob),
            Err(DecodeError::BadMagic)
        ));
    }

    /// A checkpoint of `model` whose header carries `version` and, if
    /// given, `recipe`.
    fn blob_with_header(model: &TimeKd, version: u32, recipe: Option<u32>) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(version);
        if let Some(recipe) = recipe {
            buf.put_u32_le(recipe);
        }
        buf.extend_from_slice(&model.teacher().save_params());
        buf.extend_from_slice(&model.student().save_params());
        buf.freeze()
    }

    #[test]
    fn wrong_version_rejected() {
        // Version 1 had no recipe field; its teacher was trained on a CLM
        // pretrained under recipe 1.
        let (mut model, _) = setup();
        for (version, recipe) in [(1, None), (999, Some(PRETRAIN_RECIPE))] {
            let mut blob = blob_with_header(&model, version, recipe);
            assert!(
                matches!(
                    load_checkpoint(&mut model, &mut blob),
                    Err(DecodeError::BadShape)
                ),
                "version {version}"
            );
        }
    }

    #[test]
    fn foreign_recipe_rejected() {
        let (mut model, _) = setup();
        for recipe in [PRETRAIN_RECIPE - 1, PRETRAIN_RECIPE + 1] {
            let mut blob = blob_with_header(&model, VERSION, Some(recipe));
            assert!(
                matches!(
                    load_checkpoint(&mut model, &mut blob),
                    Err(DecodeError::BadShape)
                ),
                "recipe {recipe}"
            );
        }
        // The same body under this recipe loads.
        let mut blob = blob_with_header(&model, VERSION, Some(PRETRAIN_RECIPE));
        assert_eq!(load_checkpoint(&mut model, &mut blob), Ok(()));
    }

    #[test]
    fn truncated_rejected() {
        let (mut model, _) = setup();
        let full = save_checkpoint(&model);
        let mut cut = full.slice(0..full.len() / 2);
        assert!(load_checkpoint(&mut model, &mut cut).is_err());
    }
}
