//! Humanness verification: a 9-layer decision tree over the 48 IMU
//! features (§5.4), plus a calibrated operating point for end-to-end
//! composition.
//!
//! Two usage modes:
//!
//! - [`HumannessValidator::train`] trains on synthetic traces and reports
//!   held-out metrics — this exercises the real code path.
//! - [`HumannessValidator::with_operating_point`] pins the validator's
//!   error rates to the paper's measured recalls (human 0.934, non-human
//!   0.982 in Table 6), which is the right tool for reproducing the
//!   Table 6 false-positive/negative composition: those numbers came from
//!   a human-subject study we cannot rerun, and Appendix A shows the
//!   composition depends only on the recalls.

use crate::features::extract_features;
use crate::imu::{ImuTrace, MotionKind};
use fiat_ml::metrics::ConfusionMatrix;
use fiat_ml::tree::DecisionTree;
use fiat_ml::{Classifier, Dataset, StandardScaler};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Depth of the humanness decision tree (§5.4: "9-layer decision tree").
pub const TREE_DEPTH: usize = 9;

/// Held-out evaluation of a trained validator.
#[derive(Debug, Clone, Copy)]
pub struct ValidatorReport {
    /// Recall on human traces.
    pub recall_human: f64,
    /// Recall on non-human traces.
    pub recall_non_human: f64,
    /// Precision of the "human" verdict.
    pub precision_human: f64,
    /// Precision of the "non-human" verdict.
    pub precision_non_human: f64,
}

enum Mode {
    Trained {
        tree: DecisionTree,
        scaler: StandardScaler,
    },
    /// Decide from ground truth with pinned recalls (for composition
    /// studies): a human trace validates with probability `recall_human`,
    /// a non-human trace is rejected with probability `recall_non_human`.
    Calibrated {
        recall_human: f64,
        recall_non_human: f64,
        rng: seeded_rng::SeededCell,
    },
}

/// A tiny deterministic RNG cell so `validate` can take `&self`-style use
/// through `&mut self` without exposing rand types in the API.
mod seeded_rng {
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    pub struct SeededCell(StdRng);

    impl SeededCell {
        pub fn new(seed: u64) -> Self {
            SeededCell(StdRng::seed_from_u64(seed))
        }

        pub fn bernoulli(&mut self, p: f64) -> bool {
            self.0.gen_range(0.0..1.0) < p
        }
    }
}

/// Humanness validator.
pub struct HumannessValidator {
    mode: Mode,
}

impl HumannessValidator {
    /// Train a real tree on `n_per_class` synthetic traces per class and
    /// evaluate on a same-sized held-out set. Returns the validator and
    /// its held-out report.
    pub fn train(n_per_class: usize, seed: u64) -> (Self, ValidatorReport) {
        let (train, _) = Self::make_dataset(n_per_class, seed);
        let (test, _) = Self::make_dataset(n_per_class, seed.wrapping_add(0x9e3779b9));

        let (scaler, train_x) = StandardScaler::fit_transform(&train.x);
        let train_scaled = Dataset {
            x: train_x,
            y: train.y.clone(),
            n_classes: 2,
            feature_names: train.feature_names.clone(),
        };
        let mut tree = DecisionTree::new(TREE_DEPTH);
        tree.fit(&train_scaled);

        let test_x = scaler.transform(&test.x);
        let pred: Vec<usize> = test_x.iter().map(|x| tree.predict_one(x)).collect();
        let cm = ConfusionMatrix::from_predictions(&test.y, &pred, 2);
        let report = ValidatorReport {
            recall_human: cm.recall(1),
            recall_non_human: cm.recall(0),
            precision_human: cm.precision(1),
            precision_non_human: cm.precision(0),
        };
        (
            HumannessValidator {
                mode: Mode::Trained { tree, scaler },
            },
            report,
        )
    }

    /// Build a calibrated validator with pinned recalls. Paper operating
    /// point: `recall_human = 0.934`, `recall_non_human = 0.982`.
    pub fn with_operating_point(recall_human: f64, recall_non_human: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&recall_human));
        assert!((0.0..=1.0).contains(&recall_non_human));
        HumannessValidator {
            mode: Mode::Calibrated {
                recall_human,
                recall_non_human,
                rng: seeded_rng::SeededCell::new(seed),
            },
        }
    }

    /// Decide whether a trace shows a human. For the calibrated mode the
    /// trace's ground truth drives the pinned-recall coin flip.
    pub fn validate(&mut self, trace: &ImuTrace, truth: MotionKind) -> bool {
        self.validate_features(&extract_features(trace), truth)
    }

    /// Decide from an already-extracted 48-feature vector (what FIAT's
    /// app actually ships over the wire, §5.3).
    pub fn validate_features(&mut self, features: &[f64], truth: MotionKind) -> bool {
        match &mut self.mode {
            Mode::Trained { tree, scaler } => {
                let mut f = features.to_vec();
                scaler.transform_row(&mut f);
                tree.predict_one(&f) == 1
            }
            Mode::Calibrated {
                recall_human,
                recall_non_human,
                rng,
            } => match truth.label() {
                1 => rng.bernoulli(*recall_human),
                _ => !rng.bernoulli(*recall_non_human),
            },
        }
    }

    /// Generate a labeled dataset of synthetic traces: half human, a
    /// quarter resting, a quarter synthetic sway. Returns the dataset and
    /// the per-sample motion kinds.
    pub fn make_dataset(n_per_class: usize, seed: u64) -> (Dataset, Vec<MotionKind>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut kinds = Vec::new();
        for i in 0..n_per_class {
            let dur = rng.gen_range(400..1200);
            let t = ImuTrace::synthesize(MotionKind::HumanTouch, dur, seed ^ (i as u64) << 1);
            x.push(extract_features(&t));
            y.push(1);
            kinds.push(MotionKind::HumanTouch);

            let kind = if i % 2 == 0 {
                MotionKind::Resting
            } else {
                MotionKind::SyntheticSway
            };
            let dur = rng.gen_range(400..1200);
            let t = ImuTrace::synthesize(kind, dur, seed ^ ((i as u64) << 1 | 1));
            x.push(extract_features(&t));
            y.push(0);
            kinds.push(kind);
        }
        let names = crate::features::feature_names();
        (Dataset::new(x, y).with_feature_names(names), kinds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trained_validator_separates_classes_well() {
        let (_, report) = HumannessValidator::train(60, 42);
        assert!(
            report.recall_human > 0.9,
            "human recall {}",
            report.recall_human
        );
        assert!(
            report.recall_non_human > 0.9,
            "non-human recall {}",
            report.recall_non_human
        );
    }

    #[test]
    fn trained_validator_accepts_fresh_human_trace() {
        let (mut v, _) = HumannessValidator::train(60, 1);
        let mut accepted = 0;
        for seed in 1000..1020 {
            let t = ImuTrace::synthesize(MotionKind::HumanTouch, 800, seed);
            if v.validate(&t, MotionKind::HumanTouch) {
                accepted += 1;
            }
        }
        assert!(accepted >= 18, "accepted {accepted}/20 human traces");
    }

    #[test]
    fn trained_validator_rejects_resting_phone() {
        let (mut v, _) = HumannessValidator::train(60, 1);
        let mut rejected = 0;
        for seed in 2000..2020 {
            let t = ImuTrace::synthesize(MotionKind::Resting, 800, seed);
            if !v.validate(&t, MotionKind::Resting) {
                rejected += 1;
            }
        }
        assert!(rejected >= 18, "rejected {rejected}/20 resting traces");
    }

    #[test]
    fn calibrated_mode_hits_pinned_recalls() {
        let mut v = HumannessValidator::with_operating_point(0.934, 0.982, 7);
        let human = ImuTrace::synthesize(MotionKind::HumanTouch, 400, 0);
        let resting = ImuTrace::synthesize(MotionKind::Resting, 400, 0);
        let n = 5000;
        let mut human_ok = 0;
        let mut nonhuman_rej = 0;
        for _ in 0..n {
            if v.validate(&human, MotionKind::HumanTouch) {
                human_ok += 1;
            }
            if !v.validate(&resting, MotionKind::Resting) {
                nonhuman_rej += 1;
            }
        }
        let rh = human_ok as f64 / n as f64;
        let rn = nonhuman_rej as f64 / n as f64;
        assert!((rh - 0.934).abs() < 0.02, "human recall {rh}");
        assert!((rn - 0.982).abs() < 0.02, "non-human recall {rn}");
    }

    #[test]
    #[should_panic]
    fn calibrated_rejects_bad_recall() {
        let _ = HumannessValidator::with_operating_point(1.5, 0.9, 0);
    }

    #[test]
    fn dataset_is_balanced_and_labeled() {
        let (d, kinds) = HumannessValidator::make_dataset(20, 3);
        assert_eq!(d.len(), 40);
        assert_eq!(d.class_counts(), vec![20, 20]);
        assert_eq!(kinds.len(), 40);
        for (y, k) in d.y.iter().zip(&kinds) {
            assert_eq!(*y, k.label());
        }
        assert_eq!(d.n_features(), crate::features::FEATURE_COUNT);
    }
}
