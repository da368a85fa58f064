//! Method registry: constructs the estimator lineup of §6.1 with
//! consistent, harness-scaled settings.

use crate::harness::HarnessConfig;
use neursc_baselines::correlated::CorrelatedSampling;
use neursc_baselines::cset::CharacteristicSets;
use neursc_baselines::jsub::JSub;
use neursc_baselines::lss::{Lss, LssConfig};
use neursc_baselines::nsic::{Nsic, NsicConfig, NsicEncoder};
use neursc_baselines::sumrdf::SumRdf;
use neursc_baselines::wanderjoin::WanderJoin;
use neursc_baselines::{CountEstimator, NeurScEstimator};
use neursc_core::{DiscriminatorMetric, NeurSc, NeurScConfig, Variant};

/// NeurSC configuration scaled for the CPU harness.
pub fn neursc_config(cfg: &HarnessConfig) -> NeurScConfig {
    let mut c = NeurScConfig::small();
    c.pretrain_epochs = cfg.epochs;
    c.adversarial_epochs = (cfg.epochs / 3).max(2);
    c.batch_size = 8;
    c.threads = cfg.threads;
    c
}

/// The full NeurSC model as an estimator.
pub fn neursc(cfg: &HarnessConfig) -> Box<dyn CountEstimator> {
    Box::new(NeurScEstimator {
        model: NeurSc::new(neursc_config(cfg), cfg.seed),
        label: "NeurSC",
    })
}

/// A NeurSC variant under a given label (ablations).
pub fn neursc_variant(
    cfg: &HarnessConfig,
    variant: Variant,
    label: &'static str,
) -> Box<dyn CountEstimator> {
    Box::new(NeurScEstimator {
        model: NeurSc::new(neursc_config(cfg).with_variant(variant), cfg.seed),
        label,
    })
}

/// A NeurSC discriminator-metric variant (Fig. 12).
pub fn neursc_metric(
    cfg: &HarnessConfig,
    metric: DiscriminatorMetric,
    label: &'static str,
) -> Box<dyn CountEstimator> {
    // Non-Wasserstein metrics do not instantiate the critic but keep the
    // adversarial epochs so the distance term participates in training.
    let variant = if metric == DiscriminatorMetric::Wasserstein {
        Variant::Full
    } else {
        Variant::DualOnly
    };
    let mut c = neursc_config(cfg).with_variant(variant).with_metric(metric);
    if metric != DiscriminatorMetric::Wasserstein {
        // DualOnly skips the critic; the metric loss still needs the
        // adversarial phase to run.
        c.adversarial_epochs = c.adversarial_epochs.max(2);
    }
    Box::new(NeurScEstimator {
        model: NeurSc::new(c, cfg.seed),
        label,
    })
}

/// The five G-CARE methods.
pub fn gcare_methods() -> Vec<Box<dyn CountEstimator>> {
    vec![
        Box::new(CharacteristicSets::new()),
        Box::new(SumRdf::new()),
        Box::new(CorrelatedSampling::default()),
        Box::new(WanderJoin::default()),
        Box::new(JSub::default()),
    ]
}

/// LSS scaled to the harness.
pub fn lss(cfg: &HarnessConfig) -> Box<dyn CountEstimator> {
    Box::new(Lss::new(LssConfig {
        epochs: cfg.epochs,
        ..LssConfig::default()
    }))
}

/// NSIC variants (paper: NSIC-I and NSIC-C, evaluated on Yeast only).
pub fn nsic_methods(cfg: &HarnessConfig) -> Vec<Box<dyn CountEstimator>> {
    let base = NsicConfig {
        epochs: (cfg.epochs / 2).max(3),
        ..NsicConfig::default()
    };
    vec![
        Box::new(Nsic::new(NsicConfig {
            encoder: NsicEncoder::Gin,
            ..base.clone()
        })),
        Box::new(Nsic::new(NsicConfig {
            encoder: NsicEncoder::MeanConv,
            ..base
        })),
    ]
}

/// NSIC with substructure extraction (Fig. 11).
pub fn nsic_with_se(cfg: &HarnessConfig) -> Box<dyn CountEstimator> {
    Box::new(Nsic::new(NsicConfig {
        encoder: NsicEncoder::Gin,
        with_extraction: true,
        epochs: (cfg.epochs / 2).max(3),
        ..NsicConfig::default()
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_produces_expected_lineup() {
        let cfg = HarnessConfig::default();
        let names: Vec<&str> = gcare_methods().iter().map(|m| m.name()).collect();
        assert_eq!(names, ["CSet", "SumRDF", "CS", "WJ", "JSUB"]);
        assert_eq!(neursc(&cfg).name(), "NeurSC");
        assert_eq!(lss(&cfg).name(), "LSS");
        let nsic_names: Vec<&str> = nsic_methods(&cfg).iter().map(|m| m.name()).collect();
        assert_eq!(nsic_names, ["NSIC-I", "NSIC-C"]);
        assert_eq!(nsic_with_se(&cfg).name(), "NSIC w/ SE");
    }

    #[test]
    fn variant_labels() {
        let cfg = HarnessConfig::default();
        assert_eq!(
            neursc_variant(&cfg, Variant::DualOnly, "NeurSC-D").name(),
            "NeurSC-D"
        );
        assert_eq!(
            neursc_metric(&cfg, DiscriminatorMetric::Euclidean, "NeurSC-EU").name(),
            "NeurSC-EU"
        );
    }
}
