//! Model persistence: config + parameters in one dependency-free text file.
//!
//! Layout:
//!
//! ```text
//! neursc-model v1
//! checksum <16 hex digits>   # FNV-1a-64 of every byte after this line
//! <key> = <value>            # configuration lines
//! ...
//! ---
//! neursc-params v1 <n>       # the neursc_nn parameter-store format
//! ...
//! ```
//!
//! The checksum sits in the header (not the tail) so *truncation* — the
//! most common corruption of an interrupted write — changes the covered
//! bytes and fails verification, instead of silently removing a trailer.
//! The line is mandatory: a file without it is rejected as corrupt, never
//! loaded unverified. Runtime knobs (`budget`, `grad_clip`,
//! `fail_on_divergence`) are deliberately not persisted: they describe the
//! serving environment, not the model.
//!
//! Four lines are here only so that v1 files keep their bytes: the
//! checksum of a model — pinned by the training golden and by the
//! benchmark's reference outputs — covers every config line, so dropping
//! one would move it. `threads` is a runtime knob like the ones above and
//! is persisted all the same. Three lines are fixed and stand for no
//! setting at all; the writer always emits them as they are here:
//!
//! - `sample_rate = 1` — §5.8's query-time substructure rate is an argument
//!   of [`crate::sampling::estimate_with_sample_rate`], never a model
//!   setting; the reader ignores the key whatever it holds, or its absence.
//! - `gb_connect_components = true` — `G_B`'s components are always
//!   connected (§5.3); the reader rejects `false` with a parse error
//!   rather than load a model that would silently behave otherwise.
//! - `min_parallel_rows = 256` — the kernel fan-out it tuned is gone; the
//!   reader ignores the key whatever it holds.
//!
//! All four leave with the next format version (ROADMAP item 9(b)).

use crate::config::{DiscriminatorMetric, NeurScConfig, Variant};
use crate::error::NeurScError;
use crate::model::NeurSc;
use neursc_gnn::{AttentionConfig, FeatureConfig, GinConfig};
use neursc_graph::hash::fnv1a64;
use neursc_match::FilterConfig;
use neursc_nn::serialize::{load_values, store_to_string, SerializeError};
use std::fmt::Write as _;
use std::path::Path;

/// The FNV-1a-64 checksum of a model's serialized body — the same value
/// the `checksum` header line of a saved file carries, so a live model can
/// be matched against the file it was loaded from (or hot-reloaded to)
/// without touching disk. Two models with identical config and weights
/// have identical checksums.
///
/// ```
/// use neursc_core::persist::{model_checksum, model_to_string};
/// use neursc_core::{NeurSc, NeurScConfig};
/// let m = NeurSc::new(NeurScConfig::small(), 1);
/// let hex = format!("{:016x}", model_checksum(&m));
/// assert!(model_to_string(&m).contains(&hex));
/// ```
pub fn model_checksum(model: &NeurSc) -> u64 {
    fnv1a64(model_body(model).as_bytes())
}

/// Serializes a model to text (checksummed format).
pub fn model_to_string(model: &NeurSc) -> String {
    let body = model_body(model);
    format!(
        "neursc-model v1\nchecksum {:016x}\n{body}",
        fnv1a64(body.as_bytes())
    )
}

/// The config + parameter body covered by the header checksum.
fn model_body(model: &NeurSc) -> String {
    let c = &model.config;
    let mut body = String::new();
    let mut kv = |k: &str, v: String| {
        // Writing to a String cannot fail.
        let _ = writeln!(body, "{k} = {v}");
    };
    kv("degree_bits", c.features.degree_bits.to_string());
    kv("label_bits", c.features.label_bits.to_string());
    kv("k_hops", c.features.k_hops.to_string());
    kv("gin_hidden", c.gin.hidden_dim.to_string());
    kv("gin_layers", c.gin.n_layers.to_string());
    kv("attn_hidden", c.attention.hidden_dim.to_string());
    kv("attn_layers", c.attention.n_layers.to_string());
    kv("attn_self_term", c.attention.self_term.to_string());
    kv("head_hidden", c.head_hidden.to_string());
    kv("disc_hidden", c.disc_hidden.to_string());
    kv("profile_radius", c.filter.profile_radius.to_string());
    kv("refinement_rounds", c.filter.refinement_rounds.to_string());
    kv("variant", variant_name(c.variant).to_string());
    kv("metric", metric_name(c.metric).to_string());
    kv("beta", c.beta.to_string());
    kv("lr_est", c.lr_est.to_string());
    kv("lr_disc", c.lr_disc.to_string());
    kv("batch_size", c.batch_size.to_string());
    kv("iter_disc", c.iter_disc.to_string());
    kv("pretrain_epochs", c.pretrain_epochs.to_string());
    kv("adversarial_epochs", c.adversarial_epochs.to_string());
    kv("clamp", c.clamp.to_string());
    kv("sample_rate", "1".to_string()); // fixed, see the module doc
    kv("gb_connect_components", "true".to_string()); // fixed, see the module doc
    kv(
        "candidate_guided_correspondence",
        c.candidate_guided_correspondence.to_string(),
    );
    kv(
        "max_substructure_vertices",
        c.max_substructure_vertices
            .map(|v| v.to_string())
            .unwrap_or_else(|| "none".into()),
    );
    kv("seed", c.seed.to_string());
    kv("threads", c.threads.to_string());
    kv("min_parallel_rows", "256".to_string()); // vestigial, see the module doc
    body.push_str("---\n");
    body.push_str(&store_to_string(&model.store));
    body
}

fn variant_name(v: Variant) -> &'static str {
    match v {
        Variant::Full => "full",
        Variant::DualOnly => "dual_only",
        Variant::IntraOnly => "intra_only",
        Variant::NoExtraction => "no_extraction",
    }
}

fn metric_name(m: DiscriminatorMetric) -> &'static str {
    match m {
        DiscriminatorMetric::Wasserstein => "wasserstein",
        DiscriminatorMetric::Euclidean => "euclidean",
        DiscriminatorMetric::KullbackLeibler => "kl",
        DiscriminatorMetric::JensenShannon => "js",
    }
}

fn corrupt(detail: impl Into<String>) -> NeurScError {
    NeurScError::Corrupt {
        path: None,
        detail: detail.into(),
    }
}

/// Parses a model back. The checksum is verified before any field is
/// interpreted; the architecture is rebuilt from the config lines and the
/// stored parameter values are parsed in place and moved in.
fn model_from_string(text: &str) -> Result<NeurSc, NeurScError> {
    let Some(after_header) = text.strip_prefix("neursc-model v1\n") else {
        return Err(NeurScError::Persist(SerializeError::Parse(
            "bad model header".into(),
        )));
    };
    let Some(rest) = after_header.strip_prefix("checksum ") else {
        return Err(corrupt("missing checksum line"));
    };
    let Some((hex, body)) = rest.split_once('\n') else {
        return Err(corrupt("checksum line is not terminated"));
    };
    let stored = u64::from_str_radix(hex.trim(), 16)
        .map_err(|_| corrupt(format!("unreadable checksum {hex:?}")))?;
    let actual = fnv1a64(body.as_bytes());
    if stored != actual {
        return Err(corrupt(format!(
            "checksum mismatch: file says {stored:016x}, contents hash to {actual:016x} \
             (truncated or bit-flipped?)"
        )));
    }

    // Config lines up to `---` (split as `str::lines` splits); the
    // parameter section is the rest of `body`, parsed where it lies.
    let mut kv = std::collections::HashMap::new();
    let mut params = "";
    let mut offset = 0;
    for raw in body.split_inclusive('\n') {
        offset += raw.len();
        let line = raw
            .strip_suffix('\n')
            .map_or(raw, |l| l.strip_suffix('\r').unwrap_or(l));
        if line == "---" {
            params = &body[offset..];
            break;
        }
        if let Some((k, v)) = line.split_once('=') {
            kv.insert(k.trim().to_string(), v.trim().to_string());
        }
    }
    let get = |k: &str| -> Result<&String, SerializeError> {
        kv.get(k)
            .ok_or_else(|| SerializeError::Parse(format!("missing config key {k}")))
    };
    let parse_num = |k: &str| -> Result<usize, SerializeError> {
        get(k)?
            .parse()
            .map_err(|_| SerializeError::Parse(format!("bad value for {k}")))
    };
    let parse_f = |k: &str| -> Result<f32, SerializeError> {
        get(k)?
            .parse()
            .map_err(|_| SerializeError::Parse(format!("bad value for {k}")))
    };

    let features = FeatureConfig {
        degree_bits: parse_num("degree_bits")?,
        label_bits: parse_num("label_bits")?,
        k_hops: parse_num("k_hops")? as u32,
    };
    let variant = match get("variant")?.as_str() {
        "full" => Variant::Full,
        "dual_only" => Variant::DualOnly,
        "intra_only" => Variant::IntraOnly,
        "no_extraction" => Variant::NoExtraction,
        other => {
            return Err(NeurScError::Persist(SerializeError::Parse(format!(
                "unknown variant {other}"
            ))))
        }
    };
    let metric = match get("metric")?.as_str() {
        "wasserstein" => DiscriminatorMetric::Wasserstein,
        "euclidean" => DiscriminatorMetric::Euclidean,
        "kl" => DiscriminatorMetric::KullbackLeibler,
        "js" => DiscriminatorMetric::JensenShannon,
        other => {
            return Err(NeurScError::Persist(SerializeError::Parse(format!(
                "unknown metric {other}"
            ))))
        }
    };
    let max_sub = match get("max_substructure_vertices")?.as_str() {
        "none" => None,
        s => Some(
            s.parse()
                .map_err(|_| SerializeError::Parse("bad max_substructure_vertices".into()))?,
        ),
    };
    let seed: u64 = get("seed")?
        .parse()
        .map_err(|_| SerializeError::Parse("bad seed".into()))?;
    if kv.get("gb_connect_components").is_some_and(|v| v != "true") {
        return Err(NeurScError::Persist(SerializeError::Parse(
            "gb_connect_components must be true: G_B's components are always connected".into(),
        )));
    }

    // Runtime-only knobs are not persisted; a loaded model gets fresh
    // defaults for them.
    let NeurScConfig {
        threads: default_threads,
        budget,
        grad_clip,
        fail_on_divergence,
        ..
    } = NeurScConfig::default();

    let config = NeurScConfig {
        features,
        gin: GinConfig {
            in_dim: features.dim(),
            hidden_dim: parse_num("gin_hidden")?,
            n_layers: parse_num("gin_layers")?,
        },
        attention: AttentionConfig {
            in_dim: features.dim(),
            hidden_dim: parse_num("attn_hidden")?,
            n_layers: parse_num("attn_layers")?,
            self_term: get("attn_self_term")? == "true",
        },
        head_hidden: parse_num("head_hidden")?,
        disc_hidden: parse_num("disc_hidden")?,
        filter: FilterConfig {
            profile_radius: parse_num("profile_radius")? as u32,
            refinement_rounds: parse_num("refinement_rounds")?,
        },
        variant,
        metric,
        beta: parse_f("beta")?,
        lr_est: parse_f("lr_est")?,
        lr_disc: parse_f("lr_disc")?,
        batch_size: parse_num("batch_size")?,
        iter_disc: parse_num("iter_disc")?,
        pretrain_epochs: parse_num("pretrain_epochs")?,
        adversarial_epochs: parse_num("adversarial_epochs")?,
        clamp: parse_f("clamp")?,
        candidate_guided_correspondence: kv
            .get("candidate_guided_correspondence")
            .is_none_or(|v| v == "true"),
        max_substructure_vertices: max_sub,
        seed,
        // Pre-parallelism model files carry no `threads` key; fall back to
        // the sequential default rather than rejecting them.
        threads: kv.get("threads").map_or(Ok(default_threads), |v| {
            v.parse()
                .map_err(|_| SerializeError::Parse("bad threads".into()))
        })?,
        budget,
        grad_clip,
        fail_on_divergence,
    };

    let mut model = NeurSc::new(config, seed);
    load_values(&mut model.store, params)?;
    Ok(model)
}

fn attach_path(e: NeurScError, path: &Path) -> NeurScError {
    match e {
        NeurScError::Corrupt { path: None, detail } => NeurScError::Corrupt {
            path: Some(path.to_path_buf()),
            detail,
        },
        other => other,
    }
}

/// Writes a model to a file, atomically: a crash (or a daemon
/// `reload_model`) mid-save sees the previous file or the new one.
pub fn save_model(model: &NeurSc, path: &Path) -> Result<(), NeurScError> {
    neursc_graph::io::write_atomic(path, model_to_string(model).as_bytes()).map_err(|e| {
        NeurScError::Io {
            path: Some(path.to_path_buf()),
            source: e,
        }
    })
}

/// Loads a model from a file, verifying its checksum first.
pub fn load_model(path: &Path) -> Result<NeurSc, NeurScError> {
    let text = std::fs::read_to_string(path).map_err(|e| NeurScError::Io {
        path: Some(path.to_path_buf()),
        source: e,
    })?;
    model_from_string(&text).map_err(|e| attach_path(e, path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use neursc_graph::generate::erdos_renyi;
    use neursc_graph::sample::{sample_query, QuerySampler};
    use rand::SeedableRng;

    #[test]
    fn roundtrip_preserves_estimates() {
        let g = erdos_renyi(80, 200, 3, 1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let q = sample_query(&g, &QuerySampler::induced(4), &mut rng).unwrap();
        let model = NeurSc::new(NeurScConfig::small(), 11);
        let before = model.estimate(&q, &g).unwrap();
        let text = model_to_string(&model);
        let restored = model_from_string(&text).unwrap();
        let after = restored.estimate(&q, &g).unwrap();
        assert_eq!(before, after);
        assert_eq!(restored.config.seed, 11);
    }

    #[test]
    fn roundtrip_preserves_variant_and_metric() {
        use crate::config::{DiscriminatorMetric, Variant};
        let cfg = NeurScConfig::small()
            .with_variant(Variant::DualOnly)
            .with_metric(DiscriminatorMetric::JensenShannon);
        let model = NeurSc::new(cfg, 3);
        let restored = model_from_string(&model_to_string(&model)).unwrap();
        assert_eq!(restored.config.variant, Variant::DualOnly);
        assert_eq!(restored.config.metric, DiscriminatorMetric::JensenShannon);
        assert!(restored.disc.is_none());
    }

    #[test]
    fn threads_roundtrip_and_files_of_every_age_load() {
        let model = NeurSc::new(NeurScConfig::small().with_threads(4), 13);
        let text = model_to_string(&model);
        let restored = model_from_string(&text).unwrap();
        assert_eq!(restored.config.threads, 4);
        for fixed in [
            "sample_rate = 1",
            "gb_connect_components = true",
            "min_parallel_rows = 256",
        ] {
            assert!(
                text.contains(&format!("\n{fixed}\n")),
                "v1 line {fixed} kept"
            );
        }

        let rewritten = |edit: &dyn Fn(&str) -> Option<String>| {
            let body: String = text.lines().skip(2).filter_map(edit).collect();
            let text = format!(
                "neursc-model v1\nchecksum {:016x}\n{body}",
                fnv1a64(body.as_bytes())
            );
            model_from_string(&text)
        };
        let replaced = |from: &str, to: &str| rewritten(&|l| Some(l.replace(from, to) + "\n"));
        let without = |keys: &[&str]| {
            rewritten(&|l| (!keys.iter().any(|k| l.starts_with(k))).then(|| format!("{l}\n")))
        };
        // A file the parent commit wrote with the knob off its default: the
        // key is read past.
        let tuned = replaced("min_parallel_rows = 256", "min_parallel_rows = 64");
        assert_eq!(tuned.unwrap().config.threads, 4);
        // A file written before either key existed loads sequential.
        let oldest = without(&["threads", "min_parallel_rows"]);
        assert_eq!(oldest.unwrap().config.threads, 1);
        // `sample_rate` never had an effect: any value, or none, loads to
        // the model that was saved.
        let sum = model_checksum(&model);
        let half = replaced("sample_rate = 1", "sample_rate = 0.5");
        assert_eq!(model_checksum(&half.unwrap()), sum);
        assert_eq!(model_checksum(&without(&["sample_rate"]).unwrap()), sum);
        // An unconnected `G_B` is not a model this code can run.
        let unconnected = replaced(
            "gb_connect_components = true",
            "gb_connect_components = false",
        );
        let err = unconnected.err().unwrap();
        assert!(err.is_parse(), "expected a parse error, got: {err}");
    }

    #[test]
    fn file_without_its_checksum_line_is_rejected_as_corrupt() {
        let text = model_to_string(&NeurSc::new(NeurScConfig::small(), 25));
        let stripped: String = text
            .lines()
            .filter(|l| !l.starts_with("checksum"))
            .map(|l| format!("{l}\n"))
            .collect();
        let err = model_from_string(&stripped).err().unwrap();
        assert!(err.is_corruption(), "expected corruption, got: {err}");
        assert!(err.to_string().contains("missing checksum"), "{err}");
    }

    #[test]
    fn failed_save_leaves_the_previous_model_loadable() {
        let dir = std::env::temp_dir().join(format!("neursc_save_model_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.model");
        let old = NeurSc::new(NeurScConfig::small(), 31);
        save_model(&old, &path).unwrap();
        assert!(!dir.join("m.model.tmp").exists(), "temp renamed away");

        // An unwritable temp (a directory squats on its name): the save
        // fails typed and the file under the final name is untouched.
        std::fs::create_dir(dir.join("m.model.tmp")).unwrap();
        let err = save_model(&NeurSc::new(NeurScConfig::small(), 32), &path).unwrap_err();
        assert!(matches!(err, NeurScError::Io { .. }), "{err}");
        let kept = load_model(&path).unwrap();
        assert_eq!(model_checksum(&kept), model_checksum(&old));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_garbage() {
        assert!(model_from_string("").is_err());
        assert!(model_from_string("neursc-model v1\nvariant = alien\n---\n").is_err());
        assert!(model_from_string("wrong\n").is_err());
    }

    #[test]
    fn truncated_file_fails_with_corruption_error() {
        let model = NeurSc::new(NeurScConfig::small(), 21);
        let text = model_to_string(&model);
        let truncated = &text[..text.len() - 40];
        let err = model_from_string(truncated).err().unwrap();
        assert!(err.is_corruption(), "expected corruption, got: {err}");
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn bit_flipped_file_fails_with_corruption_error() {
        let model = NeurSc::new(NeurScConfig::small(), 22);
        let mut bytes = model_to_string(&model).into_bytes();
        // Flip a bit deep inside the parameter section.
        let i = bytes.len() - 100;
        bytes[i] ^= 0x04;
        let text = String::from_utf8(bytes).unwrap();
        let err = model_from_string(&text).err().unwrap();
        assert!(err.is_corruption(), "expected corruption, got: {err}");
    }

    #[test]
    fn loaded_model_gets_default_runtime_budget() {
        let mut cfg = NeurScConfig::small();
        cfg.budget.max_query_vertices = Some(7);
        cfg.fail_on_divergence = true;
        let model = NeurSc::new(cfg, 23);
        let restored = model_from_string(&model_to_string(&model)).unwrap();
        // Runtime knobs are not persisted — the loaded model is on defaults.
        assert_eq!(
            restored.config.budget,
            crate::config::ResourceBudget::default()
        );
        assert!(!restored.config.fail_on_divergence);
    }

    #[test]
    fn file_roundtrip() {
        let model = NeurSc::new(NeurScConfig::small(), 5);
        let dir = std::env::temp_dir().join("neursc_core_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.txt");
        save_model(&model, &path).unwrap();
        let restored = load_model(&path).unwrap();
        assert_eq!(model_to_string(&model), model_to_string(&restored));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_error_carries_the_path() {
        let missing = std::env::temp_dir().join("neursc_no_such_model.txt");
        let err = load_model(&missing).err().unwrap();
        assert!(err.is_io());
        assert!(
            err.to_string().contains("neursc_no_such_model.txt"),
            "{err}"
        );

        let dir = std::env::temp_dir().join("neursc_core_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mangled.txt");
        let model = NeurSc::new(NeurScConfig::small(), 24);
        let text = model_to_string(&model);
        std::fs::write(&path, &text[..text.len() - 10]).unwrap();
        let err = load_model(&path).err().unwrap();
        assert!(err.is_corruption());
        assert!(err.to_string().contains("mangled.txt"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
