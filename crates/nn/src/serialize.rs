//! Dependency-free text persistence for parameter stores.
//!
//! Format (line-oriented, whitespace-separated):
//!
//! ```text
//! neursc-params v1 <n_tensors>
//! tensor <rows> <cols>
//! <f32> <f32> ...            # rows*cols values, row-major, one tensor per line
//! ...
//! ```
//!
//! Values are printed with enough digits (`{:e}` with full precision via
//! `f32 -> String` roundtrip formatting) to reload bit-identically.

use crate::tensor::Tensor;
use crate::ParamStore;
use std::fmt::Write as _;

/// Serialization errors.
#[derive(Debug)]
pub enum SerializeError {
    /// Malformed input text.
    Parse(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for SerializeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerializeError::Parse(m) => write!(f, "parse error: {m}"),
            SerializeError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for SerializeError {}

impl From<std::io::Error> for SerializeError {
    fn from(e: std::io::Error) -> Self {
        SerializeError::Io(e)
    }
}

/// Serializes all parameter values (not gradients) to text.
pub fn store_to_string(store: &ParamStore) -> String {
    let mut out = String::new();
    // Writes to a String are infallible.
    let _ = writeln!(out, "neursc-params v1 {}", store.len());
    for id in store.ids() {
        let t = store.value(id);
        let _ = writeln!(out, "tensor {} {}", t.rows(), t.cols());
        let mut line = String::with_capacity(t.len() * 12);
        for (i, v) in t.data().iter().enumerate() {
            if i > 0 {
                line.push(' ');
            }
            // `{}` on f32 prints the shortest string that roundtrips.
            let _ = write!(line, "{v}");
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Parses a store previously produced by [`store_to_string`] and moves its
/// values into `dst`, whose parameters must match them in number and
/// pairwise in shape — loads a trained model into a freshly constructed
/// network whose layers already allocated their parameters. A parse error
/// comes before a count or shape mismatch.
pub fn load_values(dst: &mut ParamStore, text: &str) -> Result<(), SerializeError> {
    let tensors = parse_tensors(text)?;
    if dst.len() != tensors.len() {
        return Err(SerializeError::Parse(format!(
            "parameter count mismatch: {} vs {}",
            dst.len(),
            tensors.len()
        )));
    }
    let ids: Vec<_> = dst.ids().collect();
    for (id, t) in ids.into_iter().zip(tensors) {
        if dst.value(id).shape() != t.shape() {
            return Err(SerializeError::Parse(format!(
                "shape mismatch on parameter {}",
                id.0
            )));
        }
        *dst.value_mut(id) = t;
    }
    Ok(())
}

/// The tensors of a store's text, in order.
fn parse_tensors(text: &str) -> Result<Vec<Tensor>, SerializeError> {
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| SerializeError::Parse("empty input".into()))?;
    let mut h = header.split_whitespace();
    if h.next() != Some("neursc-params") || h.next() != Some("v1") {
        return Err(SerializeError::Parse("bad header".into()));
    }
    let n: usize = h
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| SerializeError::Parse("bad tensor count".into()))?;
    let mut tensors = Vec::new();
    for i in 0..n {
        let shape_line = lines
            .next()
            .ok_or_else(|| SerializeError::Parse(format!("missing tensor {i} header")))?;
        let mut s = shape_line.split_whitespace();
        if s.next() != Some("tensor") {
            return Err(SerializeError::Parse(format!("bad tensor {i} header")));
        }
        let rows: usize = s
            .next()
            .and_then(|x| x.parse().ok())
            .ok_or_else(|| SerializeError::Parse(format!("bad rows for tensor {i}")))?;
        let cols: usize = s
            .next()
            .and_then(|x| x.parse().ok())
            .ok_or_else(|| SerializeError::Parse(format!("bad cols for tensor {i}")))?;
        let data_line = lines
            .next()
            .ok_or_else(|| SerializeError::Parse(format!("missing data for tensor {i}")))?;
        let data: Result<Vec<f32>, _> = data_line
            .split_whitespace()
            .map(|x| x.parse::<f32>())
            .collect();
        let data = data.map_err(|_| SerializeError::Parse(format!("bad float in tensor {i}")))?;
        if data.len() != rows * cols {
            return Err(SerializeError::Parse(format!(
                "tensor {i}: expected {} values, got {}",
                rows * cols,
                data.len()
            )));
        }
        tensors.push(Tensor::from_vec(rows, cols, data));
    }
    Ok(tensors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_store() -> ParamStore {
        let mut s = ParamStore::new();
        s.alloc(Tensor::from_rows(&[&[1.5, -2.25], &[0.0, 3.125e-7]]));
        s.alloc(Tensor::from_vec(1, 3, vec![f32::MIN_POSITIVE, 1e30, -0.1]));
        s
    }

    /// A store shaped like `s`, all zeros.
    fn zeros_like(s: &ParamStore) -> ParamStore {
        let mut z = ParamStore::new();
        for id in s.ids() {
            z.alloc(Tensor::zeros(s.value(id).rows(), s.value(id).cols()));
        }
        z
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let s = sample_store();
        let text = store_to_string(&s);
        let mut s2 = zeros_like(&s);
        load_values(&mut s2, &text).unwrap();
        for id in s.ids() {
            assert_eq!(s.value(id), s2.value(id));
        }
        assert_eq!(
            text,
            store_to_string(&s2),
            "re-encoding reproduces the text"
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for text in [
            "",
            "wrong header",
            "neursc-params v1 1\ntensor 2 2\n1 2 3",
            "neursc-params v1 1\ntensor 1 1\nnot_a_float",
            "neursc-params v1 2\ntensor 1 1\n0",
        ] {
            // An empty store matches no well-formed input either, but a
            // parse error is reported before the count is compared.
            let err = load_values(&mut ParamStore::new(), text).unwrap_err();
            assert!(!err.to_string().contains("mismatch"), "{text:?}: {err}");
        }
    }

    #[test]
    fn load_values_checks_count_and_shapes() {
        let src = sample_store();
        let text = store_to_string(&src);
        let mut dst = sample_store();
        dst.value_mut(crate::ParamId(0)).fill(9.0);
        load_values(&mut dst, &text).unwrap();
        for id in src.ids() {
            assert_eq!(dst.value(id), src.value(id));
        }

        let mut small = ParamStore::new();
        small.alloc(Tensor::zeros(1, 1));
        let err = load_values(&mut small, &text).unwrap_err();
        assert!(err.to_string().contains("count mismatch"), "{err}");
        let mut reshaped = ParamStore::new();
        reshaped.alloc(Tensor::zeros(2, 2));
        reshaped.alloc(Tensor::zeros(3, 1));
        let err = load_values(&mut reshaped, &text).unwrap_err();
        assert!(err.to_string().contains("parameter 1"), "{err}");
        // A parse error wins over the count mismatch.
        let err = load_values(&mut small, "neursc-params v1 2\ntensor 1 1\nx\n").unwrap_err();
        assert!(err.to_string().contains("bad float"), "{err}");
    }
}
