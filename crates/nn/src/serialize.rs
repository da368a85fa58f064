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
use std::sync::atomic::{AtomicUsize, Ordering};

/// Serialization errors.
#[derive(Debug)]
pub enum SerializeError {
    /// Malformed input text.
    Parse(String),
}

impl std::fmt::Display for SerializeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerializeError::Parse(m) => write!(f, "parse error: {m}"),
        }
    }
}

impl std::error::Error for SerializeError {}

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
    move_values(dst, parse_tensors(text)?)
}

/// Moves already-parsed tensors into `dst` ([`load_values`]' second half):
/// their number and each one's shape must match `dst`'s parameters.
pub fn move_values(dst: &mut ParamStore, tensors: Vec<Tensor>) -> Result<(), SerializeError> {
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

/// The tensors of a store's text, in order, on the calling thread
/// ([`load_values`]' first half; see [`parse_tensors_alongside`]).
fn parse_tensors(text: &str) -> Result<Vec<Tensor>, SerializeError> {
    let layout = Layout::of(text)?;
    let parsed = (0..layout.tensors.len()).map(|i| layout.parse(i)).collect();
    layout.in_order(parsed)
}

/// The tensors of a store's text, as [`load_values`] parses them, on two
/// threads, with `work` run on the calling one first: a second thread
/// starts on the tensors at once, and the calling thread joins it in
/// taking them, one tensor at a time, when `work` returns. However late
/// the second thread is scheduled, no tensor waits for it. Returns
/// `work`'s result and the tensors, bit for bit and error for error those
/// of the one-thread parse; without a second thread the calling thread
/// parses them all.
///
/// No count in the text is trusted before it is checked: each tensor's
/// buffer is sized by the values its data line has room for, so a corrupt
/// `tensor <rows> <cols>` header costs no more memory than the line it
/// precedes. ASCII data lines are split and parsed as bytes; any other
/// line goes through `str::split_whitespace` and `f32::from_str`. Either
/// way every value is the one `f32::from_str` reads from its token, and
/// the error reported is the one on the earliest line.
pub fn parse_tensors_alongside<R>(
    text: &str,
    work: impl FnOnce() -> R,
) -> (R, Result<Vec<Tensor>, SerializeError>) {
    let layout = match Layout::of(text) {
        Ok(layout) => layout,
        Err(e) => return (work(), Err(e)),
    };
    // Each `fetch_add` hands a tensor to exactly one thread; the parsed
    // tensors travel back through the join.
    let next = AtomicUsize::new(0);
    let take = || {
        let mut taken = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= layout.tensors.len() {
                return taken;
            }
            taken.push((i, layout.parse(i)));
        }
    };
    let (out, taken) = std::thread::scope(|s| {
        let helper = std::thread::Builder::new().spawn_scoped(s, take);
        let out = work();
        let mut taken = take();
        if let Some(theirs) = helper.ok().and_then(|h| h.join().ok()) {
            taken.extend(theirs);
        }
        (out, taken)
    });
    let mut slots: Vec<_> = layout.tensors.iter().map(|_| None).collect();
    for (i, t) in taken {
        slots[i] = Some(t);
    }
    // A tensor the helper took and did not return (it panicked) is
    // parsed here.
    let parsed = slots
        .into_iter()
        .enumerate()
        .map(|(i, t)| t.unwrap_or_else(|| layout.parse(i)))
        .collect();
    (out, layout.in_order(parsed))
}

/// Where each tensor of a store's text lies, found by reading every line
/// but no value: so tensors can be parsed in any order, on any thread.
struct Layout<'a> {
    /// `(rows, cols, data line)` of each tensor up to the first bad line.
    tensors: Vec<(usize, usize, &'a str)>,
    /// The error on that bad line, reported after any in `tensors`.
    cut: Result<(), SerializeError>,
}

impl<'a> Layout<'a> {
    /// The layout of `text`; an error where its first line is bad.
    fn of(text: &'a str) -> Result<Self, SerializeError> {
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
        let mut shape = |i: usize| -> Result<(usize, usize, &'a str), SerializeError> {
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
            Ok((rows, cols, data_line))
        };
        let mut cut = Ok(());
        for i in 0..n {
            match shape(i) {
                Ok(t) => tensors.push(t),
                Err(e) => {
                    cut = Err(e);
                    break;
                }
            }
        }
        Ok(Layout { tensors, cut })
    }

    /// Tensor `i`, parsed from its data line.
    fn parse(&self, i: usize) -> Result<Tensor, SerializeError> {
        let (rows, cols, line) = self.tensors[i];
        // `n` values take at least `2n - 1` bytes: a digit each, a
        // separator between.
        let room = line.len().div_ceil(2);
        let mut data = Vec::with_capacity(rows.saturating_mul(cols).min(room));
        parse_values(line, &mut data)
            .ok_or_else(|| SerializeError::Parse(format!("bad float in tensor {i}")))?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(SerializeError::Parse(format!(
                "tensor {i}: expected {} values, got {}",
                rows as u128 * cols as u128,
                data.len()
            )));
        }
        Ok(Tensor::from_vec(rows, cols, data))
    }

    /// The parsed tensors, or the error on the earliest line: the first
    /// failed tensor's, else the cut's.
    fn in_order(
        self,
        parsed: Vec<Result<Tensor, SerializeError>>,
    ) -> Result<Vec<Tensor>, SerializeError> {
        let tensors = parsed.into_iter().collect::<Result<Vec<_>, _>>()?;
        self.cut.map(|()| tensors)
    }
}

/// Appends the values of one data line to `data`; `None` at the first
/// token `f32::from_str` rejects.
fn parse_values(line: &str, data: &mut Vec<f32>) -> Option<()> {
    if !line.is_ascii() {
        for token in line.split_whitespace() {
            data.push(token.parse().ok()?);
        }
        return Some(());
    }
    // One pass: each token is read as the writer's spelling while it is
    // scanned, and re-read by `f32::from_str` only where that fails.
    let bytes = line.as_bytes();
    let mut at = 0;
    while let Some(&b) = bytes.get(at) {
        if is_separator(b) {
            at += 1;
            continue;
        }
        let rest = &bytes[at..];
        let (v, len) = match writer_prefix(rest) {
            Some((v, len)) if rest.get(len).is_none_or(|&b| is_separator(b)) => (v, len),
            _ => {
                let len = rest.iter().position(|&b| is_separator(b));
                let token = &rest[..len.unwrap_or(rest.len())];
                (std::str::from_utf8(token).ok()?.parse().ok()?, token.len())
            }
        };
        data.push(v);
        at += len;
    }
    Some(())
}

/// `char::is_whitespace` on ASCII bytes: `\t`, `\n`, U+000B, `\x0c`, `\r`
/// and space — `u8::is_ascii_whitespace` leaves out U+000B.
fn is_separator(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// `10^k` for `k ≤ 22`: every one is an exact `f64` (`5^22 < 2^53`).
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// The value `f32::from_str` reads from the longest prefix of `s` in the
/// spelling [`store_to_string`] writes, `-?digits` or `-?digits.digits`,
/// and that prefix's length; `None` where `s` does not start with that
/// spelling (`+1`, `.5`, `inf`, …), where it continues with a `.` and no
/// digit (`5.`), and wherever the shortcut below cannot be sure.
///
/// With `w` the prefix's digits as an integer and `k` its fraction digits,
/// the value is `w / 10^k`. For `w ≤ 2^53` and `k ≤ 22` both operands are
/// exact `f64`s, so the division rounds the true quotient `d` once, to the
/// nearest `f64` `x`. Rounding `x` on to `f32` gives `d`'s own nearest
/// `f32` unless `x` is a midpoint between two `f32`s: the midpoints
/// around `d` are themselves `f64`s, so the first rounding cannot carry
/// `d` past one of them, only onto it. A midpoint is handed back as
/// `None`. Every such `x` is at least `10^-22`, far inside `f32`'s normal
/// range, so a midpoint is an `f64` whose 29 bits below `f32` precision
/// read `1000…0`.
fn writer_prefix(s: &[u8]) -> Option<(f32, usize)> {
    let negative = s.first() == Some(&b'-');
    let mut at = usize::from(negative);
    // Nineteen digits fit in a `u64`; a longer `w` may wrap, and is
    // declined below before it is read.
    let mut w = 0u64;
    let mut digits = |at: &mut usize| {
        let start = *at;
        while let Some(d) = s.get(*at).map(|b| b.wrapping_sub(b'0')).filter(|&d| d <= 9) {
            w = w.wrapping_mul(10).wrapping_add(u64::from(d));
            *at += 1;
        }
        *at - start
    };
    let mut n = digits(&mut at);
    if n == 0 {
        return None;
    }
    let mut k = 0;
    if s.get(at) == Some(&b'.') {
        at += 1;
        k = digits(&mut at);
        if k == 0 {
            return None;
        }
        n += k;
    }
    if n > 19 || w > 1 << 53 || k >= POW10.len() {
        return None;
    }
    // `w ≤ 2^53` converts exactly, and faster as an `i64`.
    let x = w as i64 as f64 / POW10[k];
    const BELOW_F32: u64 = (1 << 29) - 1;
    if x.to_bits() & BELOW_F32 == 1 << 28 {
        return None;
    }
    // `x` is not negative: the sign is one bit.
    let v = (x as f32).to_bits() | u32::from(negative) << 31;
    Some((f32::from_bits(v), at))
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

    /// The values read from a data line against `split_whitespace` and
    /// `f32::from_str`.
    fn check_line(line: &str) {
        let mut data = Vec::new();
        let got = parse_values(line, &mut data).map(|()| data.iter().map(|v| v.to_bits()));
        let want: Option<Vec<u32>> = line
            .split_whitespace()
            .map(|t| t.parse::<f32>().ok().map(f32::to_bits))
            .collect();
        assert_eq!(got.map(Vec::from_iter), want, "{line:?}");
    }

    /// [`check_line`] on one spelling; whether the shortcut answered.
    fn check_spelling(s: &str) -> bool {
        check_line(s);
        writer_prefix(s.as_bytes()).is_some_and(|(_, len)| len == s.len())
    }

    /// The midpoint between `f` and the next `f32` up, as an `f64`.
    fn midpoint_above(f: f32) -> f64 {
        (f as f64 + f32::from_bits(f.to_bits() + 1) as f64) / 2.0
    }

    #[test]
    fn value_parsing_equals_from_str_on_sampled_spellings() {
        let mut state = 0x5eed_f32a_u64;
        let mut next_bits = || {
            state = rand::splitmix64(state);
            (state >> 32) as u32
        };
        let mut shortcut = 0;
        let mut sampled = vec![0.0, -0.0, f32::MIN_POSITIVE, f32::MAX, f32::MIN, 0.1, -1.0];
        // Subnormals, the smallest first, and f32s of every exponent, whose
        // shortest spellings carry up to nine significant digits.
        sampled.extend([1, 2, 3, 0x7f_ffff].map(f32::from_bits));
        sampled.extend((0..4000).map(|_| f32::from_bits(next_bits() & 0x807f_ffff)));
        sampled.extend((0..20_000).map(|_| f32::from_bits(next_bits())));
        sampled.extend((0..20_000).map(|_| (next_bits() as f32 / u32::MAX as f32 - 0.5) / 4.0));
        let mut nine_digits = 0;
        let mut line = String::new();
        for (i, &f) in sampled.iter().enumerate() {
            let s = f.to_string();
            shortcut += usize::from(check_spelling(&s));
            line.push_str(&s);
            line.push_str(["  ", "\t", "\u{b}", " "][i % 4]);
            nine_digits += usize::from(s.bytes().filter(u8::is_ascii_digit).count() >= 9);
            if f.is_finite() && f < f32::MAX {
                // Its midpoint above, spelled exactly and as the shortest
                // decimal that rounds to it as an f64: an f64 division lands
                // on the midpoint from a decimal that is not one.
                let m = midpoint_above(f.abs());
                check_spelling(&format!("{m}"));
                check_spelling(&format!("{m:.160}"));
            }
        }
        check_line(&line);
        assert!(nine_digits > 1000, "{nine_digits} nine-digit spellings");
        assert!(
            shortcut > sampled.len() / 2,
            "shortcut taken {shortcut} times"
        );
        // Exact midpoints the shortcut can compute: integers between f32s,
        // and a near-midpoint whose quotient rounds onto one.
        for s in ["16777217", "16777217.0", "-33554434", "0.5000000298023224"] {
            assert!(!check_spelling(s), "{s} is left to f32::from_str");
        }
        assert_eq!(
            midpoint_above(0.5),
            "0.5000000298023224".parse::<f64>().unwrap()
        );
        // Spellings the writer never emits reach `f32::from_str`.
        for s in [
            "1e-3", "+1", ".5", "5.", "-.5", "inf", "-inf", "NaN", "infinity", "-", "", "1.2.3",
            "0x10", "1_0", "1.5e3", "-0.5-",
        ] {
            assert!(!check_spelling(s), "{s:?} is left to f32::from_str");
        }
        check_line("1 2.5 +1 3");
        check_line("1 2.5 5. 3");
        check_line("\t-0 0.25\r");
        // Beyond the shortcut's exact range: 23 fraction digits, a
        // significand over 2^53.
        for s in [
            "0.00000000000000000000001",
            "9007199254740993",
            "123456789012345678",
        ] {
            assert!(!check_spelling(s), "{s}");
        }
    }

    #[test]
    #[ignore = "all 2^32 inputs: ~4 min in release on 2 threads; scripts/ci.sh runs it"]
    fn value_parsing_equals_from_str_on_every_f32() {
        const BLOCK: u64 = 1 << 20;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let bad: Vec<u32> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads as u64)
                .map(|t| {
                    s.spawn(move || {
                        let mut bad = Vec::new();
                        let mut text = String::new();
                        for b in (t..(1 << 32) / BLOCK).step_by(threads) {
                            for bits in b * BLOCK..(b + 1) * BLOCK {
                                let f = f32::from_bits(bits as u32);
                                text.clear();
                                let _ = write!(text, "{f}");
                                // Where the shortcut declines, the token
                                // goes to `f32::from_str` itself.
                                let Some((v, len)) = writer_prefix(text.as_bytes()) else {
                                    continue;
                                };
                                if len < text.len() {
                                    continue;
                                }
                                if text.parse::<f32>().map(f32::to_bits) != Ok(v.to_bits()) {
                                    bad.push(bits as u32);
                                }
                            }
                        }
                        bad
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("worker panicked"))
                .collect()
        });
        assert!(
            bad.is_empty(),
            "{} of 2^32 spellings differ, first bits {:x?}",
            bad.len(),
            &bad[..bad.len().min(16)]
        );
    }

    #[test]
    fn parsing_alongside_other_work_reads_what_one_thread_reads() {
        let mut big = ParamStore::new();
        for i in 0..40 {
            let v: Vec<f32> = (0..i * 7)
                .map(|j| (j as f32 - 3.5) / (i as f32 + 0.25))
                .collect();
            big.alloc(Tensor::from_vec(i, 7, v));
        }
        let good = store_to_string(&big);
        let with_bad_float = good.replacen("tensor 3 7\n", "tensor 3 7\nx ", 1);
        for text in [
            good.as_str(),
            with_bad_float.as_str(),
            // The earliest line's error wins, wherever a thread meets it.
            &with_bad_float.replacen("tensor 30 7", "tensor 30", 1),
            &good.replacen("tensor 30 7", "tensor 30", 1),
            &good[..good.len() / 2],
            "neursc-params v1 2\ntensor 1 1\n1\n",
            "neursc-params v2 0\n",
            "",
        ] {
            let want = parse_tensors(text);
            let (work, got) = parse_tensors_alongside(text, || 7);
            assert_eq!(work, 7);
            match (want, got) {
                (Ok(want), Ok(got)) => {
                    assert_eq!(want.len(), got.len());
                    for (a, b) in want.iter().zip(&got) {
                        assert_eq!(a.shape(), b.shape());
                        let bits =
                            |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(a), bits(b));
                    }
                }
                (Err(want), Err(got)) => assert_eq!(want.to_string(), got.to_string()),
                (want, got) => panic!("{want:?} against {got:?}"),
            }
        }
    }

    #[test]
    fn a_corrupt_shape_costs_no_more_than_its_line() {
        // ≈ 2^40 values claimed for a line that holds three: a parse
        // error, from a buffer sized by the line.
        let text = "neursc-params v1 1\ntensor 1048576 1048576\n1 2 3\n";
        let err = parse_tensors(text).unwrap_err();
        assert!(
            err.to_string()
                .contains("expected 1099511627776 values, got 3"),
            "{err}"
        );
        // A product past usize is no value count either.
        let text = format!("neursc-params v1 1\ntensor {} 2\n1 2\n", usize::MAX);
        assert!(parse_tensors(&text).is_err());
    }

    #[test]
    fn non_ascii_lines_split_on_unicode_whitespace() {
        // U+3000 and U+00A0 separate values exactly as `split_whitespace`
        // does; U+000B separates on the byte path too.
        let text = "neursc-params v1 2\ntensor 1 3\n1\u{3000}-2.5\u{a0}3\ntensor 1 2\n4\u{b}5\n";
        let t = parse_tensors(text).unwrap();
        assert_eq!(t[0].data(), &[1.0, -2.5, 3.0]);
        assert_eq!(t[1].data(), &[4.0, 5.0]);
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
