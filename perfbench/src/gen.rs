//! Seeded input generation. Everything the lifter sees is produced here from
//! the `--seed` argument: the same seed gives byte-identical sources.
//!
//! Four variant classes are derived from corpus kernels or drawn fresh:
//!
//! * **alpha** — every declared identifier (procedure name, parameters,
//!   locals) renamed to a fresh name, structure untouched;
//! * **reflow** — whitespace only: indentation, spacing after separators,
//!   blank lines and trailing blanks change, the token stream does not;
//! * **perm** — the parameter list and the parameter declarations reordered
//!   by a non-identity permutation (the same computation, a different
//!   signature order);
//! * **novel** — a fresh 1D/2D offset stencil with unit or stride-2 loops,
//!   in the style of the verification fuzzer's Layer 3 kernels.

use std::collections::HashMap;
use stng_ir::parser::parse_program;

/// SplitMix64 (Vigna): the benchmark's only randomness source, so a seed
/// fully determines every generated input.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// An independent substream, keyed by a purpose tag and an index.
    pub fn derive(seed: u64, tag: u64, index: u64) -> SplitMix64 {
        let mut mix = SplitMix64(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let base = mix.next_u64();
        SplitMix64(base ^ index.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for k in (1..items.len()).rev() {
            let j = self.below(k as u64 + 1) as usize;
            items.swap(k, j);
        }
    }
}

/// What a generated source is, relative to the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Corpus,
    Alpha,
    Reflow,
    Perm,
    Novel,
}

impl Class {
    pub fn parse(name: &str) -> Option<Class> {
        [
            Class::Corpus,
            Class::Alpha,
            Class::Reflow,
            Class::Perm,
            Class::Novel,
        ]
        .into_iter()
        .find(|c| c.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Class::Corpus => "corpus",
            Class::Alpha => "alpha",
            Class::Reflow => "reflow",
            Class::Perm => "perm",
            Class::Novel => "novel",
        }
    }
}

/// Splits a line into its code part and its `!` comment (kept verbatim).
fn split_comment(line: &str) -> (&str, &str) {
    match line.find('!') {
        Some(at) => line.split_at(at),
        None => (line, ""),
    }
}

/// Rewrites every identifier token of `source` through `map` (comments
/// included, so `STNG: assume(...)` annotations follow the rename).
/// Numeric literals are skipped whole, so the `e` of `1.0e3` is never read
/// as an identifier.
fn rename_tokens(source: &str, map: &HashMap<String, String>) -> String {
    let mut out = String::with_capacity(source.len() + source.len() / 4);
    let mut word = String::new();
    let mut in_number = false;
    for c in source.chars() {
        if !word.is_empty() {
            if c.is_ascii_alphanumeric() || c == '_' {
                word.push(c);
                continue;
            }
            out.push_str(map.get(word.as_str()).unwrap_or(&word));
            word.clear();
        } else if in_number && (c.is_ascii_alphanumeric() || c == '.') {
            out.push(c);
            continue;
        }
        in_number = c.is_ascii_digit();
        if c.is_ascii_alphabetic() || c == '_' {
            word.push(c);
        } else {
            out.push(c);
        }
    }
    out.push_str(map.get(word.as_str()).unwrap_or(&word));
    out
}

/// Declared identifiers of every procedure in `source`.
fn declared_names(source: &str) -> Vec<String> {
    let program = parse_program(source).expect("generator input parses");
    let mut names = Vec::new();
    for proc in &program.procedures {
        names.push(proc.name.clone());
        names.extend(proc.params.iter().cloned());
        names.extend(proc.decls.iter().map(|d| d.name.clone()));
    }
    names.sort();
    names.dedup();
    names
}

const SYLLABLES: [&str; 12] = [
    "ka", "zu", "ro", "mi", "te", "lo", "xa", "pe", "qi", "fo", "du", "wy",
];

fn syllable(rng: &mut SplitMix64) -> &'static str {
    SYLLABLES[rng.below(SYLLABLES.len() as u64) as usize]
}

/// An alpha-renamed twin of `source`. Fresh names are a per-twin prefix,
/// the zero-padded rank of the original name and a random suffix: they
/// contain a digit (so no keyword), end in a letter (so never a quantifier
/// name like `v0`), and sort in the same order as the names they replace.
/// Order matters today: the canonical form numbers locals in name order,
/// so an order-changing rename is a different fingerprint (README.md).
pub fn alpha_rename(source: &str, rng: &mut SplitMix64) -> String {
    rename_ranked(source, rng, false)
}

/// An alpha-renamed twin whose fresh names sort in the reverse order of the
/// names they replace, so every pair of names swaps order. Only the
/// traced run's rename probe uses it (README.md, known defects).
pub fn alpha_rename_reordered(source: &str, rng: &mut SplitMix64) -> String {
    rename_ranked(source, rng, true)
}

fn rename_ranked(source: &str, rng: &mut SplitMix64, reverse: bool) -> String {
    let prefix = format!("{}{}", syllable(rng), syllable(rng));
    let names = declared_names(source);
    let count = names.len();
    let map: HashMap<String, String> = names
        .into_iter()
        .enumerate()
        .map(|(rank, name)| {
            let rank = if reverse { count - 1 - rank } else { rank };
            let fresh = format!("{prefix}{rank:03}{}", syllable(rng));
            (name, fresh)
        })
        .collect();
    rename_tokens(source, &map)
}

/// A whitespace reflow of `source`: same tokens, different layout.
pub fn reflow(source: &str, rng: &mut SplitMix64) -> String {
    let mut out = String::with_capacity(source.len() * 2);
    for line in source.lines() {
        if rng.below(5) == 0 {
            out.push('\n');
        }
        let (code, comment) = split_comment(line);
        let body = code.trim_start();
        for _ in 0..rng.below(7) {
            out.push(' ');
        }
        let mut in_blank = false;
        for c in body.chars() {
            if c == ' ' {
                if !in_blank {
                    for _ in 0..1 + rng.below(3) {
                        out.push(' ');
                    }
                }
                in_blank = true;
                continue;
            }
            in_blank = false;
            if c == ')' && rng.below(3) == 0 {
                out.push(' ');
            }
            out.push(c);
            if (c == ',' || c == '(') && rng.below(3) == 0 {
                out.push(' ');
            }
        }
        out.push_str(comment);
        for _ in 0..rng.below(3) {
            out.push(' ');
        }
        out.push('\n');
    }
    out
}

/// A parameter-order permutation of a single-procedure `source`, or `None`
/// when the procedure has fewer than two parameters. Both the header list
/// and the parameter declarations follow the same non-identity permutation.
pub fn permute_params(source: &str, rng: &mut SplitMix64) -> Option<String> {
    let program = parse_program(source).expect("generator input parses");
    let [proc] = program.procedures.as_slice() else {
        return None;
    };
    let params = &proc.params;
    if params.len() < 2 {
        return None;
    }
    let mut order: Vec<usize> = (0..params.len()).collect();
    while order.iter().enumerate().all(|(k, &p)| k == p) {
        rng.shuffle(&mut order);
    }
    let permuted: Vec<&str> = order.iter().map(|&k| params[k].as_str()).collect();
    let mut lines: Vec<String> = Vec::new();
    // Declaration lines of parameters, in source order, and where they sit.
    let mut slots: Vec<usize> = Vec::new();
    let mut decl_of: HashMap<&str, String> = HashMap::new();
    for line in source.lines() {
        let (code, _) = split_comment(line);
        let trimmed = code.trim_start();
        if trimmed.starts_with("procedure ") {
            lines.push(format!("procedure {}({})", proc.name, permuted.join(", ")));
            continue;
        }
        if let Some((_, name)) = code.split_once("::") {
            if let Some(p) = params.iter().find(|p| p.as_str() == name.trim()) {
                slots.push(lines.len());
                decl_of.insert(p.as_str(), line.to_string());
            }
        }
        lines.push(line.to_string());
    }
    let declared: Vec<&str> = permuted
        .iter()
        .copied()
        .filter(|p| decl_of.contains_key(p))
        .collect();
    for (slot, name) in slots.iter().zip(&declared) {
        lines[*slot] = decl_of[name].clone();
    }
    let mut out = lines.join("\n");
    out.push('\n');
    Some(out)
}

/// Renders a novel offset stencil of rank `dims` with loop stride `stride`
/// on every dimension; offsets, load count and coefficient are drawn from
/// `rng`.
pub fn novel_stencil(name: &str, dims: usize, stride: i64, rng: &mut SplitMix64) -> String {
    let nloads = 2 + rng.below(2) as usize;
    let loads: Vec<Vec<i64>> = (0..nloads)
        .map(|_| (0..dims).map(|_| rng.below(3) as i64 - 1).collect())
        .collect();
    let coeff = 1 + rng.below(3) as i64;
    let loops = ["i", "j"];
    let dim_decl = vec!["0:n"; dims].join(", ");
    let mut src = format!("procedure {name}(n, out, src)\n  integer :: n\n");
    src.push_str(&format!("  real, dimension({dim_decl}) :: out\n"));
    src.push_str(&format!("  real, dimension({dim_decl}) :: src\n"));
    for v in &loops[..dims] {
        src.push_str(&format!("  integer :: {v}\n"));
    }
    let mut indent = String::from("  ");
    for d in (0..dims).rev() {
        let lo = if loads.iter().any(|l| l[d] < 0) { 1 } else { 0 };
        let hi = if loads.iter().any(|l| l[d] > 0) {
            "n-1"
        } else {
            "n"
        };
        let step = if stride == 1 {
            String::new()
        } else {
            format!(", {stride}")
        };
        src.push_str(&format!("{indent}do {} = {lo}, {hi}{step}\n", loops[d]));
        indent.push_str("  ");
    }
    let index = |offsets: &[i64]| -> String {
        offsets
            .iter()
            .zip(loops)
            .map(|(&o, v)| match o {
                0 => v.to_string(),
                o if o > 0 => format!("{v}+{o}"),
                o => format!("{v}{o}"),
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    let terms: Vec<String> = loads
        .iter()
        .enumerate()
        .map(|(k, l)| {
            if k == 0 && coeff > 1 {
                format!("{coeff}.0 * src({})", index(l))
            } else {
                format!("src({})", index(l))
            }
        })
        .collect();
    let lhs = index(&vec![0; dims]);
    src.push_str(&format!("{indent}out({lhs}) = {}\n", terms.join(" + ")));
    for _ in 0..dims {
        indent.truncate(indent.len() - 2);
        src.push_str(&format!("{indent}enddo\n"));
    }
    src.push_str("end procedure\n");
    src
}
