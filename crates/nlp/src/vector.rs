//! Hashed word/character-n-gram phrase embeddings.

use crate::lexicon;
use crate::token::tokenize;

/// Dimensionality of phrase embeddings. 256 is plenty for the few-thousand
/// term vocabulary of outage search phrases while keeping hash collisions
/// rare.
pub const EMBEDDING_DIM: usize = 256;

/// Share of a token's mass carried by the whole-word feature; the rest is
/// spread over its character trigrams. Trigrams carry most of the mass so
/// misspellings ("verzion") stay measurably close to their intended entity
/// while distinct entities (few shared trigrams) stay apart.
const WORD_FEATURE_SHARE: f32 = 0.2;

/// A dense, L2-normalized phrase vector.
///
/// Built feature-hashing style: each token contributes a whole-word feature
/// plus character-trigram features, scaled by its lexicon weight; the
/// phrase vector is the sum, normalized to unit length. Deterministic
/// across runs and platforms (FNV-1a hashing).
#[derive(Clone, Debug, PartialEq)]
pub struct Embedding {
    values: [f32; EMBEDDING_DIM],
}

impl Embedding {
    /// The all-zero embedding (an empty phrase).
    pub fn zero() -> Self {
        Embedding {
            values: [0.0; EMBEDDING_DIM],
        }
    }

    /// Embeds a raw search phrase.
    pub fn of_phrase(phrase: &str) -> Self {
        let mut e = Embedding::zero();
        for t in &tokenize(phrase) {
            let canon = lexicon::canonical(t);
            let w = lexicon::weight(canon);
            e.add_feature(
                fnv1a_extend(fnv1a(b"w:"), canon.as_bytes()),
                w * WORD_FEATURE_SHARE,
            );
            let grams = trigrams(canon);
            if !grams.is_empty() {
                // sift-lint: allow(lossy-cast) — trigram counts are tiny; f32 holds them exactly
                let per = w * (1.0 - WORD_FEATURE_SHARE) / grams.len() as f32;
                for g in grams {
                    // The hash of the feature string `g:<trigram>`, fed
                    // piecewise.
                    let mut buf = [0u8; 4];
                    let h = g.iter().fold(fnv1a(b"g:"), |h, c| {
                        fnv1a_extend(h, c.encode_utf8(&mut buf).as_bytes())
                    });
                    e.add_feature(h, per);
                }
            }
        }
        e.normalize();
        e
    }

    /// True if the embedding has no mass (empty or all-stop-word phrase).
    pub fn is_zero(&self) -> bool {
        // sift-lint: allow(float-eq) — an untouched embedding is exactly zero; no arithmetic error to tolerate
        self.values.iter().all(|v| *v == 0.0)
    }

    /// Adds `other` into `self`, scaled by `scale` (for centroids).
    pub fn accumulate(&mut self, other: &Embedding, scale: f32) {
        for (a, b) in self.values.iter_mut().zip(other.values.iter()) {
            *a += b * scale;
        }
    }

    /// Rescales the vector to unit L2 norm (no-op for the zero vector).
    pub fn normalize(&mut self) {
        let norm = self.norm();
        if norm > 0.0 {
            for v in &mut self.values {
                *v /= norm;
            }
        }
    }

    /// The L2 norm, summed in index order — the value [`cosine`] divides
    /// by.
    fn norm(&self) -> f32 {
        self.values.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Adds the feature whose name hashes (FNV-1a) to `h`.
    fn add_feature(&mut self, h: u64, weight: f32) {
        let idx = (h % EMBEDDING_DIM as u64) as usize;
        // A second hash bit gives features signs, which keeps unrelated
        // collisions from systematically inflating similarity.
        let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
        self.values[idx] += sign * weight;
    }
}

/// Cosine similarity of two embeddings, in `[-1, 1]` (0 if either is zero).
pub fn cosine(a: &Embedding, b: &Embedding) -> f32 {
    let dot: f32 = a
        .values
        .iter()
        .zip(b.values.iter())
        .map(|(x, y)| x * y)
        .sum();
    scaled_cosine(dot, a.norm(), b.norm())
}

/// The cosine from a dot product and both norms (0 if either is zero).
fn scaled_cosine(dot: f32, na: f32, nb: f32) -> f32 {
    if na <= 0.0 || nb <= 0.0 {
        0.0
    } else {
        (dot / (na * nb)).clamp(-1.0, 1.0)
    }
}

/// An [`Embedding`] with the constants the clustering kernel reads on
/// every comparison: its norm and its nonzero support.
///
/// Arithmetic through a `PhraseVector` visits only the support, in index
/// order. Every skipped term is a product with (or sum of) exact zeros,
/// so results carry the same bits as the dense [`Embedding`] operations
/// up to the sign of a zero — which no comparison can tell apart.
#[derive(Clone, Debug)]
pub struct PhraseVector {
    embedding: Embedding,
    norm: f32,
    support: Support,
}

impl PhraseVector {
    /// Embeds a raw search phrase and caches its constants.
    pub fn of_phrase(phrase: &str) -> Self {
        let embedding = Embedding::of_phrase(phrase);
        let mut support = Support::default();
        for (i, v) in embedding.values.iter().enumerate() {
            // sift-lint: allow(float-eq) — the support is exactly the components that are not zero
            if *v != 0.0 {
                support.insert(i);
            }
        }
        PhraseVector {
            norm: support.norm(&embedding.values),
            embedding,
            support,
        }
    }

    /// True if the embedding has no mass ([`Embedding::is_zero`]).
    pub(crate) fn is_zero(&self) -> bool {
        self.support.is_empty()
    }

    /// `cosine(other, self)` from the cached norms and a dot product over
    /// this vector's support.
    pub(crate) fn cosine_with(&self, other: &PhraseVector) -> f32 {
        let dot: f32 = self
            .support
            .iter()
            .map(|i| other.embedding.values[i] * self.embedding.values[i])
            .sum();
        scaled_cosine(dot, other.norm, self.norm)
    }

    /// Adds `member` in and renormalizes — a centroid update equal to
    /// `accumulate(member, 1.0)` then `normalize()` on the embedding.
    pub(crate) fn absorb(&mut self, member: &PhraseVector) {
        let values = &mut self.embedding.values;
        for i in member.support.iter() {
            values[i] += member.embedding.values[i];
        }
        self.support.union(&member.support);
        let norm = self.support.norm(values);
        if norm > 0.0 {
            for i in self.support.iter() {
                values[i] /= norm;
            }
        }
        self.norm = self.support.norm(values);
    }
}

/// A set of component indices, one bit each.
#[derive(Clone, Copy, Debug, Default)]
struct Support([u64; EMBEDDING_DIM.div_ceil(64)]);

impl Support {
    fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn union(&mut self, other: &Support) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a |= b;
        }
    }

    fn is_empty(&self) -> bool {
        self.0.iter().all(|w| *w == 0)
    }

    /// The indices, ascending.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(k, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    k * 64 + bit
                })
            })
        })
    }

    /// [`Embedding::norm`] of `values` summed over these indices only.
    fn norm(&self, values: &[f32; EMBEDDING_DIM]) -> f32 {
        self.iter()
            .map(|i| values[i] * values[i])
            .sum::<f32>()
            .sqrt()
    }
}

/// Character trigrams of a token, with boundary markers (`^tx`, `xt$`).
fn trigrams(token: &str) -> Vec<[char; 3]> {
    let padded: Vec<char> = std::iter::once('^')
        .chain(token.chars())
        .chain(std::iter::once('$'))
        .collect();
    padded.windows(3).map(|w| [w[0], w[1], w[2]]).collect()
}

/// FNV-1a 64-bit hash: small, deterministic, good avalanche for short keys.
fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a hash over more bytes: hashing `a` then `b` equals
/// hashing their concatenation.
fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedding_is_deterministic() {
        let a = Embedding::of_phrase("spectrum internet outage");
        let b = Embedding::of_phrase("spectrum internet outage");
        assert_eq!(a, b);
    }

    #[test]
    fn unit_norm_for_nonempty() {
        let e = Embedding::of_phrase("verizon outage");
        let norm: f32 = e.values.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5, "norm {norm}");
    }

    #[test]
    fn empty_phrase_is_zero() {
        assert!(Embedding::of_phrase("").is_zero());
        assert!(Embedding::of_phrase("is my the").is_zero());
        assert!(cosine(&Embedding::zero(), &Embedding::zero()).abs() < 1e-12);
    }

    #[test]
    fn self_similarity_is_one() {
        let e = Embedding::of_phrase("xfinity down");
        assert!((cosine(&e, &e) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn misspellings_stay_close() {
        let a = Embedding::of_phrase("verizon outage");
        let misspelled = Embedding::of_phrase("verzion outage");
        let other_entity = Embedding::of_phrase("comcast outage");
        let sim_misspelled = cosine(&a, &misspelled);
        let sim_other = cosine(&a, &other_entity);
        assert!(
            sim_misspelled > 0.3,
            "misspelling similarity {sim_misspelled}"
        );
        assert!(
            sim_misspelled > sim_other + 0.1,
            "misspelling ({sim_misspelled}) must beat a different entity ({sim_other})"
        );
    }

    #[test]
    fn word_order_is_ignored() {
        let a = Embedding::of_phrase("outage spectrum");
        let b = Embedding::of_phrase("spectrum outage");
        assert!((cosine(&a, &b) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn trigram_boundaries() {
        let strings =
            |t: &str| -> Vec<String> { trigrams(t).iter().map(|g| g.iter().collect()).collect() };
        assert_eq!(strings("tx"), vec!["^tx", "tx$"]);
        assert!(trigrams("a").len() == 1);
        assert!(trigrams("").is_empty());
    }

    /// `of_phrase` as first written: every feature name built as a string
    /// and hashed whole.
    fn of_phrase_by_feature_strings(phrase: &str) -> Embedding {
        let mut e = Embedding::zero();
        for t in &tokenize(phrase) {
            let canon = lexicon::canonical(t);
            let w = lexicon::weight(canon);
            e.add_feature(
                fnv1a(format!("w:{canon}").as_bytes()),
                w * WORD_FEATURE_SHARE,
            );
            let grams: Vec<String> = trigrams(canon).iter().map(|g| g.iter().collect()).collect();
            if !grams.is_empty() {
                let per = w * (1.0 - WORD_FEATURE_SHARE) / grams.len() as f32;
                for g in grams {
                    e.add_feature(fnv1a(format!("g:{g}").as_bytes()), per);
                }
            }
        }
        e.normalize();
        e
    }

    #[test]
    fn piecewise_feature_hashing_matches_whole_strings() {
        for p in [
            "is verizon down",
            "Zürich outage",
            "san jose power outage",
            "is my the",
            "x",
            "",
        ] {
            let want = of_phrase_by_feature_strings(p);
            let got = Embedding::of_phrase(p);
            let bits = |e: &Embedding| e.values.map(f32::to_bits);
            assert_eq!(bits(&got), bits(&want), "{p}");
        }
    }

    #[test]
    fn phrase_vector_caches_norm_and_support() {
        for p in ["verizon outage", "is my the", "x"] {
            let e = Embedding::of_phrase(p);
            let v = PhraseVector::of_phrase(p);
            assert_eq!(v.is_zero(), e.is_zero(), "{p}");
            if e.is_zero() {
                // Both zero, up to sign.
                assert!(v.norm.abs() <= 0.0 && e.norm().abs() <= 0.0, "{p}");
            } else {
                assert_eq!(v.norm.to_bits(), e.norm().to_bits(), "{p}");
            }
            let dense_support = e.values.iter().filter(|x| x.abs() > 0.0).count();
            assert_eq!(v.support.iter().count(), dense_support, "{p}");
        }
    }

    #[test]
    fn sparse_cosine_and_absorb_match_dense() {
        // Equal bits, or both zero: a sum of zeros may differ in sign.
        let same =
            |a: f32, b: f32| a.to_bits() == b.to_bits() || (a.abs() <= 0.0 && b.abs() <= 0.0);
        let phrases = [
            "verizon outage",
            "is verizon down",
            "verzion outage",
            "comcast outage",
            "xfinity internet not working",
            "san jose power outage",
            "power outage san jose",
            "is my the",
            "spectrum",
            "at&t wifi down near me",
        ];
        let vectors: Vec<PhraseVector> =
            phrases.iter().map(|p| PhraseVector::of_phrase(p)).collect();
        // Every phrase seeds a centroid that absorbs all the others in
        // turn; before each step, every phrase is compared against it.
        for seed in 0..phrases.len() {
            let mut dense = Embedding::of_phrase(phrases[seed]);
            let mut sparse = vectors[seed].clone();
            for step in 1..phrases.len() {
                for (q, v) in vectors.iter().enumerate() {
                    let (got, want) = (v.cosine_with(&sparse), cosine(&dense, &v.embedding));
                    assert!(
                        same(got, want),
                        "seed {seed} step {step} phrase {q}: {got} vs {want}"
                    );
                }
                let v = &vectors[(seed + step) % phrases.len()];
                dense.accumulate(&v.embedding, 1.0);
                dense.normalize();
                sparse.absorb(v);
                for (a, b) in sparse.embedding.values.iter().zip(dense.values.iter()) {
                    assert!(same(*a, *b), "seed {seed} step {step}");
                }
                assert!(same(sparse.norm, dense.norm()), "seed {seed} step {step}");
            }
        }
    }

    #[test]
    fn unrelated_phrases_are_distant() {
        let a = Embedding::of_phrase("san jose power outage");
        let b = Embedding::of_phrase("youtube down");
        assert!(cosine(&a, &b) < 0.5);
    }
}
