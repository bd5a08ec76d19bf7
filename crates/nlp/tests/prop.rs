//! Property tests: normalization, embeddings and clustering invariants.

use proptest::prelude::*;
use sift_nlp::{
    cluster_phrases, cluster_vectors, cosine, normalize, Cluster, Embedding, PhraseVector,
    DEFAULT_SIMILARITY_THRESHOLD,
};
use std::collections::HashMap;

fn phrase_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-z]{1,8}", 1..5).prop_map(|ws| ws.join(" "))
}

/// Words that make phrasings merge, misspell, or vanish: entities,
/// outage synonyms, and stop words (a phrase of only those embeds to
/// zero).
const VOCAB: &[&str] = &[
    "verizon", "verzion", "comcast", "xfinity", "power", "outage", "down", "not", "working",
    "internet", "san", "jose", "is", "my", "the", "of",
];

/// A spike-like phrase set: phrasings over a small vocabulary, so
/// duplicates, near-duplicates and all-stop-word phrases are common, with
/// weights drawn from a few values so ties are too.
fn spike_phrases() -> impl Strategy<Value = Vec<(String, f64)>> {
    let phrase = proptest::collection::vec(0..VOCAB.len(), 1..4)
        .prop_map(|ws| ws.iter().map(|&w| VOCAB[w]).collect::<Vec<_>>().join(" "));
    let weight = prop_oneof![Just(10.0f64), Just(76.0f64), Just(100.0f64), 0.0f64..500.0];
    proptest::collection::vec((phrase, weight), 0..30)
}

/// The clustering kernel as first written, on dense embeddings: every
/// cosine recomputes both norms over all components, every centroid
/// update touches all of them.
fn dense_clusters(phrases: &[(String, f64)], threshold: f32) -> Vec<Cluster> {
    let embeddings: Vec<Embedding> = phrases
        .iter()
        .map(|(p, _)| Embedding::of_phrase(p))
        .collect();
    let mut order: Vec<usize> = (0..phrases.len()).collect();
    order.sort_by(|&a, &b| {
        phrases[b]
            .1
            .partial_cmp(&phrases[a].1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    // (members, centroid, mass, total weight)
    let mut clusters: Vec<(Vec<usize>, Embedding, f32, f64)> = Vec::new();
    for idx in order {
        let emb = &embeddings[idx];
        let joined = if emb.is_zero() {
            None
        } else {
            clusters
                .iter_mut()
                .find(|c| c.2 > 0.0 && cosine(&c.1, emb) >= threshold)
        };
        match joined {
            Some(c) => {
                c.0.push(idx);
                c.3 += phrases[idx].1;
                c.1.accumulate(emb, 1.0);
                c.1.normalize();
                c.2 += 1.0;
            }
            None => {
                let mass = if emb.is_zero() { 0.0 } else { 1.0 };
                clusters.push((vec![idx], emb.clone(), mass, phrases[idx].1));
            }
        }
    }
    clusters.sort_by(|a, b| {
        b.3.partial_cmp(&a.3)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0[0].cmp(&b.0[0]))
    });
    clusters
        .into_iter()
        .map(|(mut members, ..)| {
            let representative = *members
                .iter()
                .max_by(|&&a, &&b| {
                    phrases[a]
                        .1
                        .partial_cmp(&phrases[b].1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(b.cmp(&a))
                })
                .expect("clusters are never empty");
            members.sort_unstable();
            Cluster {
                members,
                representative,
            }
        })
        .collect()
}

proptest! {
    /// Normalization is idempotent for arbitrary unicode input.
    #[test]
    fn normalize_idempotent(s in "\\PC{0,40}") {
        let once = normalize(&s);
        prop_assert_eq!(normalize(&once), once);
    }

    /// Self-similarity of any non-degenerate phrase is 1.
    #[test]
    fn self_similarity(p in phrase_strategy()) {
        let e = Embedding::of_phrase(&p);
        if !e.is_zero() {
            let sim = cosine(&e, &e);
            prop_assert!((sim - 1.0).abs() < 1e-4, "sim {}", sim);
        }
    }

    /// Cosine similarity is symmetric and bounded.
    #[test]
    fn cosine_symmetric_bounded(a in phrase_strategy(), b in phrase_strategy()) {
        let ea = Embedding::of_phrase(&a);
        let eb = Embedding::of_phrase(&b);
        let ab = cosine(&ea, &eb);
        let ba = cosine(&eb, &ea);
        prop_assert!((ab - ba).abs() < 1e-6);
        prop_assert!((-1.0..=1.0).contains(&ab));
    }

    /// Clustering partitions the input: every index appears exactly once,
    /// every representative is a member of its own cluster.
    #[test]
    fn clustering_is_a_partition(
        phrases in proptest::collection::vec((phrase_strategy(), 0.0f64..1000.0), 0..25)
    ) {
        let clusters = cluster_phrases(&phrases, DEFAULT_SIMILARITY_THRESHOLD);
        let mut seen: Vec<usize> = clusters.iter().flat_map(|c| c.members.clone()).collect();
        seen.sort_unstable();
        let expected: Vec<usize> = (0..phrases.len()).collect();
        prop_assert_eq!(seen, expected);
        for c in &clusters {
            prop_assert!(c.members.contains(&c.representative));
        }
    }

    /// Duplicated phrases always land in the same cluster.
    #[test]
    fn duplicates_cluster_together(p in phrase_strategy(), w1 in 1.0f64..100.0, w2 in 1.0f64..100.0) {
        let e = Embedding::of_phrase(&p);
        prop_assume!(!e.is_zero());
        let phrases = vec![(p.clone(), w1), (p, w2)];
        let clusters = cluster_phrases(&phrases, DEFAULT_SIMILARITY_THRESHOLD);
        prop_assert_eq!(clusters.len(), 1);
        prop_assert_eq!(clusters[0].members.len(), 2);
    }

    /// Clustering over a term table's embeddings — each distinct phrase
    /// embedded once, shared by every duplicate, read through the cached
    /// norms and sparse support — returns exactly the dense kernel's
    /// clusters: the same members, representatives and cluster order.
    #[test]
    fn table_clustering_matches_the_dense_kernel(
        phrases in spike_phrases(),
        threshold in prop_oneof![Just(DEFAULT_SIMILARITY_THRESHOLD), 0.0f32..1.0],
    ) {
        let mut table: HashMap<&str, PhraseVector> = HashMap::new();
        for (p, _) in &phrases {
            table.entry(p.as_str()).or_insert_with(|| PhraseVector::of_phrase(p));
        }
        let weighted: Vec<(&PhraseVector, f64)> =
            phrases.iter().map(|(p, w)| (&table[p.as_str()], *w)).collect();
        let want = dense_clusters(&phrases, threshold);
        prop_assert_eq!(cluster_vectors(&weighted, threshold), want.clone());
        prop_assert_eq!(cluster_phrases(&phrases, threshold), want);
    }
}
