//! Context analysis: annotating spikes with rising search terms (§3.4).
//!
//! For each spike SIFT gathers the rising suggestions of the frames
//! covering it (weekly crawl plus daily drill-downs on spike days), then
//! 1. ranks suggestions by their weights (percent increase),
//! 2. prioritises *heavy hitters* — the few dozen terms that dominate the
//!    global suggestion mass — over random correlations,
//! 3. clusters semantically similar phrasings with word vectors, so
//!    `<is Verizon down>` and `<Verizon outage>` become one annotation.

use crate::detect::Spike;
use serde::{Deserialize, Serialize};
use sift_nlp::{cluster_vectors, PhraseVector, DEFAULT_SIMILARITY_THRESHOLD};
use sift_trends::api::RisingTerm;
use std::collections::{HashMap, HashSet};

/// Context-analysis parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ContextParams {
    /// Number of annotations kept per spike.
    pub max_annotations: usize,
    /// Cosine-similarity threshold for merging phrasings.
    pub similarity_threshold: f32,
    /// Fraction of the global suggestion mass that defines the
    /// heavy-hitter set (the paper: 33 of 6655 terms cover half).
    pub heavy_hitter_mass: f64,
}

impl Default for ContextParams {
    fn default() -> Self {
        ContextParams {
            max_annotations: 3,
            similarity_threshold: DEFAULT_SIMILARITY_THRESHOLD,
            heavy_hitter_mass: 0.5,
        }
    }
}

/// One context annotation on a spike: a cluster of semantically similar
/// rising phrasings.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Annotation {
    /// Representative phrase (the heaviest member of the cluster).
    pub label: String,
    /// Summed weight of the cluster's members.
    pub weight: f64,
    /// Whether the cluster contains a heavy-hitter term.
    pub heavy_hitter: bool,
}

impl Annotation {
    /// True if this annotation indicates a power outage.
    pub fn is_power(&self) -> bool {
        self.label.to_ascii_lowercase().contains("power")
    }
}

/// A spike decorated with its context annotations.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AnnotatedSpike {
    /// The underlying spike.
    pub spike: Spike,
    /// Annotations, strongest first.
    pub annotations: Vec<Annotation>,
}

impl AnnotatedSpike {
    /// True if any annotation indicates a power outage — the Fig. 6
    /// predicate.
    pub fn power_annotated(&self) -> bool {
        self.annotations.iter().any(Annotation::is_power)
    }

    /// A short label for tables: the strongest annotation, or `"—"`.
    pub fn label(&self) -> &str {
        self.annotations
            .first()
            .map(|a| a.label.as_str())
            .unwrap_or("—")
    }
}

/// The global heavy-hitter computation.
///
/// "SIFT distinguishes interesting search terms from random correlations
/// by superimposing all the suggestions from all the spikes and checking
/// their frequency" (§3.4). Terms are compared in [`sift_nlp::normalize`]d
/// form. Returns `(heavy hitters, distinct count)`: the smallest set of
/// most-frequent normalised terms covering at least `mass` of all
/// suggestion occurrences, and the number of distinct normalised terms.
pub fn heavy_hitters(
    suggestion_sets: impl IntoIterator<Item = Vec<String>>,
    mass: f64,
) -> (Vec<(String, u64)>, usize) {
    let mut raw: HashMap<String, u64> = HashMap::new();
    for set in suggestion_sets {
        for term in set {
            *raw.entry(term).or_insert(0) += 1;
        }
    }
    let terms = normalized(raw.iter().map(|(t, &n)| (t.as_str(), n)));
    rank_heavy(&terms, mass)
}

/// One distinct raw term: `(raw, normalised, occurrences)`.
type RawTerm<'a> = (&'a str, String, u64);

/// Normalises each distinct raw term once.
fn normalized<'a>(counts: impl IntoIterator<Item = (&'a str, u64)>) -> Vec<RawTerm<'a>> {
    counts
        .into_iter()
        .map(|(raw, n)| (raw, sift_nlp::normalize(raw), n))
        .collect()
}

/// Folds raw-term counts into [`heavy_hitters`]' result.
fn rank_heavy(terms: &[RawTerm<'_>], mass: f64) -> (Vec<(String, u64)>, usize) {
    let mut freq: HashMap<&str, u64> = HashMap::new();
    let mut total: u64 = 0;
    for (_, norm, n) in terms {
        *freq.entry(norm.as_str()).or_insert(0) += n;
        total += n;
    }
    let distinct = freq.len();
    let mut ranked: Vec<(&str, u64)> = freq.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));

    let target = (total as f64 * mass).ceil() as u64;
    let mut acc = 0u64;
    let mut keep = 0usize;
    for (_, c) in &ranked {
        if acc >= target {
            break;
        }
        acc += c;
        keep += 1;
    }
    let heavy = ranked
        .into_iter()
        .take(keep)
        .map(|(t, c)| (t.to_owned(), c))
        .collect();
    (heavy, distinct)
}

/// Interned rising terms: each distinct raw term once, with its
/// embedding and heavy-hitter flag.
///
/// Terms are held in lexicographic order, so sorting a spike's phrases by
/// index orders them exactly as sorting their strings would — whatever
/// superset of the spike's terms the table was built over.
pub(crate) struct TermTable<'a> {
    index: HashMap<&'a str, usize>,
    terms: Vec<Term<'a>>,
}

struct Term<'a> {
    text: &'a str,
    vector: PhraseVector,
    heavy: bool,
}

impl<'a> TermTable<'a> {
    /// Interns distinct raw terms, flagging those whose normalised form
    /// is a heavy hitter.
    fn new(terms: &[RawTerm<'a>], heavy: &[(String, u64)]) -> Self {
        let heavy: HashSet<&str> = heavy.iter().map(|(h, _)| h.as_str()).collect();
        let mut terms: Vec<Term<'a>> = terms
            .iter()
            .map(|(text, norm, _)| Term {
                text,
                vector: PhraseVector::of_phrase(text),
                heavy: heavy.contains(norm.as_str()),
            })
            .collect();
        terms.sort_unstable_by(|a, b| a.text.cmp(b.text));
        let index = terms.iter().enumerate().map(|(i, t)| (t.text, i)).collect();
        TermTable { index, terms }
    }

    /// A study's table over every spike's suggestions, flagged against
    /// their heavy hitters. Returns the table with [`heavy_hitters`]'
    /// result over the same suggestions.
    pub(crate) fn of_study(
        suggestions: impl IntoIterator<Item = &'a [RisingTerm]>,
        mass: f64,
    ) -> (Self, Vec<(String, u64)>, usize) {
        let mut raw: HashMap<&'a str, u64> = HashMap::new();
        for set in suggestions {
            for t in set {
                *raw.entry(t.term.as_str()).or_insert(0) += 1;
            }
        }
        let terms = normalized(raw);
        let (heavy, distinct) = rank_heavy(&terms, mass);
        (TermTable::new(&terms, &heavy), heavy, distinct)
    }

    /// Ranks and clusters one spike's suggestions, every one of which
    /// must be in the table; see [`annotate`].
    pub(crate) fn annotate(
        &self,
        spike: Spike,
        suggestions: &[RisingTerm],
        params: &ContextParams,
    ) -> AnnotatedSpike {
        // Merge duplicate phrasings' weights first (the same term often
        // rises in both the weekly and the daily frame). The stable sort
        // keeps each term's weights in suggestion order; sorting by index
        // is sorting by term, so the clustering's index tie-break does
        // not depend on hash-map iteration order.
        let mut occurrences: Vec<(usize, f64)> = suggestions
            .iter()
            .map(|s| (self.index[s.term.as_str()], f64::from(s.weight)))
            .collect();
        occurrences.sort_by_key(|&(id, _)| id);
        let mut phrases: Vec<(usize, f64)> = Vec::with_capacity(occurrences.len());
        for (id, weight) in occurrences {
            match phrases.last_mut() {
                Some((last, sum)) if *last == id => *sum += weight,
                _ => phrases.push((id, weight)),
            }
        }

        let vectors: Vec<(&PhraseVector, f64)> = phrases
            .iter()
            .map(|&(id, w)| (&self.terms[id].vector, w))
            .collect();
        let clusters = cluster_vectors(&vectors, params.similarity_threshold);

        let mut annotations: Vec<Annotation> = clusters
            .into_iter()
            .map(|c| {
                let weight: f64 = c.members.iter().map(|&i| phrases[i].1).sum();
                let heavy_hitter = c.members.iter().any(|&i| self.terms[phrases[i].0].heavy);
                Annotation {
                    label: self.terms[phrases[c.representative].0].text.to_owned(),
                    weight,
                    heavy_hitter,
                }
            })
            .collect();

        // Heavy hitters outrank random correlations; weight decides within
        // each class.
        annotations.sort_by(|a, b| {
            b.heavy_hitter
                .cmp(&a.heavy_hitter)
                .then(
                    b.weight
                        .partial_cmp(&a.weight)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
                .then(a.label.cmp(&b.label))
        });
        annotations.truncate(params.max_annotations);

        AnnotatedSpike { spike, annotations }
    }
}

/// Ranks and clusters one spike's gathered suggestions into annotations.
///
/// The transformations of §3.4, in order: weight ranking, heavy-hitter
/// prioritisation, semantic clustering. Interns the spike's own terms; a
/// study interns every spike's terms once instead and annotates through
/// the same table code.
pub fn annotate(
    spike: Spike,
    suggestions: &[RisingTerm],
    heavy: &[(String, u64)],
    params: &ContextParams,
) -> AnnotatedSpike {
    let mut distinct: Vec<&str> = suggestions.iter().map(|s| s.term.as_str()).collect();
    distinct.sort_unstable();
    distinct.dedup();
    // The occurrence counts only feed heavy-hitter ranking, done already.
    let terms = normalized(distinct.into_iter().map(|t| (t, 0)));
    TermTable::new(&terms, heavy).annotate(spike, suggestions, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sift_geo::State;
    use sift_simtime::Hour;

    fn spike() -> Spike {
        Spike {
            state: State::CA,
            start: Hour(0),
            peak: Hour(2),
            end: Hour(10),
            magnitude: 80.0,
        }
    }

    fn term(t: &str, w: u32) -> RisingTerm {
        RisingTerm {
            term: t.into(),
            weight: w,
        }
    }

    #[test]
    fn heavy_hitters_cover_half_the_mass() {
        // "power outage" appears in most sets; the tail is diverse.
        let sets: Vec<Vec<String>> = (0..100)
            .map(|i| vec!["power outage".to_string(), format!("rare term {i}")])
            .collect();
        let (heavy, distinct) = heavy_hitters(sets, 0.5);
        assert_eq!(distinct, 101);
        assert_eq!(heavy.len(), 1, "one term covers half: {heavy:?}");
        assert_eq!(heavy[0].0, "power outage");
        assert_eq!(heavy[0].1, 100);
    }

    #[test]
    fn heavy_hitters_empty_input() {
        let (heavy, distinct) = heavy_hitters(Vec::<Vec<String>>::new(), 0.5);
        assert!(heavy.is_empty());
        assert_eq!(distinct, 0);
    }

    #[test]
    fn annotation_merges_phrase_variants() {
        let suggestions = vec![
            term("is verizon down", 76),
            term("verizon outage", 100),
            term("weird meme query", 300),
        ];
        let heavy = vec![("verizon outage".to_string(), 50u64)];
        let a = annotate(spike(), &suggestions, &heavy, &ContextParams::default());
        // The verizon cluster (176 combined, heavy) outranks the heavier
        // random correlation.
        assert_eq!(a.annotations[0].label, "verizon outage");
        assert!((a.annotations[0].weight - 176.0).abs() < 1e-9);
        assert!(a.annotations[0].heavy_hitter);
        assert!(!a.annotations[1].heavy_hitter);
    }

    #[test]
    fn duplicate_terms_accumulate_weight() {
        let suggestions = vec![term("power outage", 50), term("power outage", 70)];
        let a = annotate(spike(), &suggestions, &[], &ContextParams::default());
        assert_eq!(a.annotations.len(), 1);
        assert!((a.annotations[0].weight - 120.0).abs() < 1e-9);
    }

    #[test]
    fn power_annotation_detection() {
        let suggestions = vec![
            term("san jose power outage", 90),
            term("spectrum outage", 80),
        ];
        let a = annotate(spike(), &suggestions, &[], &ContextParams::default());
        assert!(a.power_annotated());

        let suggestions = vec![term("spectrum outage", 80)];
        let a = annotate(spike(), &suggestions, &[], &ContextParams::default());
        assert!(!a.power_annotated());
    }

    #[test]
    fn annotations_truncated() {
        let suggestions: Vec<RisingTerm> = (0..10)
            .map(|i| term(&format!("provider{i} outage"), 100 - i))
            .collect();
        let params = ContextParams {
            max_annotations: 3,
            ..ContextParams::default()
        };
        let a = annotate(spike(), &suggestions, &[], &params);
        assert_eq!(a.annotations.len(), 3);
    }

    #[test]
    fn label_of_unannotated_spike() {
        let a = annotate(spike(), &[], &[], &ContextParams::default());
        assert_eq!(a.label(), "—");
        assert!(!a.power_annotated());
    }

    #[test]
    fn term_normalization_for_heavy_matching() {
        let suggestions = vec![term("Power Outage!!", 90)];
        let heavy = vec![("power outage".to_string(), 10u64)];
        let a = annotate(spike(), &suggestions, &heavy, &ContextParams::default());
        assert!(a.annotations[0].heavy_hitter);
    }

    /// Words whose raw spellings differ but normalise alike ("Power",
    /// "power!!"), outage phrasings that cluster, and stop words.
    const WORDS: &[&str] = &[
        "power", "Power", "power!!", "outage", "Outage", "verizon", "verzion", "comcast", "down",
        "san", "jose", "is", "the",
    ];

    fn suggestions() -> impl Strategy<Value = Vec<RisingTerm>> {
        let phrase = proptest::collection::vec(0..WORDS.len(), 1..4)
            .prop_map(|ws| ws.iter().map(|&w| WORDS[w]).collect::<Vec<_>>().join(" "));
        let weight = prop_oneof![Just(50u32), Just(100u32), 0u32..400];
        proptest::collection::vec(
            (phrase, weight).prop_map(|(term, weight)| RisingTerm { term, weight }),
            0..25,
        )
    }

    /// The heavy-hitter count as first written: every occurrence
    /// normalised on its own.
    fn heavy_hitters_per_occurrence(
        sets: &[&[RisingTerm]],
        mass: f64,
    ) -> (Vec<(String, u64)>, usize) {
        let mut freq: HashMap<String, u64> = HashMap::new();
        let mut total = 0u64;
        for t in sets.iter().flat_map(|s| s.iter()) {
            *freq.entry(sift_nlp::normalize(&t.term)).or_insert(0) += 1;
            total += 1;
        }
        let distinct = freq.len();
        let mut ranked: Vec<(String, u64)> = freq.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let target = (total as f64 * mass).ceil() as u64;
        let mut acc = 0;
        let keep = ranked
            .iter()
            .take_while(|(_, c)| {
                let take = acc < target;
                acc += c;
                take
            })
            .count();
        ranked.truncate(keep);
        (ranked, distinct)
    }

    /// `annotate` as first written: string-keyed merging, every phrase
    /// embedded by `cluster_phrases`, heavy flags by normalising each
    /// member and scanning the heavy list.
    fn annotate_by_strings(
        suggestions: &[RisingTerm],
        heavy: &[(String, u64)],
        params: &ContextParams,
    ) -> Vec<Annotation> {
        let mut merged: HashMap<String, f64> = HashMap::new();
        for s in suggestions {
            *merged.entry(s.term.clone()).or_insert(0.0) += f64::from(s.weight);
        }
        let mut phrases: Vec<(String, f64)> = merged.into_iter().collect();
        phrases.sort_by(|a, b| a.0.cmp(&b.0));
        let is_heavy = |term: &str| {
            let n = sift_nlp::normalize(term);
            heavy.iter().any(|(h, _)| *h == n)
        };
        let mut annotations: Vec<Annotation> =
            sift_nlp::cluster_phrases(&phrases, params.similarity_threshold)
                .into_iter()
                .map(|c| Annotation {
                    label: phrases[c.representative].0.clone(),
                    weight: c.members.iter().map(|&i| phrases[i].1).sum(),
                    heavy_hitter: c.members.iter().any(|&i| is_heavy(&phrases[i].0)),
                })
                .collect();
        annotations.sort_by(|a, b| {
            b.heavy_hitter
                .cmp(&a.heavy_hitter)
                .then(
                    b.weight
                        .partial_cmp(&a.weight)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
                .then(a.label.cmp(&b.label))
        });
        annotations.truncate(params.max_annotations);
        annotations
    }

    proptest! {
        /// Annotating through a study-wide table built over a superset of
        /// a spike's terms gives exactly the per-spike `annotate`, down to
        /// the bits of every weight; the table's heavy hitters are the
        /// per-occurrence count's.
        #[test]
        fn study_table_matches_per_spike_annotate(
            spikes in proptest::collection::vec(suggestions(), 1..6),
            unrelated in suggestions(),
            mass in 0.1f64..0.9,
        ) {
            let sets: Vec<&[RisingTerm]> = spikes
                .iter()
                .chain(std::iter::once(&unrelated))
                .map(Vec::as_slice)
                .collect();
            let (table, heavy, distinct) = TermTable::of_study(sets.iter().copied(), mass);
            let want = heavy_hitters_per_occurrence(&sets, mass);
            prop_assert_eq!(&heavy, &want.0);
            prop_assert_eq!(distinct, want.1);
            let owned = sets.iter().map(|s| s.iter().map(|t| t.term.clone()).collect::<Vec<_>>());
            prop_assert_eq!(heavy_hitters(owned, mass), want);

            let params = ContextParams { max_annotations: 8, ..ContextParams::default() };
            let bits = |a: &[Annotation]| -> Vec<(String, bool, u64)> {
                a.iter().map(|a| (a.label.clone(), a.heavy_hitter, a.weight.to_bits())).collect()
            };
            for s in &spikes {
                let got = bits(&table.annotate(spike(), s, &params).annotations);
                prop_assert_eq!(&got, &bits(&annotate(spike(), s, &heavy, &params).annotations));
                prop_assert_eq!(&got, &bits(&annotate_by_strings(s, &heavy, &params)));
            }
        }
    }
}
