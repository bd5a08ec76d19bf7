//! Embedding + semantic clustering throughput on suggestion corpora.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sift_nlp::{
    cluster_phrases, cluster_vectors, Embedding, PhraseVector, DEFAULT_SIMILARITY_THRESHOLD,
};

/// Distinct rising phrases one spike gathers on the `batch` world
/// (220k phrases over 8.2k spikes).
const PER_SPIKE: usize = 27;

fn corpus(n: usize) -> Vec<(String, f64)> {
    let providers = ["verizon", "comcast", "spectrum", "xfinity", "att", "cox"];
    let variants = [
        "outage",
        "down",
        "not working",
        "internet outage",
        "outage map",
    ];
    (0..n)
        .map(|i| {
            let p = providers[i % providers.len()];
            let v = variants[(i / providers.len()) % variants.len()];
            (format!("{p} {v}"), 100.0 - (i % 50) as f64)
        })
        .collect()
}

fn bench_nlp(c: &mut Criterion) {
    let mut group = c.benchmark_group("nlp");
    group.bench_function("embed_phrase", |b| {
        b.iter(|| Embedding::of_phrase(std::hint::black_box("is verizon down in san jose")));
    });
    for n in [10usize, PER_SPIKE, 40, 160] {
        let phrases = corpus(n);
        group.bench_with_input(BenchmarkId::new("cluster", n), &phrases, |b, phrases| {
            b.iter(|| cluster_phrases(std::hint::black_box(phrases), DEFAULT_SIMILARITY_THRESHOLD));
        });
    }
    // The study path: every phrase embedded once up front (a study's
    // term table), so only the clustering kernel is timed.
    for n in [PER_SPIKE, 160] {
        let phrases = corpus(n);
        let vectors: Vec<PhraseVector> = phrases
            .iter()
            .map(|(p, _)| PhraseVector::of_phrase(p))
            .collect();
        let weighted: Vec<(&PhraseVector, f64)> = vectors
            .iter()
            .zip(&phrases)
            .map(|(v, (_, w))| (v, *w))
            .collect();
        group.bench_with_input(
            BenchmarkId::new("cluster_vectors", n),
            &weighted,
            |b, weighted| {
                b.iter(|| {
                    cluster_vectors(std::hint::black_box(weighted), DEFAULT_SIMILARITY_THRESHOLD)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_nlp);
criterion_main!(benches);
