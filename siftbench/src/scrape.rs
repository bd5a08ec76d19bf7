//! Reads the metrics the program already exports through `sift-obs`.
//!
//! The benchmark renders the process-global registry in the Prometheus
//! text format — the same bytes `GET /metrics` serves — and parses it
//! back, so every number it reports from here is one an operator could
//! scrape. Nothing is added to the program.

use std::collections::BTreeMap;

type Labels = Vec<(String, String)>;

/// One parsed exposition: `(name, labels) → value`.
#[derive(Clone, Debug, Default)]
pub struct Scrape {
    samples: BTreeMap<(String, Labels), f64>,
}

impl Scrape {
    /// Scrapes the process-global registry now.
    pub fn now() -> Scrape {
        Scrape::parse(&sift_obs::global().render_prometheus())
    }

    /// Parses Prometheus text exposition (comments and blank lines are
    /// skipped).
    pub fn parse(text: &str) -> Scrape {
        let mut samples = BTreeMap::new();
        for line in text.lines() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            let (name, labels) = match series.split_once('{') {
                Some((name, rest)) => (name, parse_labels(rest.trim_end_matches('}'))),
                None => (series, Vec::new()),
            };
            samples.insert((name.to_owned(), labels), value);
        }
        Scrape { samples }
    }

    /// What changed between `earlier` and `self` (series absent from
    /// `earlier` count from zero).
    pub fn since(&self, earlier: &Scrape) -> Scrape {
        let samples = self
            .samples
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    v - earlier.samples.get(k).copied().unwrap_or(0.0),
                )
            })
            .collect();
        Scrape { samples }
    }

    /// Sum of every series named `name` whose labels include all of
    /// `filter`.
    pub fn sum(&self, name: &str, filter: &[(&str, &str)]) -> f64 {
        self.samples
            .iter()
            .filter(|((n, labels), _)| {
                n == name
                    && filter
                        .iter()
                        .all(|(k, v)| labels.iter().any(|(lk, lv)| lk == k && lv == v))
            })
            // Folded from +0.0: an empty `f64` sum is -0.0.
            .fold(0.0, |acc, (_, v)| acc + v)
    }

    /// `(seconds, requests)` the HTTP servers of this process spent on
    /// `route`, from `sift_http_request_seconds`.
    pub fn route(&self, route: &str) -> (f64, f64) {
        (
            self.sum("sift_http_request_seconds_sum", &[("route", route)]),
            self.sum("sift_http_request_seconds_count", &[("route", route)]),
        )
    }

    /// Requests answered on every route, and how many of them non-2xx,
    /// from `sift_http_requests_total`.
    pub fn requests(&self) -> (f64, f64) {
        let all = self.sum("sift_http_requests_total", &[]);
        let ok: f64 = self
            .samples
            .iter()
            .filter(|((n, labels), _)| {
                n == "sift_http_requests_total"
                    && labels
                        .iter()
                        .any(|(k, v)| k == "status" && v.starts_with('2'))
            })
            .fold(0.0, |acc, (_, v)| acc + v);
        (all, all - ok)
    }
}

fn parse_labels(body: &str) -> Labels {
    let mut labels = Vec::new();
    let mut rest = body;
    while let Some((key, tail)) = rest.split_once("=\"") {
        // Values escape `"` and `\` with a backslash.
        let mut value = String::new();
        let mut chars = tail.char_indices();
        let mut end = tail.len();
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => {
                    if let Some((_, e)) = chars.next() {
                        value.push(if e == 'n' { '\n' } else { e });
                    }
                }
                '"' => {
                    end = i + 1;
                    break;
                }
                c => value.push(c),
            }
        }
        labels.push((key.trim_start_matches(',').to_owned(), value));
        rest = &tail[end..];
    }
    labels.sort();
    labels
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "\
# TYPE sift_http_requests_total counter
sift_http_requests_total{route=\"/api/frame\",status=\"200\"} 7
sift_http_requests_total{route=\"/cluster/lease\",status=\"503\"} 2
# TYPE sift_http_request_seconds histogram
sift_http_request_seconds_bucket{route=\"/api/frame\",le=\"0.01\"} 7
sift_http_request_seconds_sum{route=\"/api/frame\"} 0.25
sift_http_request_seconds_count{route=\"/api/frame\"} 7
sift_plain 3
odd{k=\"a\\\"b,c\"} 1
";

    #[test]
    fn parses_sums_and_differences() {
        let s = Scrape::parse(TEXT);
        assert_eq!(s.requests(), (9.0, 2.0));
        assert_eq!(s.route("/api/frame"), (0.25, 7.0));
        assert_eq!(s.sum("sift_plain", &[]), 3.0);
        assert_eq!(s.sum("odd", &[("k", "a\"b,c")]), 1.0);
        assert!(s.sum("absent", &[]).is_sign_positive());
        let later = Scrape::parse(&TEXT.replace("} 7\n", "} 10\n"));
        assert_eq!(later.since(&s).route("/api/frame"), (0.0, 3.0));
        assert_eq!(later.since(&s).requests(), (3.0, 0.0));
    }

    #[test]
    fn reads_the_live_registry() {
        sift_obs::counter("siftbench_scrape_test_total", &[("k", "v")]).add(5);
        assert_eq!(
            Scrape::now().sum("siftbench_scrape_test_total", &[("k", "v")]),
            5.0
        );
    }
}
