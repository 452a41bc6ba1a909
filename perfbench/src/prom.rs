//! A small reader for Prometheus text exposition, enough to take
//! counter deltas from two scrapes of the coordinator's federated
//! metrics.
//!
//! The coordinator observes every task's duration in
//! `dasc_dist_task_duration_us` twice: once with only a `stage` label
//! and once more with a `worker` label. Each worker observes its own
//! time in a series of the same name, which federation re-keys with
//! `worker="<name>"` and adds into the coordinator's labelled series.
//! Summing every series therefore counts each task three times, and
//! even the `worker`-labelled series holds the coordinator's copy as
//! well as the worker's own; [`worker_side_delta`] separates them.

/// One sample line: `name{labels} value`.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

impl Sample {
    fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Which series of a name a query sums.
#[derive(Clone, Copy, Debug)]
pub enum Labels<'a> {
    /// Every series of the name.
    Any,
    /// Only series carrying this label key.
    With(&'a str),
    /// Only series without this label key.
    Without(&'a str),
}

impl Labels<'_> {
    fn admits(&self, s: &Sample) -> bool {
        match *self {
            Labels::Any => true,
            Labels::With(k) => s.label(k).is_some(),
            Labels::Without(k) => s.label(k).is_none(),
        }
    }
}

/// Parse exposition text. Comment lines and lines that do not parse
/// are skipped.
pub fn parse(text: &str) -> Vec<Sample> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(parse_line)
        .collect()
}

fn parse_line(line: &str) -> Option<Sample> {
    let (series, value) = line.rsplit_once(' ')?;
    let value: f64 = value.parse().ok()?;
    let (name, labels) = match series.split_once('{') {
        Some((name, rest)) => (name, parse_labels(rest.strip_suffix('}')?)?),
        None => (series, Vec::new()),
    };
    Some(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// `k1="v1",k2="v2"` → pairs. Values may contain commas but not
/// escaped quotes (the registry never writes those).
fn parse_labels(block: &str) -> Option<Vec<(String, String)>> {
    let mut out = Vec::new();
    let mut rest = block.trim();
    while !rest.is_empty() {
        let (key, after) = rest.split_once("=\"")?;
        let (value, after) = after.split_once('"')?;
        out.push((key.trim().to_string(), value.to_string()));
        rest = after.trim_start_matches(',').trim();
    }
    Some(out)
}

/// Sum of every admitted series named `name`.
pub fn sum(samples: &[Sample], name: &str, labels: Labels<'_>) -> f64 {
    samples
        .iter()
        .filter(|s| s.name == name && labels.admits(s))
        .map(|s| s.value)
        .sum()
}

/// Counter delta `after − before` for the admitted series of `name`.
pub fn delta(before: &[Sample], after: &[Sample], name: &str, labels: Labels<'_>) -> f64 {
    sum(after, name, labels) - sum(before, name, labels)
}

/// Delta of what the workers themselves recorded in a series the
/// coordinator also records per worker: the `worker`-labelled sum minus
/// the coordinator's unlabelled copy.
pub fn worker_side_delta(before: &[Sample], after: &[Sample], name: &str) -> f64 {
    delta(before, after, name, Labels::With("worker"))
        - delta(before, after, name, Labels::Without("worker"))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Coordinator copies (unlabelled and per worker) plus the workers'
    // own observations merged into the per-worker series, as the
    // coordinator's federated view renders them.
    const BEFORE: &str = "\
# TYPE dasc_dist_rpcs_total counter
dasc_dist_rpcs_total 100
# TYPE dasc_dist_task_duration_us histogram
dasc_dist_task_duration_us_bucket{stage=\"map\",le=\"+Inf\"} 4
dasc_dist_task_duration_us_sum{stage=\"map\"} 4000
dasc_dist_task_duration_us_count{stage=\"map\"} 4
dasc_dist_task_duration_us_sum{stage=\"map\",worker=\"w0\"} 3500
dasc_dist_task_duration_us_sum{stage=\"map\",worker=\"w1\"} 4000
dasc_store_shard_cache_hits_total{worker=\"w0\"} 3
";

    // Since BEFORE: map tasks the coordinator timed at 2000 µs on w0
    // and 3000 µs on w1 (the workers timed 1500 and 2500 of it), and a
    // first reduce task, 1000 µs at the coordinator and 900 on w1.
    const AFTER: &str = "\
dasc_dist_rpcs_total 160
dasc_dist_task_duration_us_sum{stage=\"map\"} 9000
dasc_dist_task_duration_us_sum{stage=\"reduce\"} 1000
dasc_dist_task_duration_us_sum{stage=\"map\",worker=\"w0\"} 7000
dasc_dist_task_duration_us_sum{stage=\"map\",worker=\"w1\"} 9500
dasc_dist_task_duration_us_sum{stage=\"reduce\",worker=\"w1\"} 1900
dasc_store_shard_cache_hits_total{worker=\"w0\"} 10
dasc_store_shard_cache_hits_total{worker=\"w1\"} 5
";

    #[test]
    fn parses_names_labels_values() {
        let s = parse(BEFORE);
        assert_eq!(s.len(), 7);
        assert_eq!(s[0].name, "dasc_dist_rpcs_total");
        assert!(s[0].labels.is_empty());
        assert_eq!(s[0].value, 100.0);
        assert_eq!(s[1].label("le"), Some("+Inf"));
        assert_eq!(s[5].label("worker"), Some("w1"));
        assert_eq!(s[5].label("stage"), Some("map"));
    }

    #[test]
    fn counter_delta() {
        let (b, a) = (parse(BEFORE), parse(AFTER));
        assert_eq!(delta(&b, &a, "dasc_dist_rpcs_total", Labels::Any), 60.0);
        // A series that first appears in the second scrape counts from 0.
        assert_eq!(
            delta(&b, &a, "dasc_store_shard_cache_hits_total", Labels::Any),
            12.0
        );
    }

    #[test]
    fn worker_label_filter_prevents_double_counting() {
        let (b, a) = (parse(BEFORE), parse(AFTER));
        let name = "dasc_dist_task_duration_us_sum";
        // The coordinator's own copy: 5000 map + 1000 reduce.
        assert_eq!(delta(&b, &a, name, Labels::Without("worker")), 6000.0);
        // The labelled series hold that copy again plus the workers' own
        // 4000 map + 900 reduce.
        assert_eq!(delta(&b, &a, name, Labels::With("worker")), 10900.0);
        // Every series: each task counted three times over.
        assert_eq!(delta(&b, &a, name, Labels::Any), 16900.0);
        // The workers' own time alone.
        assert_eq!(worker_side_delta(&b, &a, name), 4900.0);
    }

    #[test]
    fn skips_garbage() {
        let s = parse("no_value_here\nx{a=\"1\" 5\nok 2\n# comment 3\n");
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].name, "ok");
    }
}
