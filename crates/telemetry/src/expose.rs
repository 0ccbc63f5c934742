//! Prometheus text exposition: rendering a [`Snapshot`] and a small parser
//! used by the round-trip tests.

use crate::registry::{Sample, SampleValue, Snapshot};

/// Map a dotted internal metric name onto the Prometheus name charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`), prefixing `sads_`:
/// `provider.cache_hits` → `sads_provider_cache_hits`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("sads_");
    for (i, ch) in name.chars().enumerate() {
        if ch.is_ascii_alphanumeric() || ch == '_' || ch == ':' {
            if i == 0 && ch.is_ascii_digit() {
                out.push('_');
            }
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v.is_infinite() {
        if v > 0.0 { "+Inf".into() } else { "-Inf".into() }
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn fmt_labels(labels: &[(String, String)], extra: Option<(&str, String)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| {
            format!(
                "{k}=\"{}\"",
                v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
            )
        })
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// Render a registry [`Snapshot`] in the Prometheus text exposition
/// format: one `# TYPE` line per family, then one sample line per label
/// set (histograms expand to `_bucket`/`_sum`/`_count` series).
pub fn render_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_family = "";
    for s in &snap.samples {
        let pname = sanitize_metric_name(&s.name);
        if s.name != last_family {
            let kind = match &s.value {
                SampleValue::Counter(_) => "counter",
                SampleValue::Gauge(_) => "gauge",
                SampleValue::Histogram(_) => "histogram",
            };
            out.push_str(&format!("# TYPE {pname} {kind}\n"));
            last_family = &s.name;
        }
        render_sample(&mut out, &pname, s);
    }
    out
}

fn render_sample(out: &mut String, pname: &str, s: &Sample) {
    match &s.value {
        SampleValue::Counter(c) => {
            out.push_str(&format!("{pname}{} {c}\n", fmt_labels(&s.labels, None)));
        }
        SampleValue::Gauge(g) => {
            out.push_str(&format!("{pname}{} {}\n", fmt_labels(&s.labels, None), fmt_value(*g)));
        }
        SampleValue::Histogram(h) => {
            for (i, (bound, cum)) in h.buckets.iter().enumerate() {
                out.push_str(&format!(
                    "{pname}_bucket{} {cum}",
                    fmt_labels(&s.labels, Some(("le", fmt_value(*bound))))
                ));
                // OpenMetrics exemplar: `… # {trace_id="…"} value`, linking
                // the bucket to one concrete (dumpable) trace.
                if let Some(ex) = h.exemplars.get(i).copied().flatten() {
                    out.push_str(&format!(
                        " # {{trace_id=\"{:x}\"}} {}",
                        ex.trace_id,
                        fmt_value(ex.value)
                    ));
                }
                out.push('\n');
            }
            out.push_str(&format!("{pname}_sum{} {}\n", fmt_labels(&s.labels, None), h.sum));
            out.push_str(&format!("{pname}_count{} {}\n", fmt_labels(&s.labels, None), h.count));
        }
    }
}

/// One parsed exposition line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSample {
    /// Prometheus-side metric name (already sanitized, may carry a
    /// `_bucket`/`_sum`/`_count` suffix).
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
    /// OpenMetrics exemplar trailer, if present: `(trace_id, value)`.
    pub exemplar: Option<(String, f64)>,
}

/// Parse Prometheus text exposition back into samples. Comment (`# …`) and
/// blank lines are skipped; malformed lines yield `Err` with the offending
/// line. Exists so CI can prove `render_prometheus` emits the format it
/// claims to.
pub fn parse_prometheus(text: &str) -> Result<Vec<ParsedSample>, String> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_line(line).ok_or_else(|| format!("malformed exposition line: {line}"))?);
    }
    Ok(out)
}

/// Index of the first `}` in `body` that is outside a quoted label value
/// (label values may legally contain `}`; quotes may contain `\"`).
fn find_close_brace(body: &str) -> Option<usize> {
    let mut in_str = false;
    let mut esc = false;
    for (i, c) in body.char_indices() {
        if in_str {
            if esc {
                esc = false;
            } else if c == '\\' {
                esc = true;
            } else if c == '"' {
                in_str = false;
            }
        } else if c == '"' {
            in_str = true;
        } else if c == '}' {
            return Some(i);
        }
    }
    None
}

fn parse_value(tok: &str) -> Option<f64> {
    match tok {
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        v => v.parse().ok(),
    }
}

fn parse_line(line: &str) -> Option<ParsedSample> {
    let (name, mut labels, rest) = match line.find('{') {
        Some(open) => {
            let body = &line[open + 1..];
            let close = find_close_brace(body)?;
            (
                line[..open].to_string(),
                parse_labels(&body[..close])?,
                body[close + 1..].trim_start(),
            )
        }
        None => {
            let mut it = line.splitn(2, char::is_whitespace);
            let name = it.next()?;
            (name.to_string(), Vec::new(), it.next()?.trim_start())
        }
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        || name.chars().next()?.is_ascii_digit()
    {
        return None;
    }
    let mut parts = rest.splitn(2, char::is_whitespace);
    let value = parse_value(parts.next()?)?;
    let trailer = parts.next().map(str::trim).unwrap_or("");
    let exemplar = if trailer.is_empty() {
        None
    } else {
        // OpenMetrics exemplar trailer: `# {labels} value`.
        let ex = trailer.strip_prefix('#')?.trim_start().strip_prefix('{')?;
        let close = find_close_brace(ex)?;
        let ex_labels = parse_labels(&ex[..close])?;
        let ex_value = parse_value(ex[close + 1..].trim())?;
        let trace_id = ex_labels
            .iter()
            .find(|(k, _)| k == "trace_id")
            .map(|(_, v)| v.clone())?;
        Some((trace_id, ex_value))
    };
    labels.sort();
    Some(ParsedSample { name, labels, value, exemplar })
}

fn parse_labels(body: &str) -> Option<Vec<(String, String)>> {
    let mut out = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let eq = rest.find('=')?;
        let key = rest[..eq].trim().to_string();
        let after = rest[eq + 1..].trim_start();
        if !after.starts_with('"') {
            return None;
        }
        // Walk to the closing unescaped quote.
        let mut value = String::new();
        let mut chars = after[1..].char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    // The exposition format's escapes: `\\`, `\"`, `\n`.
                    // Anything else keeps the escaped char literally.
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, escaped)) => value.push(escaped),
                    None => return None,
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = end?;
        out.push((key, value));
        rest = after[1 + end + 1..].trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
        } else if !rest.is_empty() {
            return None;
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn names_are_sanitized() {
        assert_eq!(sanitize_metric_name("provider.cache_hits"), "sads_provider_cache_hits");
        assert_eq!(sanitize_metric_name("client.err.no-provider"), "sads_client_err_no_provider");
        assert_eq!(sanitize_metric_name("9lives"), "sads__9lives");
    }

    #[test]
    fn render_parse_roundtrip() {
        let reg = Registry::new();
        reg.inc("provider.cache_hits", &[("node", "4")], 7);
        reg.set("pool.providers", &[], 12.5);
        reg.observe("gateway.op_seconds", &[("op", "get")], 0.02);
        reg.observe("gateway.op_seconds", &[("op", "get")], 3.0);

        let text = reg.render();
        let parsed = parse_prometheus(&text).expect("render emits parseable text");

        let find = |name: &str, labels: &[(&str, &str)]| {
            let mut want: Vec<(String, String)> =
                labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
            want.sort();
            parsed
                .iter()
                .find(|p| p.name == name && p.labels == want)
                .map(|p| p.value)
        };

        assert_eq!(find("sads_provider_cache_hits", &[("node", "4")]), Some(7.0));
        assert_eq!(find("sads_pool_providers", &[]), Some(12.5));
        assert_eq!(find("sads_gateway_op_seconds_count", &[("op", "get")]), Some(2.0));
        let sum = find("sads_gateway_op_seconds_sum", &[("op", "get")]).unwrap();
        assert!((sum - 3.02).abs() < 1e-12);
        // The +Inf bucket holds every observation.
        assert_eq!(find("sads_gateway_op_seconds_bucket", &[("le", "+Inf"), ("op", "get")]), Some(2.0));
        // Only the occupied buckets are listed, then +Inf: cumulative,
        // non-decreasing, and ending at `_count`.
        let buckets: Vec<(String, f64)> = parsed
            .iter()
            .filter(|p| p.name == "sads_gateway_op_seconds_bucket")
            .map(|p| (p.labels.iter().find(|(k, _)| k == "le").unwrap().1.clone(), p.value))
            .collect();
        // 0.02 lies in [0.01953125, 0.0234375), 3.0 in [3, 3.5).
        assert_eq!(buckets, [("0.0234375".into(), 1.0), ("3.5".into(), 2.0), ("+Inf".into(), 2.0)]);
        // TYPE lines present for each family.
        assert!(text.contains("# TYPE sads_provider_cache_hits counter"));
        assert!(text.contains("# TYPE sads_gateway_op_seconds histogram"));
    }

    #[test]
    fn parser_rejects_garbage_and_handles_escapes() {
        assert!(parse_prometheus("not a metric line at all !!!").is_err());
        let ok = parse_prometheus("m{k=\"a\\\"b\"} 1\n# comment\n\n").unwrap();
        assert_eq!(ok[0].labels, vec![("k".to_string(), "a\"b".to_string())]);
        assert!(parse_prometheus("3bad 1").is_err());
    }

    #[test]
    fn hostile_label_values_roundtrip() {
        // Every escape-relevant char the exposition format defines —
        // quote, newline, backslash — plus mixes of them.
        let hostile = [
            "plain",
            "has \"quotes\"",
            "line\nbreak",
            "back\\slash",
            "all\\of\"them\ntogether",
            "trailing\\",
            "\n",
            "\\n", // a literal backslash-n, distinct from a newline
        ];
        let reg = Registry::new();
        for (i, v) in hostile.iter().enumerate() {
            reg.inc("scan.paths", &[("path", v), ("i", &i.to_string())], i as u64 + 1);
        }
        let text = reg.render();
        let parsed = parse_prometheus(&text).expect("hostile labels must stay parseable");
        for (i, v) in hostile.iter().enumerate() {
            let want_i = i.to_string();
            let hit = parsed
                .iter()
                .find(|p| p.labels.iter().any(|(k, val)| k == "i" && val == &want_i))
                .unwrap_or_else(|| panic!("sample {i} missing"));
            let path = hit.labels.iter().find(|(k, _)| k == "path").map(|(_, v)| v.as_str());
            assert_eq!(path, Some(*v), "label value {i} must round-trip exactly");
            assert_eq!(hit.value, i as f64 + 1.0);
        }
    }

    #[test]
    fn exemplars_render_and_roundtrip() {
        let reg = Registry::new();
        let h = reg.histogram("gateway.op_seconds", &[("op", "get")]);
        h.observe(0.0005);
        h.observe_traced(42.0, 0xdead_beef);
        let text = reg.render();
        assert!(
            text.contains("# {trace_id=\"deadbeef\"} 42"),
            "exemplar must render in OpenMetrics syntax:\n{text}"
        );
        let parsed = parse_prometheus(&text).expect("exemplar lines must stay parseable");
        let bucket = parsed
            .iter()
            .find(|p| p.name == "sads_gateway_op_seconds_bucket" && p.exemplar.is_some())
            .expect("one bucket line carries the exemplar");
        assert_eq!(bucket.exemplar, Some(("deadbeef".to_string(), 42.0)));
        // Non-exemplar lines parse with exemplar == None.
        assert!(parsed.iter().any(|p| p.exemplar.is_none()));
    }

    #[test]
    fn label_values_containing_braces_parse() {
        let ok = parse_prometheus("m{k=\"a}b\"} 7").unwrap();
        assert_eq!(ok[0].labels, vec![("k".to_string(), "a}b".to_string())]);
        assert_eq!(ok[0].value, 7.0);
    }
}
