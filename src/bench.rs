//! Schema of the `BENCH_service.json` perf-trajectory report, shared
//! by the `bench` writer and the `bench_check` CI guard so the two can
//! never drift apart: `bench` renders and self-validates the report
//! through this module, and CI re-validates the artifact with
//! `cargo run --bin bench_check` before uploading it.
//!
//! The report is deliberately a *flat* JSON object of scalars — easy to
//! diff across commits, easy to plot. Parsing rides the workspace's
//! shared dependency-free JSON codec ([`negativa_ml::codec`], the same
//! one behind the registry's manifests and index); this module then
//! holds the document to the bench report's flat-scalar shape and key
//! schema.

use std::collections::BTreeMap;

use negativa_ml::codec::JsonValue;

/// Every key a valid `BENCH_service.json` must contain. Extending the
/// bench adds the key here first; `bench_check` then holds CI to it.
pub const REQUIRED_KEYS: &[&str] = &[
    "schema_version",
    "workload",
    "gpu",
    "cold_ns",
    "cache_hit_ns",
    "cold_over_hit_speedup",
    "service_requests",
    "service_detections",
    "latency_p50_ns",
    "latency_p95_ns",
    "unbatched_total_ns",
    "unbatched_throughput_rps",
    "batched_total_ns",
    "batched_throughput_rps",
    "batched_over_unbatched_speedup",
    "mean_batch_size",
    "bytes_copied_total",
    "bytes_shared_total",
    "plan_diff_ns",
    "verify_ns",
    "verify_parallel_speedup",
    "store_open_ns",
    "store_objects_deduped",
    "delta_bytes_shipped",
    "full_bytes_shipped",
    "registry_objects_deduped",
    "registry_dedup_ratio",
    "remote_pull_ns",
    "remote_delta_bytes",
    "net_retries",
    "fleet",
    "fleet_slice_bytes_removed",
    "compressed_elements_rewritten",
    "fleet_artifact_bytes",
    "single_arch_artifact_bytes",
    "fleet_over_single_arch_size_ratio",
];

/// Keys whose values are strings; every other required key must be a
/// number.
pub const TEXT_KEYS: &[&str] = &["workload", "gpu", "fleet"];

/// One scalar in the flat report object.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchValue {
    /// A JSON number.
    Number(f64),
    /// A JSON string.
    Text(String),
}

impl BenchValue {
    /// Shorthand for an integral counter (nanoseconds, request counts).
    pub fn int(value: u128) -> BenchValue {
        BenchValue::Number(value as f64)
    }
}

/// Render a flat report object with one `"key": value` pair per line,
/// in entry order. Integral numbers print without a decimal point.
pub fn render(entries: &[(&str, BenchValue)]) -> String {
    let mut out = String::from("{\n");
    for (i, (key, value)) in entries.iter().enumerate() {
        out.push_str("  \"");
        out.push_str(key);
        out.push_str("\": ");
        match value {
            BenchValue::Number(n) if n.fract() == 0.0 && n.abs() < 1e15 => {
                out.push_str(&format!("{}", *n as i64));
            }
            BenchValue::Number(n) => out.push_str(&format!("{n:.3}")),
            BenchValue::Text(s) => {
                out.push('"');
                out.push_str(&s.replace('\\', "\\\\").replace('"', "\\\""));
                out.push('"');
            }
        }
        out.push_str(if i + 1 == entries.len() { "\n" } else { ",\n" });
    }
    out.push_str("}\n");
    out
}

/// Parse a flat JSON object of string/number scalars through the
/// shared codec. Rejects nesting, duplicate keys, trailing garbage, and
/// anything else outside the report's shape.
///
/// # Errors
///
/// A human-readable description of the first syntax or shape violation.
pub fn parse_flat_object(input: &str) -> Result<BTreeMap<String, BenchValue>, String> {
    let doc = JsonValue::parse(input)?;
    let Some(pairs) = doc.as_object() else {
        return Err("the report must be a JSON object".into());
    };
    let mut out = BTreeMap::new();
    for (key, value) in pairs {
        let value = match value {
            JsonValue::Number(n) => BenchValue::Number(*n),
            JsonValue::Text(s) => BenchValue::Text(s.clone()),
            other => {
                return Err(format!(
                    "key {key:?}: expected a string or number value, found {other:?} \
                     (the report is a flat object of scalars)"
                ))
            }
        };
        out.insert(key.clone(), value);
    }
    Ok(out)
}

/// Validate a rendered report against the schema: it must parse as a
/// flat object, contain every [`REQUIRED_KEYS`] entry, and type each
/// one correctly ([`TEXT_KEYS`] as strings, the rest as numbers).
///
/// # Errors
///
/// The first violation found, suitable for a CI failure message.
pub fn validate(json: &str) -> Result<(), String> {
    let object = parse_flat_object(json)?;
    for &key in REQUIRED_KEYS {
        match object.get(key) {
            None => return Err(format!("missing required key {key:?}")),
            Some(BenchValue::Text(_)) if !TEXT_KEYS.contains(&key) => {
                return Err(format!("key {key:?} must be a number, found a string"))
            }
            Some(BenchValue::Number(_)) if TEXT_KEYS.contains(&key) => {
                return Err(format!("key {key:?} must be a string, found a number"))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// The `pct`-th percentile of an ascending-sorted latency sample
/// (nearest-rank on the index scale; `pct` clamped to 0..=100).
pub fn percentile(sorted_ns: &[u128], pct: u32) -> u128 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let pct = pct.min(100) as usize;
    let index = (sorted_ns.len() - 1) * pct / 100;
    sorted_ns[index]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> String {
        let entries: Vec<(&str, BenchValue)> = REQUIRED_KEYS
            .iter()
            .map(|&key| {
                let value = if TEXT_KEYS.contains(&key) {
                    BenchValue::Text(format!("value of {key}"))
                } else {
                    BenchValue::Number(42.0)
                };
                (key, value)
            })
            .collect();
        render(&entries)
    }

    #[test]
    fn a_complete_report_round_trips_and_validates() {
        let json = sample();
        validate(&json).expect("a report with every key validates");
        let parsed = parse_flat_object(&json).unwrap();
        assert_eq!(parsed.len(), REQUIRED_KEYS.len());
        assert_eq!(parsed["cold_ns"], BenchValue::Number(42.0));
        assert_eq!(parsed["gpu"], BenchValue::Text("value of gpu".into()));
    }

    #[test]
    fn missing_and_mistyped_keys_are_rejected() {
        let json = sample().replace("\"cold_ns\"", "\"cold_ns_renamed\"");
        let err = validate(&json).unwrap_err();
        assert!(err.contains("cold_ns"), "{err}");

        let json = sample().replace("\"gpu\": \"value of gpu\"", "\"gpu\": 7");
        let err = validate(&json).unwrap_err();
        assert!(err.contains("gpu") && err.contains("string"), "{err}");
    }

    #[test]
    fn malformed_json_is_rejected_not_misread() {
        assert!(parse_flat_object("").is_err());
        assert!(parse_flat_object("{\"a\": 1").is_err(), "unterminated object");
        assert!(parse_flat_object("{\"a\": 1} tail").is_err(), "trailing garbage");
        assert!(parse_flat_object("{\"a\": {\"nested\": 1}}").is_err(), "nesting rejected");
        assert!(parse_flat_object("{\"a\": 1, \"a\": 2}").is_err(), "duplicate keys rejected");
        assert!(parse_flat_object("{\"a\": 12notanumber}").is_err());
    }

    #[test]
    fn renderer_prints_integers_without_decimals() {
        let json = render(&[
            ("count", BenchValue::int(16)),
            ("ratio", BenchValue::Number(2.5)),
            ("name", BenchValue::Text("x \"y\"".into())),
        ]);
        assert!(json.contains("\"count\": 16,"), "{json}");
        assert!(json.contains("\"ratio\": 2.500"), "{json}");
        assert!(json.contains("\"name\": \"x \\\"y\\\"\""), "{json}");
        parse_flat_object(&json).expect("rendered output parses back");
    }

    #[test]
    fn percentiles_use_nearest_rank_on_sorted_samples() {
        let sorted: Vec<u128> = (1..=16).collect();
        assert_eq!(percentile(&sorted, 0), 1);
        assert_eq!(percentile(&sorted, 50), 8);
        assert_eq!(percentile(&sorted, 95), 15);
        assert_eq!(percentile(&sorted, 100), 16);
        assert_eq!(percentile(&[], 50), 0);
    }
}
