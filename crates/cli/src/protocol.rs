//! Wire protocol of `aeetes serve`: newline-delimited JSON requests and
//! responses.
//!
//! One request per line, one response line per request (blank lines are
//! ignored). Responses echo the request's `id` verbatim (`null` when
//! absent), so clients may pipeline requests and reconcile out-of-order
//! responses.
//!
//! Request types:
//!
//! ```text
//! {"id": any?, "type": "extract", "doc": "...", "tau": 0.8?, "best": false?,
//!  "timeout_ms": N?, "max_matches": N?, "max_candidates": N?, "top_k": N?}
//! {"id": any?, "type": "stream", "verb": "open", "stream": N, "tau": 0.8?}
//! {"id": any?, "type": "stream", "verb": "feed", "stream": N, "text": "..."}
//! {"id": any?, "type": "stream", "verb": "flush", "stream": N}
//! {"id": any?, "type": "stream", "verb": "close", "stream": N}
//! {"id": any?, "type": "health"}
//! {"id": any?, "type": "stats"}
//! {"id": any?, "type": "metrics"}
//! {"id": any?, "type": "reload", "add_entities": ["..."]?,
//!  "remove_entities": [id, ...]?, "add_rules": [{"lhs": "...", "rhs": "...",
//!  "weight": 1.0?}, ...]?}
//! {"id": any?, "type": "prepare", ...same delta fields as reload...}
//! {"id": any?, "type": "activate", "generation": N}
//! {"id": any?, "type": "shutdown"}
//! ```
//!
//! `stream` verbs drive one incremental extraction per client-chosen
//! `stream` id, scoped to the connection: `open` pins the current engine
//! generation and takes one admission slot, each `feed` answers with the
//! matches that chunk *settled* (no future chunk can extend or re-score
//! them), `flush` finishes the current logical document and resets the
//! stream for the next one, and `close` flushes and releases the stream.
//! Every opened stream is answered with exactly one `closed` event — on
//! explicit close, client disconnect, or server drain.
//!
//! `prepare`/`activate` split a reload in two for fleet coordinators:
//! `prepare` builds the delta's generation off to the side and answers
//! `{"status":"ok","prepared_generation":N}` without serving it; `activate`
//! commits a previously prepared generation by id. A coordinator prepares
//! on every replica, then activates everywhere, so a fleet never serves a
//! mixture of generations. An `activate` whose id does not match the
//! prepared generation fails with code `conflict`.
//!
//! Client-requested budgets are *clamped* by the server's [`Ceilings`] —
//! a client can lower its own budget but never raise it past the
//! server-enforced ceiling.
//!
//! Errors answer `{"status":"error","code":..,"retryable":..,"message":..}`
//! (`"status":"shedding"` for `shedding`), in the vocabulary the fleet
//! coordinator speaks too: [`ErrorCode`], [`Reject`] and [`error_line`] are
//! `aeetes_cluster`'s, re-exported here.

pub use aeetes_cluster::{error_line, ErrorCode, Reject};
use aeetes_core::ExtractLimits;
use aeetes_shard::{DictDelta, RuleDelta};
use aeetes_text::EntityId;
use serde_json::{json, Value};
use std::time::Duration;

/// Server-enforced request ceilings. Client-requested budgets are clamped
/// to these; requests exceeding hard size ceilings are rejected.
#[derive(Debug, Clone, Copy)]
pub struct Ceilings {
    /// Hard cap on `doc` length in bytes (`too_large` beyond it).
    pub max_doc_bytes: usize,
    /// Upper bound — and default — for the per-request deadline.
    pub max_timeout: Duration,
    /// Upper bound — and default — for `max_matches`.
    pub max_matches: usize,
    /// Upper bound — and default — for `max_candidates`.
    pub max_candidates: usize,
}

impl Default for Ceilings {
    fn default() -> Self {
        Ceilings {
            max_doc_bytes: 1 << 20, // 1 MiB
            max_timeout: Duration::from_secs(10),
            max_matches: 10_000,
            max_candidates: 1_000_000,
        }
    }
}

/// A parsed, validated, ceiling-clamped extraction request.
#[derive(Debug)]
pub struct ExtractRequest {
    /// Client-supplied correlation id, echoed verbatim in the response.
    pub id: Value,
    /// Document text to extract from.
    pub doc: String,
    /// Similarity threshold, validated to `(0, 1]`.
    pub tau: f64,
    /// Whether to suppress overlapping matches (best-match-per-region).
    pub best: bool,
    /// Keep only the `k` best-scoring matches (clamped to the
    /// `max_matches` ceiling). Responses are then ordered by score, best
    /// first, instead of by span.
    pub top_k: Option<usize>,
    /// Effective budgets after clamping against the server [`Ceilings`].
    pub limits: ExtractLimits,
}

/// One verb of the incremental stream protocol.
#[derive(Debug)]
pub enum StreamVerb {
    /// Create the stream: pins the serving generation and takes one
    /// admission slot until the stream closes.
    Open {
        /// Similarity threshold for the stream's lifetime, validated to
        /// `(0, 1]`.
        tau: f64,
    },
    /// Feed one text chunk (arbitrary split points; ceiling-checked like
    /// an extract `doc`).
    Feed {
        /// The chunk. May end mid-token — the stream carries state.
        text: String,
    },
    /// Finish the current logical document: emit everything still carried
    /// and reset the stream for the next document.
    Flush,
    /// Flush, emit the final matches, and release the stream.
    Close,
}

/// A parsed, validated stream request.
#[derive(Debug)]
pub struct StreamRequest {
    /// Client-supplied correlation id, echoed verbatim in the response.
    pub id: Value,
    /// Client-chosen stream id, scoped to the connection.
    pub stream: u64,
    /// What to do with it.
    pub verb: StreamVerb,
}

/// A parsed, validated dictionary-reload request (the admin interface to
/// the engine's generation swap).
#[derive(Debug)]
pub struct ReloadRequest {
    /// Client-supplied correlation id, echoed verbatim in the response.
    pub id: Value,
    /// The entities to append and tombstone and the rules to append.
    pub delta: DictDelta,
}

/// A parsed request line.
#[derive(Debug)]
pub enum Request {
    /// Run an extraction (queued; subject to admission control).
    Extract(Box<ExtractRequest>),
    /// Drive one incremental stream (answered inline on the connection's
    /// reader thread; open streams count against admission).
    Stream(Box<StreamRequest>),
    /// Liveness probe (answered inline, never queued or shed).
    Health(Value),
    /// Counter snapshot (answered inline, never queued or shed).
    Stats(Value),
    /// Full metric-registry snapshot in the JSON export shape (answered
    /// inline, never queued or shed). Same data the `--metrics-listen`
    /// endpoint scrapes, embedded in one response line.
    Metrics(Value),
    /// Apply a dictionary delta and swap to a new generation (answered
    /// inline once the swap completes; in-flight extractions are
    /// unaffected — they finish on the generation they started on).
    Reload(Box<ReloadRequest>),
    /// Phase one of a two-phase reload: build the delta's generation but
    /// do not serve it (answered inline with `prepared_generation`).
    Prepare(Box<ReloadRequest>),
    /// Phase two: swap in the generation previously built by `prepare`,
    /// named by id (answered inline; `conflict` on id mismatch).
    Activate {
        /// Echoed correlation id.
        id: Value,
        /// Generation id that must match the prepared generation.
        generation: u64,
    },
    /// Begin graceful drain (answered inline).
    Shutdown(Value),
}

/// Parses and validates one request line against the server ceilings.
pub fn parse_request(line: &str, ceilings: &Ceilings) -> Result<Request, Reject> {
    let value = serde_json::from_str(line).map_err(|e| Reject::new(Value::Null, ErrorCode::BadRequest, format!("invalid JSON: {e}")))?;
    let id = value.get("id").cloned().unwrap_or(Value::Null);
    let Some(obj) = value.as_object() else {
        return Err(Reject::new(id, ErrorCode::BadRequest, "request must be a JSON object"));
    };
    let Some(ty) = obj.get("type").and_then(Value::as_str) else {
        return Err(Reject::new(id, ErrorCode::BadRequest, "missing or non-string `type` field"));
    };
    match ty {
        "health" => Ok(Request::Health(id)),
        "stats" => Ok(Request::Stats(id)),
        "metrics" => Ok(Request::Metrics(id)),
        "shutdown" => Ok(Request::Shutdown(id)),
        "reload" => parse_reload(id, &value, false),
        "prepare" => parse_reload(id, &value, true),
        "activate" => match value.get("generation").and_then(Value::as_u64) {
            Some(generation) => Ok(Request::Activate { id, generation }),
            None => Err(Reject::new(id, ErrorCode::BadRequest, "`activate` needs a numeric `generation` field")),
        },
        "extract" => parse_extract(id, &value, ceilings),
        "stream" => parse_stream(id, &value, ceilings),
        other => Err(Reject::new(
            id,
            ErrorCode::BadRequest,
            format!("unknown request type `{other}` (extract|stream|health|stats|metrics|reload|prepare|activate|shutdown)"),
        )),
    }
}

fn parse_reload(id: Value, value: &Value, prepare: bool) -> Result<Request, Reject> {
    let req = Box::new(ReloadRequest { delta: parse_delta_fields(&id, value)?, id });
    Ok(if prepare { Request::Prepare(req) } else { Request::Reload(req) })
}

/// The delta fields of a `reload`/`prepare` request (or a bare WAL body).
fn parse_delta_fields(id: &Value, value: &Value) -> Result<DictDelta, Reject> {
    let bad = |message: String| Reject::new(id.clone(), ErrorCode::BadRequest, message);
    let mut delta = DictDelta::default();
    if let Some(v) = value.get("add_entities") {
        let arr = v.as_array().ok_or_else(|| bad("`add_entities` must be an array of strings".into()))?;
        for e in arr {
            let s = e.as_str().ok_or_else(|| bad("`add_entities` entries must be strings".into()))?;
            delta.add_entities.push(s.to_string());
        }
    }
    if let Some(v) = value.get("remove_entities") {
        let arr = v.as_array().ok_or_else(|| bad("`remove_entities` must be an array of entity ids".into()))?;
        for e in arr {
            let n = e.as_u64().and_then(|n| u32::try_from(n).ok());
            delta
                .remove_entities
                .push(EntityId(n.ok_or_else(|| bad("`remove_entities` entries must be u32 entity ids".into()))?));
        }
    }
    if let Some(v) = value.get("add_rules") {
        let arr = v
            .as_array()
            .ok_or_else(|| bad("`add_rules` must be an array of {lhs, rhs, weight?} objects".into()))?;
        for r in arr {
            let (Some(lhs), Some(rhs)) = (r.get("lhs").and_then(Value::as_str), r.get("rhs").and_then(Value::as_str)) else {
                return Err(bad("`add_rules` entries need string `lhs` and `rhs`".into()));
            };
            let weight = match r.get("weight") {
                None => 1.0,
                Some(w) => match w.as_f64() {
                    Some(w) if w > 0.0 && w <= 1.0 => w,
                    Some(w) => return Err(bad(format!("rule `weight` must be in (0, 1], got {w}"))),
                    None => return Err(bad("rule `weight` must be a number".into())),
                },
            };
            delta.add_rules.push(RuleDelta { lhs: lhs.to_string(), rhs: rhs.to_string(), weight });
        }
    }
    Ok(delta)
}

fn parse_extract(id: Value, value: &Value, ceilings: &Ceilings) -> Result<Request, Reject> {
    let doc = match value.get("doc") {
        Some(v) => match v.as_str() {
            Some(s) => s.to_string(),
            None => return Err(Reject::new(id, ErrorCode::BadRequest, "`doc` must be a string")),
        },
        None => return Err(Reject::new(id, ErrorCode::BadRequest, "missing `doc` field")),
    };
    if doc.len() > ceilings.max_doc_bytes {
        let msg = format!("document is {} bytes; ceiling is {}", doc.len(), ceilings.max_doc_bytes);
        return Err(Reject::new(id, ErrorCode::TooLarge, msg));
    }
    let tau = parse_tau(&id, value)?;
    let best = match value.get("best") {
        None => false,
        Some(v) => match v.as_bool() {
            Some(b) => b,
            None => return Err(Reject::new(id, ErrorCode::BadRequest, "`best` must be a boolean")),
        },
    };
    let timeout_ms = optional_u64(&id, value, "timeout_ms")?;
    let max_matches = optional_u64(&id, value, "max_matches")?;
    let max_candidates = optional_u64(&id, value, "max_candidates")?;
    // Like the budgets, `top_k` clamps to the match ceiling: a giant k is
    // just "all matches, score-ordered", never an allocation lever.
    let top_k = optional_u64(&id, value, "top_k")?.map(|k| (k as usize).min(ceilings.max_matches));
    // Clamp client budgets to the server ceilings: the client may only
    // tighten, never loosen. Absent fields get the full ceiling.
    let limits = ExtractLimits {
        deadline: Some(timeout_ms.map_or(ceilings.max_timeout, |ms| Duration::from_millis(ms).min(ceilings.max_timeout))),
        max_matches: Some(max_matches.map_or(ceilings.max_matches, |n| (n as usize).min(ceilings.max_matches))),
        max_candidates: Some(max_candidates.map_or(ceilings.max_candidates, |n| (n as usize).min(ceilings.max_candidates))),
        ..ExtractLimits::UNLIMITED
    };
    Ok(Request::Extract(Box::new(ExtractRequest { id, doc, tau, best, top_k, limits })))
}

/// Validates a request's `tau` field (default 0.8). NaN fails `t > 0.0`,
/// infinities fail `t <= 1.0`: every pathological τ lands here with a
/// structured error instead of reaching the engine's panic.
fn parse_tau(id: &Value, value: &Value) -> Result<f64, Reject> {
    match value.get("tau") {
        None => Ok(0.8),
        Some(v) => match v.as_f64() {
            Some(t) if t > 0.0 && t <= 1.0 => Ok(t),
            Some(t) => Err(Reject::new(id.clone(), ErrorCode::BadRequest, format!("`tau` must be in (0, 1], got {t}"))),
            None => Err(Reject::new(id.clone(), ErrorCode::BadRequest, "`tau` must be a number")),
        },
    }
}

fn parse_stream(id: Value, value: &Value, ceilings: &Ceilings) -> Result<Request, Reject> {
    let Some(stream) = value.get("stream").and_then(Value::as_u64) else {
        return Err(Reject::new(id, ErrorCode::BadRequest, "`stream` requests need a numeric `stream` id"));
    };
    let Some(verb) = value.get("verb").and_then(Value::as_str) else {
        return Err(Reject::new(id, ErrorCode::BadRequest, "missing or non-string `verb` field (open|feed|flush|close)"));
    };
    let verb = match verb {
        "open" => StreamVerb::Open { tau: parse_tau(&id, value)? },
        "feed" => {
            let text = match value.get("text") {
                Some(v) => match v.as_str() {
                    Some(s) => s.to_string(),
                    None => return Err(Reject::new(id, ErrorCode::BadRequest, "`text` must be a string")),
                },
                None => return Err(Reject::new(id, ErrorCode::BadRequest, "`feed` needs a `text` field")),
            };
            // Each chunk obeys the same ceiling as an extract `doc`; the
            // stream's *carried* bytes stay bounded by the engine's window
            // length, not by chunk count.
            if text.len() > ceilings.max_doc_bytes {
                let msg = format!("chunk is {} bytes; ceiling is {}", text.len(), ceilings.max_doc_bytes);
                return Err(Reject::new(id, ErrorCode::TooLarge, msg));
            }
            StreamVerb::Feed { text }
        }
        "flush" => StreamVerb::Flush,
        "close" => StreamVerb::Close,
        other => {
            return Err(Reject::new(id, ErrorCode::BadRequest, format!("unknown stream verb `{other}` (open|feed|flush|close)")));
        }
    };
    Ok(Request::Stream(Box::new(StreamRequest { id, stream, verb })))
}

/// Parses a bare delta body (the reload fields without the `type`/`id`
/// envelope) into the engine's [`DictDelta`]. This is the decoder for WAL
/// payloads: the server logs each activated delta as canonical JSON (see
/// [`delta_value`]) and replays it through here on restart, and the fleet
/// coordinator's compactor folds logged deltas into a fresh artifact with
/// the same code path. Validation is identical to a live `reload` request.
pub fn parse_delta(value: &Value) -> Result<DictDelta, String> {
    parse_delta_fields(&Value::Null, value).map_err(|reject| reject.message)
}

/// Canonical JSON body of a delta — the exact shape [`parse_delta`]
/// accepts, used as the WAL record payload. Round-trips losslessly:
/// `parse_delta(&delta_value(&d)) == d`.
pub fn delta_value(delta: &DictDelta) -> Value {
    json!({
        "add_entities": delta.add_entities,
        "remove_entities": delta.remove_entities.iter().map(|e| e.0).collect::<Vec<u32>>(),
        "add_rules": delta
            .add_rules
            .iter()
            .map(|r| json!({"lhs": r.lhs, "rhs": r.rhs, "weight": r.weight}))
            .collect::<Vec<Value>>(),
    })
}

fn optional_u64(id: &Value, value: &Value, field: &str) -> Result<Option<u64>, Reject> {
    match value.get(field) {
        None => Ok(None),
        Some(v) => match v.as_u64() {
            Some(n) => Ok(Some(n)),
            None => Err(Reject::new(id.clone(), ErrorCode::BadRequest, format!("`{field}` must be a non-negative integer"))),
        },
    }
}

/// Serializes a successful extraction response line.
pub fn ok_line(id: &Value, matches: Value, truncated: bool) -> String {
    json!({
        "id": id,
        "status": "ok",
        "truncated": truncated,
        "matches": matches,
    })
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ceilings() -> Ceilings {
        Ceilings::default()
    }

    fn parse(line: &str) -> Result<Request, Reject> {
        parse_request(line, &ceilings())
    }

    #[test]
    fn extract_request_round_trips_fields() {
        let r = parse(r#"{"id": 7, "type": "extract", "doc": "some text", "tau": 0.9, "best": true}"#).unwrap();
        let Request::Extract(req) = r else { panic!("expected extract") };
        assert_eq!(req.id.as_u64(), Some(7));
        assert_eq!(req.doc, "some text");
        assert_eq!(req.tau, 0.9);
        assert!(req.best);
        assert_eq!(req.limits.max_matches, Some(ceilings().max_matches));
    }

    #[test]
    fn budgets_clamp_to_ceilings() {
        let r = parse(r#"{"type":"extract","doc":"x","timeout_ms":999999999,"max_matches":5,"max_candidates":999999999999}"#).unwrap();
        let Request::Extract(req) = r else { panic!("expected extract") };
        assert_eq!(req.limits.deadline, Some(ceilings().max_timeout), "timeout clamps down to the ceiling");
        assert_eq!(req.limits.max_matches, Some(5), "client may tighten");
        assert_eq!(req.limits.max_candidates, Some(ceilings().max_candidates));
    }

    #[test]
    fn top_k_parses_and_clamps() {
        let r = parse(r#"{"type":"extract","doc":"x","top_k":3}"#).unwrap();
        let Request::Extract(req) = r else { panic!("expected extract") };
        assert_eq!(req.top_k, Some(3));
        let r = parse(r#"{"type":"extract","doc":"x"}"#).unwrap();
        let Request::Extract(req) = r else { panic!("expected extract") };
        assert_eq!(req.top_k, None, "absent means all matches, span-ordered");
        let r = parse(r#"{"type":"extract","doc":"x","top_k":99999999}"#).unwrap();
        let Request::Extract(req) = r else { panic!("expected extract") };
        assert_eq!(req.top_k, Some(ceilings().max_matches), "k clamps to the match ceiling");
        assert_eq!(parse(r#"{"type":"extract","doc":"x","top_k":-2}"#).unwrap_err().code, ErrorCode::BadRequest);
        assert_eq!(parse(r#"{"type":"extract","doc":"x","top_k":"all"}"#).unwrap_err().code, ErrorCode::BadRequest);
    }

    #[test]
    fn stream_verbs_parse() {
        let r = parse(r#"{"id":1,"type":"stream","verb":"open","stream":7,"tau":0.9}"#).unwrap();
        let Request::Stream(req) = r else { panic!("expected stream") };
        assert_eq!(req.stream, 7);
        let StreamVerb::Open { tau } = req.verb else { panic!("expected open") };
        assert_eq!(tau, 0.9);

        let r = parse(r#"{"type":"stream","verb":"feed","stream":7,"text":"some chu"}"#).unwrap();
        let Request::Stream(req) = r else { panic!("expected stream") };
        let StreamVerb::Feed { text } = req.verb else { panic!("expected feed") };
        assert_eq!(text, "some chu");

        for (line, expect_flush) in [
            (r#"{"type":"stream","verb":"flush","stream":0}"#, true),
            (r#"{"type":"stream","verb":"close","stream":0}"#, false),
        ] {
            let Request::Stream(req) = parse(line).unwrap() else {
                panic!("expected stream")
            };
            assert_eq!(matches!(req.verb, StreamVerb::Flush), expect_flush, "{line}");
        }
    }

    #[test]
    fn stream_open_defaults_tau() {
        let Request::Stream(req) = parse(r#"{"type":"stream","verb":"open","stream":1}"#).unwrap() else {
            panic!("expected stream")
        };
        let StreamVerb::Open { tau } = req.verb else { panic!("expected open") };
        assert_eq!(tau, 0.8);
    }

    #[test]
    fn malformed_stream_requests_are_bad_requests() {
        for line in [
            r#"{"type":"stream","verb":"open"}"#,
            r#"{"type":"stream","stream":1}"#,
            r#"{"type":"stream","verb":"devour","stream":1}"#,
            r#"{"type":"stream","verb":"open","stream":"one"}"#,
            r#"{"type":"stream","verb":"open","stream":1,"tau":0}"#,
            r#"{"type":"stream","verb":"feed","stream":1}"#,
            r#"{"type":"stream","verb":"feed","stream":1,"text":5}"#,
        ] {
            assert_eq!(parse(line).unwrap_err().code, ErrorCode::BadRequest, "{line}");
        }
    }

    #[test]
    fn oversized_stream_chunk_is_too_large() {
        let c = Ceilings { max_doc_bytes: 8, ..Ceilings::default() };
        let e = parse_request(r#"{"type":"stream","verb":"feed","stream":1,"text":"123456789"}"#, &c).unwrap_err();
        assert_eq!(e.code, ErrorCode::TooLarge);
    }

    #[test]
    fn malformed_json_is_bad_request_with_null_id() {
        let e = parse("{not json").unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        assert!(e.id.is_null());
    }

    #[test]
    fn pathological_tau_is_bad_request() {
        for tau in ["0", "-1", "1.5", "1e308", "null", "\"high\""] {
            let line = format!(r#"{{"id":"t","type":"extract","doc":"x","tau":{tau}}}"#);
            let e = parse_request(&line, &ceilings()).unwrap_err();
            assert_eq!(e.code, ErrorCode::BadRequest, "tau={tau}");
            assert_eq!(e.id.as_str(), Some("t"), "id survives validation failure");
        }
    }

    #[test]
    fn oversized_doc_is_too_large() {
        let c = Ceilings { max_doc_bytes: 8, ..Ceilings::default() };
        let e = parse_request(r#"{"type":"extract","doc":"123456789"}"#, &c).unwrap_err();
        assert_eq!(e.code, ErrorCode::TooLarge);
    }

    #[test]
    fn unknown_type_and_missing_fields_are_bad_requests() {
        assert_eq!(parse(r#"{"type":"destroy"}"#).unwrap_err().code, ErrorCode::BadRequest);
        assert_eq!(parse(r#"{"type":"extract"}"#).unwrap_err().code, ErrorCode::BadRequest);
        assert_eq!(parse(r#"{"doc":"x"}"#).unwrap_err().code, ErrorCode::BadRequest);
        assert_eq!(parse(r#"[1,2]"#).unwrap_err().code, ErrorCode::BadRequest);
        assert_eq!(parse(r#""just a string""#).unwrap_err().code, ErrorCode::BadRequest);
    }

    #[test]
    fn control_requests_parse() {
        assert!(matches!(parse(r#"{"type":"health"}"#).unwrap(), Request::Health(_)));
        assert!(matches!(parse(r#"{"type":"stats","id":1}"#).unwrap(), Request::Stats(_)));
        assert!(matches!(parse(r#"{"type":"metrics","id":2}"#).unwrap(), Request::Metrics(_)));
        assert!(matches!(parse(r#"{"type":"shutdown"}"#).unwrap(), Request::Shutdown(_)));
    }

    #[test]
    fn reload_request_parses_delta_fields() {
        let r = parse(
            r#"{"id":3,"type":"reload","add_entities":["eth zurich"],"remove_entities":[0,4],
                "add_rules":[{"lhs":"ch","rhs":"switzerland"},{"lhs":"uni","rhs":"university","weight":0.5}]}"#,
        )
        .unwrap();
        let Request::Reload(req) = r else { panic!("expected reload") };
        assert_eq!(req.id.as_u64(), Some(3));
        assert_eq!(req.delta.add_entities, vec!["eth zurich"]);
        assert_eq!(req.delta.remove_entities, vec![EntityId(0), EntityId(4)]);
        let rules: Vec<_> = req.delta.add_rules.iter().map(|r| (r.lhs.as_str(), r.rhs.as_str(), r.weight)).collect();
        assert_eq!(rules, [("ch", "switzerland", 1.0), ("uni", "university", 0.5)]);
    }

    #[test]
    fn prepare_parses_like_reload() {
        let r = parse(r#"{"id":9,"type":"prepare","add_entities":["eth zurich"]}"#).unwrap();
        let Request::Prepare(req) = r else { panic!("expected prepare") };
        assert_eq!(req.id.as_u64(), Some(9));
        assert_eq!(req.delta.add_entities, vec!["eth zurich"]);
        // The same malformed fields are rejected identically.
        assert_eq!(parse(r#"{"type":"prepare","add_entities":[1]}"#).unwrap_err().code, ErrorCode::BadRequest);
    }

    #[test]
    fn activate_requires_numeric_generation() {
        let r = parse(r#"{"id":"a","type":"activate","generation":4}"#).unwrap();
        let Request::Activate { id, generation } = r else {
            panic!("expected activate")
        };
        assert_eq!(id.as_str(), Some("a"));
        assert_eq!(generation, 4);
        for line in [
            r#"{"type":"activate"}"#,
            r#"{"type":"activate","generation":"two"}"#,
            r#"{"type":"activate","generation":-1}"#,
            r#"{"type":"activate","generation":1.5}"#,
        ] {
            assert_eq!(parse(line).unwrap_err().code, ErrorCode::BadRequest, "{line}");
        }
    }

    #[test]
    fn empty_reload_parses_as_noop_delta() {
        let Request::Reload(req) = parse(r#"{"type":"reload"}"#).unwrap() else {
            panic!("expected reload")
        };
        assert!(req.delta.is_empty());
    }

    #[test]
    fn malformed_reload_fields_are_bad_requests() {
        for line in [
            r#"{"type":"reload","add_entities":"x"}"#,
            r#"{"type":"reload","add_entities":[1]}"#,
            r#"{"type":"reload","remove_entities":[-1]}"#,
            r#"{"type":"reload","remove_entities":[99999999999]}"#,
            r#"{"type":"reload","add_rules":[{"lhs":"a"}]}"#,
            r#"{"type":"reload","add_rules":[{"lhs":"a","rhs":"b","weight":0}]}"#,
            r#"{"type":"reload","add_rules":[{"lhs":"a","rhs":"b","weight":"x"}]}"#,
        ] {
            assert_eq!(parse(line).unwrap_err().code, ErrorCode::BadRequest, "{line}");
        }
    }

    #[test]
    fn delta_payload_round_trips() {
        let delta = DictDelta {
            add_entities: vec!["eth zurich".into(), "uq au".into()],
            remove_entities: vec![EntityId(3), EntityId(9)],
            add_rules: vec![RuleDelta { lhs: "uq".into(), rhs: "university of queensland".into(), weight: 0.75 }],
        };
        let v = delta_value(&delta);
        let back = parse_delta(&v).unwrap();
        assert_eq!(back.add_entities, delta.add_entities);
        assert_eq!(back.remove_entities, delta.remove_entities);
        assert_eq!(back.add_rules.len(), 1);
        assert_eq!(back.add_rules[0].lhs, "uq");
        assert_eq!(back.add_rules[0].weight, 0.75);
        // And through actual bytes, as the WAL stores it.
        let bytes = v.to_string().into_bytes();
        let reparsed: Value = serde_json::from_str(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert_eq!(parse_delta(&reparsed).unwrap().add_entities, delta.add_entities);
        // Malformed payloads surface as errors, never panics.
        assert!(parse_delta(&json!({"add_entities": [1]})).is_err());
        assert!(parse_delta(&json!({"add_rules": [{"lhs": "a"}]})).is_err());
    }

    #[test]
    fn ok_line_echoes_id() {
        let line = ok_line(&serde_json::from_str("\"abc\"").unwrap(), serde_json::Value::Array(vec![]), true);
        let v = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_str), Some("abc"));
        assert_eq!(v.get("truncated").and_then(Value::as_bool), Some(true));
    }
}
