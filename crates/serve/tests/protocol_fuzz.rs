//! Property tests of the wire protocol: whatever bytes arrive on a line,
//! `Server::handle_line` answers with exactly one typed response document
//! and never panics.
//!
//! Inputs are arbitrary byte lines (decoded as lossy UTF-8, as a transport
//! would) and small byte mutations of request templates that cannot turn
//! into a computation within the mutation budget, so every case answers in
//! microseconds.

use proptest::prelude::*;
use serde_json::{ToJson, Value};
use sfc_bench::harness::error_kind;
use sfc_core::ExperimentSpec;
use sfc_serve::{Server, ServerOptions};
use std::sync::OnceLock;

/// Every `error_kind` a daemon response may carry.
const ERROR_KINDS: [&str; 7] = [
    error_kind::BAD_REQUEST,
    error_kind::COMPUTE_PANIC,
    error_kind::DEADLINE_EXCEEDED,
    error_kind::OVERLOADED,
    error_kind::DRAINING,
    error_kind::TRANSPORT,
    error_kind::WARM_QUEUE_FULL,
];

/// Requests that compute nothing. Reaching a computing request from one of
/// these takes more than three byte edits (e.g. `nope` to a real artifact
/// name), and none of them names a key whose loss would leave a valid run.
const TEMPLATES: [&str; 8] = [
    r#"{"op": "stats"}"#,
    r#"{"op": "health", "id": 3}"#,
    r#"{"op": "metrics", "request_id": "fuzz"}"#,
    r#"{"id": 1, "op": "run", "artifact": "nope", "scale": 4}"#,
    r#"{"op": "dance"}"#,
    r#"[1, 2, {"op": "stats"}]"#,
    r#"{"op": "run"}"#,
    "not json",
];

/// Most byte edits applied to one template.
const MAX_EDITS: usize = 3;

fn server() -> &'static Server {
    static SERVER: OnceLock<Server> = OnceLock::new();
    SERVER.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("sfc-serve-fuzz-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Server::new(dir.to_str().unwrap(), ServerOptions::default()).expect("server starts")
    })
}

/// Answer one line and check the protocol invariants on the answer.
fn check_line(line: &str) -> Value {
    let mut emitted = 0;
    let resp = server().handle_line_with(line, &mut |_| emitted += 1);
    assert_eq!(
        emitted, 0,
        "a non-batch line must produce one document: {line:?}"
    );
    let doc = resp.doc;
    assert!(
        doc.as_object().is_some(),
        "response is not an object: {doc:?}"
    );
    let ok = doc.get("ok").and_then(Value::as_bool);
    assert!(ok.is_some(), "`ok` is not a bool for {line:?}: {doc:?}");
    if ok == Some(false) {
        let kind = doc.get("error_kind").and_then(Value::as_str).unwrap_or("");
        assert!(
            ERROR_KINDS.contains(&kind),
            "untyped failure for {line:?}: {doc:?}"
        );
    }
    doc
}

/// Apply `edits` to `template`: each edit replaces, inserts before, or
/// deletes the byte at a position (taken modulo the current length).
fn mutate(template: &str, edits: &[(usize, u8, u8)]) -> String {
    let mut bytes = template.as_bytes().to_vec();
    for &(pos, kind, byte) in edits {
        let at = pos % (bytes.len() + 1);
        match kind % 3 {
            0 if at < bytes.len() => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            _ if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.push(byte),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_byte_lines_get_one_typed_response(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        check_line(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_templates_get_one_typed_response(
        template in 0..TEMPLATES.len(),
        edits in prop::collection::vec((0..64usize, any::<u8>(), any::<u8>()), 0..MAX_EDITS + 1),
    ) {
        check_line(&mutate(TEMPLATES[template], &edits));
    }
}

#[test]
fn grid_order_above_the_dense_table_cap_is_a_bad_request() {
    let mut spec = ExperimentSpec::table1(4, 1, 7).canonical_json();
    let Value::Object(obj) = &mut spec else {
        unreachable!("a spec is an object")
    };
    obj.insert("grid_order", 13u64.to_json());
    obj.insert("op", "run".to_json());
    let doc = check_line(&serde_json::to_string(&spec).unwrap());
    assert_eq!(doc.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(
        doc.get("error_kind").and_then(Value::as_str),
        Some(error_kind::BAD_REQUEST)
    );
    let error = doc.get("error").and_then(Value::as_str).unwrap();
    assert!(error.contains("grid order 13"), "{error}");
}
