//! Edge-case coverage for the hand-rolled JSON layer: non-finite
//! floats, control-character escaping, nesting depth, and validator
//! round-trips over real flight-recorder dumps.

use ule_obs::flight::validate_dump;
use ule_obs::json::{self, Json, JsonBuf};
use ule_obs::{Recorder, Value};

#[test]
fn non_finite_floats_serialize_as_null_and_round_trip() {
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut b = JsonBuf::new();
        b.begin_object();
        b.key("x").value_f64(v);
        b.end_object();
        let s = b.finish();
        assert_eq!(s, r#"{"x":null}"#, "{v} must degrade to null");
        assert_eq!(json::parse(&s).unwrap().get("x"), Some(&Json::Null));
    }
    // Finite extremes survive exactly.
    for v in [f64::MIN, f64::MAX, f64::MIN_POSITIVE] {
        let mut b = JsonBuf::new();
        b.begin_array();
        b.value_f64(v);
        b.end_array();
        let parsed = json::parse(&b.finish()).unwrap();
        let back = parsed.as_array().unwrap()[0].as_f64().unwrap();
        assert_eq!(back.to_bits(), v.to_bits(), "{v} must round-trip");
    }
    // Negative zero folds to an integer zero on the way back (the
    // parser prefers integer representations); the value survives even
    // though the sign bit does not.
    let mut b = JsonBuf::new();
    b.begin_array();
    b.value_f64(-0.0);
    b.end_array();
    let parsed = json::parse(&b.finish()).unwrap();
    assert_eq!(parsed.as_array().unwrap()[0].as_f64(), Some(0.0));
}

#[test]
fn every_control_character_is_escaped_and_recovered() {
    // RFC 8259: all of U+0000..U+001F must be escaped in strings.
    let s: String = (0u8..0x20).map(char::from).collect();
    let mut b = JsonBuf::new();
    b.value_str(&s);
    let ser = b.finish();
    // No raw control byte may appear in the serialized form.
    assert!(
        ser.bytes().all(|c| c >= 0x20),
        "raw control byte leaked: {ser:?}"
    );
    // The common escapes use their short forms.
    for short in ["\\n", "\\r", "\\t"] {
        assert!(ser.contains(short), "{short} missing in {ser:?}");
    }
    match json::parse(&ser).unwrap() {
        Json::Str(back) => assert_eq!(back, s),
        other => panic!("expected string, got {other:?}"),
    }
    // And embedded in an event line via the recorder path.
    let line = {
        let rec = Recorder::builder().flight(4, None).build();
        rec.emit("edge", &[("payload", Value::Str(s.clone()))]);
        rec.dump("test").unwrap()
    };
    for l in line.lines() {
        assert!(json::is_valid(l), "{l:?}");
    }
}

#[test]
fn nesting_up_to_the_cap_parses_and_beyond_is_rejected() {
    let nest = |depth: usize| {
        let mut s = String::new();
        for _ in 0..depth {
            s.push('[');
        }
        s.push('1');
        for _ in 0..depth {
            s.push(']');
        }
        s
    };
    assert!(json::parse(&nest(json::MAX_DEPTH)).is_some());
    assert!(
        json::parse(&nest(json::MAX_DEPTH + 1)).is_none(),
        "past the cap must be rejected, not overflow the stack"
    );
    // A pathological depth must fail cleanly long before the real
    // call stack is at risk.
    assert!(json::parse(&nest(100_000)).is_none());
    // Mixed object/array nesting counts against the same budget.
    let mut deep = String::new();
    for _ in 0..json::MAX_DEPTH {
        deep.push_str("{\"a\":[");
    }
    deep.push('0');
    for _ in 0..json::MAX_DEPTH {
        deep.push_str("]}");
    }
    assert!(json::parse(&deep).is_none(), "2x the cap must be rejected");
}

#[test]
fn flight_dump_round_trips_through_parse_and_validate() {
    let rec = Recorder::builder().flight(3, None).build();
    // Filler first so the ring wraps, then the awkward events (quotes,
    // newlines, non-finite floats, negative numbers, raw fragments)
    // land in the retained tail.
    for i in 0..5u64 {
        rec.emit("edge.fill", &[("i", Value::U64(i))]);
    }
    rec.emit(
        "edge.one",
        &[
            ("msg", Value::Str("say \"hi\"\nplease".into())),
            ("bad", Value::F64(f64::NAN)),
            ("neg", Value::I64(-42)),
        ],
    );
    rec.emit("edge.two", &[("frag", Value::Raw("[1,2,3]".into()))]);
    let doc = rec.dump("round_trip").unwrap();
    let stats = validate_dump(&doc).expect("dump validates");
    assert_eq!(stats.events, 3, "capacity 3 keeps the last 3");
    assert_eq!(stats.dropped, 4);
    assert!(stats.wrapped);
    // Every line independently parses, and the awkward values the
    // events carried come back intact through the full sink ->
    // serialize -> parse round trip.
    let parsed: Vec<Json> = doc.lines().map(|l| json::parse(l).unwrap()).collect();
    let one = parsed
        .iter()
        .find(|v| v.get("kind").and_then(|k| k.as_str()) == Some("edge.one"))
        .expect("edge.one retained");
    assert_eq!(
        one.get("msg").and_then(|v| v.as_str()),
        Some("say \"hi\"\nplease")
    );
    assert_eq!(one.get("bad"), Some(&Json::Null), "NaN degrades to null");
    assert_eq!(
        one.get("neg").map(|v| matches!(v, Json::I64(-42))),
        Some(true)
    );
    let two = parsed
        .iter()
        .find(|v| v.get("kind").and_then(|k| k.as_str()) == Some("edge.two"))
        .expect("edge.two retained");
    let frag = two.get("frag").and_then(|v| v.as_array()).unwrap();
    assert_eq!(frag.len(), 3, "raw fragment spliced as a real array");
}
