//! Malformed-input corpus for the `mapd` decoder: the frame reader
//! (`read_frame`) and the request and response parsers. Every case must
//! come back as `Ok` or `Err`, never as a panic or an allocation sized by
//! the input. The corpus is enumerated, so it is deterministic: every
//! truncation and every single-byte substitution of valid map frames,
//! nesting at and past the parser's depth limit, numbers that overflow
//! their field, and frame headers that overflow `usize` or exceed
//! `MAX_FRAME_BYTES`.

use std::io::{self, BufReader};

use tie_fault::FaultHandle;
use tie_mapd::check_eps;
use tie_mapd::json::Json;
use tie_mapd::protocol::{read_frame, Request, Response, MAX_FRAME_BYTES};

/// Substituted at every position: JSON's structural bytes, a digit, a
/// sign, an exponent and a byte that is never UTF-8.
const SUBSTITUTES: &[u8] = b"[]{}\"\\0-e,:\xff";

/// A map request and a map response, byte for byte as the encoders write
/// them (`valid_map_frames_decode` checks that).
const MAP_REQUEST: &str = "{\"op\": \"map\", \"topology\": \"grid2x2\", \"case\": \"c2\", \
    \"nh\": 10, \"eps\": 0.03, \"seed\": 7, \"threads\": 1, \"batch\": 0, \"deadline_ms\": 250, \
    \"graph\": {\"num_vertices\": 4, \"edges\": [[0, 1, 2], [1, 2, 1], [2, 3, 5]]}}";
const MAP_RESPONSE: &str = "{\"status\": \"ok\", \"op\": \"map\", \"cache\": \"miss\", \
    \"stop_reason\": \"completed\", \"hierarchies_accepted\": 3, \"total_swaps\": 812, \
    \"initial\": {\"coco\": 1000, \"edge_cut\": 48, \"congestion\": 80, \"imbalance\": 0.031250}, \
    \"enhanced\": {\"coco\": 900, \"edge_cut\": 48, \"congestion\": 80, \"imbalance\": 0.031250}, \
    \"mapping\": [0, 1, 1, 3, 2]}";

/// `payload` as one frame: its byte length, a newline, the payload and a
/// newline.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = format!("{}\n", payload.len()).into_bytes();
    out.extend_from_slice(payload);
    out.push(b'\n');
    out
}

/// Runs `payload` through both parsers; how many of the two accepted it.
fn decode(payload: &str) -> usize {
    usize::from(Request::from_json(payload).is_ok())
        + usize::from(Response::from_json(payload).is_ok())
}

/// Reads frames from `bytes` until the stream ends or the reader fails,
/// decoding every payload read; the payloads, or the reader's error.
fn read_all(bytes: &[u8]) -> io::Result<Vec<String>> {
    let mut reader = BufReader::new(bytes);
    let mut payloads = Vec::new();
    while let Some(payload) = read_frame(&mut reader, &FaultHandle::off())? {
        decode(&payload);
        payloads.push(payload);
    }
    Ok(payloads)
}

#[test]
fn valid_map_frames_decode() {
    let request = Request::from_json(MAP_REQUEST).unwrap();
    let response = Response::from_json(MAP_RESPONSE).unwrap();
    assert!(matches!(request, Request::Map(_)) && matches!(response, Response::Map(_)));
    assert_eq!(
        (request.to_json(), response.to_json()),
        (MAP_REQUEST.into(), MAP_RESPONSE.into())
    );
    let mut stream = frame(MAP_REQUEST.as_bytes());
    stream.extend(frame(MAP_RESPONSE.as_bytes()));
    assert_eq!(read_all(&stream).unwrap(), [MAP_REQUEST, MAP_RESPONSE]);
}

#[test]
fn every_truncation_is_refused() {
    // An empty stream is a clean end; every longer cut is an error.
    assert_eq!(read_all(&[]).unwrap(), Vec::<String>::new());
    for payload in [MAP_REQUEST, MAP_RESPONSE] {
        for cut in 0..payload.len() {
            assert_eq!(decode(&payload[..cut]), 0, "{:?}", &payload[..cut]);
        }
        let framed = frame(payload.as_bytes());
        for cut in 1..framed.len() {
            assert!(read_all(&framed[..cut]).is_err(), "cut at {cut}");
        }
    }
}

#[test]
fn every_single_byte_substitution_returns() {
    for payload in [MAP_REQUEST, MAP_RESPONSE] {
        let framed = frame(payload.as_bytes());
        let body = framed.len() - payload.len() - 1..framed.len() - 1;
        for at in 0..framed.len() {
            for &byte in SUBSTITUTES {
                let mut mutated = framed.clone();
                mutated[at] = byte;
                // In the header or the terminator any outcome but a panic
                // will do; in the payload the frame reads back unchanged.
                let read = read_all(&mutated);
                if body.contains(&at) {
                    match std::str::from_utf8(&mutated[body.clone()]) {
                        Ok(text) => assert_eq!(read.unwrap(), [text], "substituted at {at}"),
                        Err(_) => assert!(read.is_err(), "non-UTF-8 payload read"),
                    }
                }
            }
        }
    }
}

#[test]
fn nesting_at_the_depth_limit_parses_and_one_level_deeper_is_refused() {
    let arrays = |depth: usize| "[".repeat(depth) + "0" + &"]".repeat(depth);
    let objects = |depth: usize| "{\"a\": ".repeat(depth) + "0" + &"}".repeat(depth);
    for nested in [arrays, objects] {
        assert!(Json::parse(&nested(64)).is_ok());
        let err = Json::parse(&nested(65)).unwrap_err();
        assert!(err.contains("nesting deeper than 64"), "{err}");
        for depth in [64, 65, 100_000] {
            // Well-formed or not, a deep document is no request or response.
            let doc = nested(depth);
            assert_eq!(decode(&doc), 0);
            let field = format!("{{\"op\": \"map\", \"status\": \"ok\", \"graph\": {doc}}}");
            assert_eq!(decode(&field), 0);
            assert_eq!(read_all(&frame(field.as_bytes())).unwrap(), [field]);
        }
    }
}

#[test]
fn overflowing_numbers_are_refused_or_read_as_infinite() {
    for (from, to) in [
        ("\"nh\": 10", "\"nh\": 18446744073709551616"),
        ("\"seed\": 7", "\"seed\": 18446744073709551616"),
        ("\"deadline_ms\": 250", "\"deadline_ms\": 1e400"),
        (
            "\"num_vertices\": 4",
            "\"num_vertices\": 18446744073709551616",
        ),
        ("[2, 3, 5]", "[2, 4294967296, 5]"),
        ("[2, 3, 5]", "[2, 3, 18446744073709551616]"),
        ("\"nh\": 10", "\"nh\": -1"),
    ] {
        assert!(MAP_REQUEST.contains(from), "{from}");
        assert!(
            Request::from_json(&MAP_REQUEST.replacen(from, to, 1)).is_err(),
            "{to}"
        );
    }
    // An eps of 1e400 reads as +inf, which the service refuses.
    match Request::from_json(&MAP_REQUEST.replacen("\"eps\": 0.03", "\"eps\": 1e400", 1)) {
        Ok(Request::Map(req)) => assert!(req.eps.is_infinite() && check_eps(req.eps).is_err()),
        other => panic!("eps 1e400: {other:?}"),
    }
    for (from, to) in [
        ("\"mapping\": [0, 1", "\"mapping\": [4294967296, 1"),
        ("\"coco\": 1000", "\"coco\": 18446744073709551616"),
        ("\"total_swaps\": 812", "\"total_swaps\": 1e400"),
    ] {
        assert!(MAP_RESPONSE.contains(from), "{from}");
        assert!(
            Response::from_json(&MAP_RESPONSE.replacen(from, to, 1)).is_err(),
            "{to}"
        );
    }
    let inf = MAP_RESPONSE.replacen("\"imbalance\": 0.031250", "\"imbalance\": 1e400", 1);
    match Response::from_json(&inf) {
        Ok(Response::Map(resp)) => assert!(resp.initial.imbalance.is_infinite()),
        other => panic!("imbalance 1e400: {other:?}"),
    }
}

#[test]
fn oversized_frame_headers_are_refused_before_allocating() {
    let too_long = (MAX_FRAME_BYTES + 1).to_string();
    let overflow = format!("{}0", usize::MAX);
    for header in [
        too_long.as_str(),
        overflow.as_str(),
        "340282366920938463463374607431768211456",
        "-1",
        "1e3",
    ] {
        let stream = format!("{header}\n{{\"op\": \"ping\"}}\n");
        let err = read_all(stream.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{header}: {err}");
    }
    let err = read_all(format!("{too_long}\n").as_bytes()).unwrap_err();
    assert!(err.to_string().contains("exceeds"), "{err}");
}
