//! Property tests for the JSON codec, URL encoding, and HTTP framing.

use proptest::collection::{btree_map, vec};
use proptest::prelude::*;

use steam_net::http::{read_request, write_request, Request};
use steam_net::json::Json;
use steam_net::url::{build_target, decode, parse_query, split_target};

fn arb_json() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        // Finite, exactly-representable numbers round-trip through text.
        (-1e9f64..1e9).prop_map(|n| Json::Num((n * 100.0).round() / 100.0)),
        "[a-zA-Z0-9 _\\-\"\\\\\n\t😀é]{0,20}".prop_map(Json::Str),
    ];
    leaf.prop_recursive(4, 64, 8, |inner| {
        prop_oneof![
            vec(inner.clone(), 0..6).prop_map(Json::Arr),
            btree_map("[a-z]{1,8}", inner, 0..6).prop_map(Json::Obj),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn json_round_trips(v in arb_json()) {
        let text = v.to_text();
        let back = Json::parse(&text).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn json_parse_never_panics(s in "\\PC{0,64}") {
        let _ = Json::parse(&s);
    }

    #[test]
    fn json_reserialization_is_fixed_point(v in arb_json()) {
        let once = v.to_text();
        let twice = Json::parse(&once).unwrap().to_text();
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn url_encode_decode_round_trips(s in "\\PC{0,40}") {
        let path = format!("/{s}");
        let (back, query) = split_target(&build_target(&path, &[(&s, &s)]));
        prop_assert_eq!(back, path);
        prop_assert_eq!(query, vec![(s.clone(), s)]);
    }

    #[test]
    fn url_decode_never_panics(s in "\\PC{0,40}") {
        let _ = decode(&s);
        let _ = parse_query(&s);
    }

    #[test]
    fn http_request_round_trips(
        path_segs in vec("[a-zA-Z0-9]{1,8}", 1..4),
        params in vec(("[a-z]{1,6}", "[a-zA-Z0-9 ,&=%]{0,12}"), 0..5),
        body in vec(any::<u8>(), 0..64),
    ) {
        let mut req = Request::get(&format!("/{}", path_segs.join("/")));
        for (k, v) in &params {
            req.query.push((k.clone(), v.clone()));
        }
        req.body = body.clone();
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();
        let mut reader = std::io::BufReader::new(&wire[..]);
        let back = read_request(&mut reader).unwrap().unwrap();
        prop_assert_eq!(back.path, req.path);
        prop_assert_eq!(back.query, req.query);
        prop_assert_eq!(back.body, body);
    }
}
