//! The wire writers and typed parsers against the tree codec they replaced
//! (`oracle/`): the golden bodies in `fixtures/wire/`, every single-byte
//! flip and every truncation of them, error precedence and nesting depth.

mod oracle;

use std::path::Path;

use oracle::corpus::{corpus, Rec, FILES, PAST_2_53};
use oracle::Parsed;
use steam_api::wire;
use steam_model::SimTime;
use steam_net::json::Json;
use steam_net::NetError;

/// Every fixture body with the records it was written from, file by file.
fn fixtures() -> Vec<(Rec, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wire");
    let recs = corpus();
    let mut out = Vec::new();
    for file in FILES {
        let text = std::fs::read_to_string(dir.join(format!("{file}.jsonl"))).unwrap();
        let mut lines = text.split_terminator('\n');
        for rec in recs.iter().filter(|r| r.file() == file) {
            let line = lines
                .next()
                .unwrap_or_else(|| panic!("{file}: a body is missing"));
            out.push((rec.clone(), line.to_string()));
        }
        assert_eq!(lines.next(), None, "{file}: more bodies than records");
    }
    out
}

/// The typed parser and the oracle agree on `body`: the same records, the
/// same shape error variant, or the same grammar error, offset and message
/// alike. Both tokenize with the one `json::Reader`, so a grammar error is
/// checked for agreement between them only; `json::tests` pins the texts.
fn assert_agree(rec: &Rec, body: &str) {
    assert_eq!(rec.typed(body), rec.oracle(body), "{body:?}");
}

#[test]
fn writers_reproduce_the_golden_bodies_and_parsers_read_them_back() {
    let fixtures = fixtures();
    assert_eq!(fixtures.len(), 1490);
    for (rec, body) in &fixtures {
        assert_eq!(&rec.writer_text(), body, "{rec:?}");
        let expected = rec.expected();
        assert_eq!(rec.typed(body), Ok(expected.clone()), "{body}");
        assert_eq!(rec.oracle(body), Ok(expected), "{body}");
    }
    // Only the time past 2^53 seconds comes back changed, on both sides.
    assert_eq!(
        oracle::via_f64(SimTime::from_unix(PAST_2_53)).unix(),
        1 << 53
    );
    let changed = fixtures
        .iter()
        .filter(|(rec, _)| {
            let records = match rec.clone() {
                Rec::Summaries(a) => Parsed::Summaries(a),
                Rec::Friends(f) => Parsed::Friends(f),
                Rec::AppDetails(mut g) => {
                    g.achievements.clear();
                    Parsed::AppDetails(g)
                }
                _ => return false,
            };
            records != rec.expected()
        })
        .count();
    assert_eq!(changed, 3, "the bodies holding a time past 2^53 seconds");
}

/// Flips each bit but the top one of every byte of the bodies in `files`
/// (the top bit makes an ASCII byte invalid UTF-8, which fails before any
/// parser runs) and checks the two parsers agree on every flipped body
/// that is still UTF-8.
fn flips_agree(files: &[&str]) {
    for (rec, body) in fixtures()
        .iter()
        .filter(|(rec, _)| files.contains(&rec.file()))
    {
        let mut bytes = body.clone().into_bytes();
        for i in 0..bytes.len() {
            let original = bytes[i];
            for bit in 0..7 {
                bytes[i] = original ^ (1 << bit);
                if let Ok(flipped) = std::str::from_utf8(&bytes) {
                    assert_agree(rec, flipped);
                }
            }
            bytes[i] = original;
        }
    }
}

#[test]
fn flips_of_player_bodies_agree_with_the_oracle() {
    flips_agree(&["summaries", "group_lists", "panel"]);
}

#[test]
fn flips_of_friend_lists_agree_with_the_oracle() {
    flips_agree(&["friend_lists"]);
}

#[test]
fn flips_of_owned_games_agree_with_the_oracle() {
    flips_agree(&["owned_games"]);
}

#[test]
fn flips_of_catalog_bodies_agree_with_the_oracle() {
    flips_agree(&["group_pages", "app_list", "app_details"]);
}

#[test]
fn flips_of_achievements_agree_with_the_oracle() {
    flips_agree(&["achievements"]);
}

#[test]
fn truncations_agree_with_the_oracle() {
    for (rec, body) in &fixtures() {
        for cut in (0..body.len()).filter(|&cut| body.is_char_boundary(cut)) {
            assert_agree(rec, &body[..cut]);
        }
    }
}

type Parse = fn(&str) -> Result<(), NetError>;

fn is_grammar(e: &NetError) -> bool {
    matches!(e, NetError::Json { .. })
}

#[test]
fn grammar_errors_win_over_shape_errors() {
    // The shape is wrong at the first value; the grammar breaks later.
    let garbled = r#"{"friendslist":5,#garbage"#;
    assert!(is_grammar(&wire::parse_friend_list(garbled).unwrap_err()));
    let clean = r#"{"friendslist":5}"#;
    assert!(matches!(
        wire::parse_friend_list(clean),
        Err(NetError::Http(_))
    ));
    // Every parser: a shape error followed by trailing text, and alone.
    let cases: [(&str, Parse); 9] = [
        ("response", |b| wire::parse_player_summaries(b).map(drop)),
        ("friendslist", |b| wire::parse_friend_list(b).map(drop)),
        ("response", |b| wire::parse_owned_games(b).map(drop)),
        ("response", |b| wire::parse_group_list(b).map(drop)),
        ("gid", |b| wire::parse_group_page(b).map(drop)),
        ("applist", |b| wire::parse_app_list(b).map(drop)),
        ("data", |b| {
            wire::parse_app_details(steam_model::AppId(1), b).map(drop)
        }),
        ("achievementpercentages", |b| {
            wire::parse_achievement_percentages(b).map(drop)
        }),
        ("days", |b| wire::parse_panel(b).map(drop)),
    ];
    for (key, parse) in cases {
        let shape = format!(r#"{{"{key}":[true]}}"#);
        assert!(matches!(parse(&shape), Err(NetError::Http(_))), "{shape}");
        for tail in [" x", ",", "}", "{", "]"] {
            let body = format!("{shape}{tail}");
            assert!(is_grammar(&parse(&body).unwrap_err()), "{body}");
        }
        let body = format!(r#"{{"{key}":[true],"later":[1,2,]}}"#);
        assert!(is_grammar(&parse(&body).unwrap_err()), "{body}");
    }
}

#[test]
fn nesting_under_an_ignored_key_is_bounded() {
    let nested = |depth: usize| {
        format!(
            r#"{{"friendslist":{{"friends":[]}},"ignored":{}{}}}"#,
            "[".repeat(depth),
            "]".repeat(depth)
        )
    };
    assert_eq!(wire::parse_friend_list(&nested(100)).unwrap(), vec![]);
    let deep = nested(200);
    match wire::parse_friend_list(&deep) {
        Err(NetError::Json { message, .. }) => assert_eq!(message, "nesting too deep"),
        other => panic!("expected the depth error, got {other:?}"),
    }
    assert_eq!(
        wire::parse_friend_list(&deep).unwrap_err().to_string(),
        Json::parse(&deep).unwrap_err().to_string()
    );
    // Deep enough to overflow a recursive reader's stack without the limit.
    let abyss = nested(1_000_000);
    assert!(is_grammar(&wire::parse_friend_list(&abyss).unwrap_err()));
}

#[test]
fn repeated_keys_keep_the_last_occurrence() {
    let body = r#"{"friendslist":{"friends":[{"steamid":"76561197960265729","friend_since":1}]},
                  "friendslist":{"friends":[]}}"#;
    assert_eq!(wire::parse_friend_list(body).unwrap(), vec![]);
    let body = r#"{"response":{"game_count":1,"games":[],"game_count":0}}"#;
    assert_eq!(wire::parse_owned_games(body).unwrap(), vec![]);
    let body = r#"{"gid":"1","name":"a","kind":0,"name":"b"}"#;
    assert_eq!(wire::parse_group_page(body).unwrap().name, "b");
}
