//! Percent-encoding and query-string handling for the API's URL surface.

const HEX: &[u8; 16] = b"0123456789ABCDEF";

/// Appends `s` percent-encoded: RFC 3986 unreserved characters pass
/// through, every other byte becomes `%XX`.
fn push_encoded(out: &mut String, s: &str) {
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => {
                out.push('%');
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xF)] as char);
            }
        }
    }
}

/// Percent-decodes; invalid escapes are passed through literally ('+' decodes
/// to space as in form encoding).
pub fn decode(s: &str) -> String {
    if !s.bytes().any(|b| b == b'%' || b == b'+') {
        return s.to_string();
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let pair = (
                    bytes.get(i + 1).and_then(|b| (*b as char).to_digit(16)),
                    bytes.get(i + 2).and_then(|b| (*b as char).to_digit(16)),
                );
                if let (Some(h), Some(l)) = pair {
                    out.push((h * 16 + l) as u8);
                    i += 3;
                } else {
                    out.push(b'%');
                    i += 1;
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    match String::from_utf8(out) {
        Ok(text) => text,
        Err(e) => String::from_utf8_lossy(e.as_bytes()).into_owned(),
    }
}

/// Splits a request target into `(path, query pairs)`.
pub fn split_target(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (decode(target), Vec::new()),
        Some((path, query)) => (decode(path), parse_query(query)),
    }
}

/// Parses `a=1&b=two` into pairs, decoding both sides.
pub fn parse_query(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('=') {
            Some((k, v)) => (decode(k), decode(v)),
            None => (decode(part), String::new()),
        })
        .collect()
}

/// Builds a request target in one `String`: the path percent-encoded
/// segment by segment (`/` separators kept), then `?` and the `k=v` pairs
/// joined by `&`, both sides encoded, when there are pairs.
pub fn build_target(path: &str, pairs: &[(&str, &str)]) -> String {
    let mut out = String::with_capacity(path.len() + 16);
    for (i, segment) in path.split('/').enumerate() {
        if i > 0 {
            out.push('/');
        }
        push_encoded(&mut out, segment);
    }
    for (i, (k, v)) in pairs.iter().enumerate() {
        out.push(if i == 0 { '?' } else { '&' });
        push_encoded(&mut out, k);
        out.push('=');
        push_encoded(&mut out, v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        for s in ["hello", "a b&c=d", "steam id/76561", "héllo😀", "100%"] {
            let built = build_target(&format!("/{s}"), &[(s, s)]);
            let (path, query) = split_target(&built);
            assert_eq!(path, format!("/{s}"), "{s}");
            assert_eq!(query, vec![(s.to_string(), s.to_string())], "{s}");
        }
    }

    #[test]
    fn unreserved_untouched() {
        assert_eq!(build_target("AZaz09-_.~", &[]), "AZaz09-_.~");
        assert_eq!(build_target(" ", &[]), "%20");
    }

    #[test]
    fn plus_decodes_to_space() {
        assert_eq!(decode("a+b"), "a b");
    }

    #[test]
    fn invalid_escapes_pass_through() {
        assert_eq!(decode("%"), "%");
        assert_eq!(decode("%z9"), "%z9");
        assert_eq!(decode("%4"), "%4");
    }

    #[test]
    fn query_parsing() {
        let q = parse_query("key=abc&steamids=1%2C2&flag&empty=");
        assert_eq!(
            q,
            vec![
                ("key".to_string(), "abc".to_string()),
                ("steamids".to_string(), "1,2".to_string()),
                ("flag".to_string(), String::new()),
                ("empty".to_string(), String::new()),
            ]
        );
        assert!(parse_query("").is_empty());
    }

    #[test]
    fn target_splitting() {
        let (path, q) = split_target("/ISteamUser/GetFriendList/v1?steamid=5");
        assert_eq!(path, "/ISteamUser/GetFriendList/v1");
        assert_eq!(q, vec![("steamid".to_string(), "5".to_string())]);
        let (path, q) = split_target("/plain");
        assert_eq!(path, "/plain");
        assert!(q.is_empty());
    }

    #[test]
    fn encoding_escapes_every_byte_outside_the_unreserved_set() {
        assert_eq!(
            build_target("/", &[("k", ",/?%é\u{7f}\u{0}")]),
            "/?k=%2C%2F%3F%25%C3%A9%7F%00"
        );
        assert_eq!(build_target("/a b/c,d/", &[]), "/a%20b/c%2Cd/");
        assert_eq!(build_target("/p q", &[]), "/p%20q");
        assert_eq!(
            build_target("/p", &[("k", "1,2"), ("x y", "")]),
            "/p?k=1%2C2&x%20y="
        );
        assert_eq!(decode("plain"), "plain");
        assert_eq!(decode("%ff%C3%A9"), "\u{fffd}é");
    }

    #[test]
    fn build_and_parse_round_trip() {
        let built = build_target("/p q", &[("a b", "1&2"), ("c", "~")]);
        let (path, parsed) = split_target(&built);
        assert_eq!(path, "/p q");
        assert_eq!(
            parsed,
            vec![
                ("a b".to_string(), "1&2".to_string()),
                ("c".to_string(), "~".to_string())
            ]
        );
    }
}
