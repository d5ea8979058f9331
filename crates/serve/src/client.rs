//! A minimal blocking HTTP/1.1 client for the [`Server`](crate::Server)
//! frontend: one request per connection, read until the server closes.
//!
//! Tests, benches and examples all talk to the server through this module,
//! and a sharded deployment is driven the same way: N servers, one per
//! shard, with each request sent to `addrs[kucnet_graph::shard_of(user,
//! N)]`. Transport failures come back as `std::io::Error`, and the body
//! readers return `None` on anything they cannot parse, so a caller decides
//! what a failure means.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// A parsed HTTP response: status code and body.
#[derive(Debug)]
pub struct Response {
    /// The HTTP status code.
    pub status: u16,
    /// Everything after the blank line that ends the headers.
    pub body: String,
}

/// Sends one raw HTTP request to `addr` and reads the response until the
/// server closes the connection. A response without a numeric status code
/// is an [`std::io::ErrorKind::InvalidData`] error.
pub fn send(addr: SocketAddr, raw: &str) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(raw.as_bytes())?;
    let mut text = String::new();
    stream.read_to_string(&mut text)?;
    let status = text.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, format!("malformed response: {text}"))
    })?;
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    Ok(Response { status, body })
}

/// `POST`s `body` to `path`.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<Response> {
    let raw = format!(
        "POST {path} HTTP/1.1\r\nHost: kucnet\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    send(addr, &raw)
}

/// `GET`s `path`.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<Response> {
    send(addr, &format!("GET {path} HTTP/1.1\r\nHost: kucnet\r\n\r\n"))
}

/// `POST /recommend` for `user`'s top `top_k` items.
pub fn recommend(addr: SocketAddr, user: u64, top_k: u64) -> std::io::Result<Response> {
    post(addr, "/recommend", &format!("{{\"user\": {user}, \"top_k\": {top_k}}}"))
}

/// The ranked `(item, score)` pairs of a `/recommend` success body, in
/// order. Scores parse back to the exact `f32` the server rendered, since
/// `f32`'s `Display` round-trips.
pub fn items(body: &str) -> Option<Vec<(u32, f32)>> {
    let inner = body.split_once("\"items\":[")?.1.rsplit_once("]}")?.0;
    if inner.is_empty() {
        return Some(Vec::new());
    }
    inner
        .split("},{")
        .map(|entry| {
            let entry = entry.trim_matches(|c| c == '{' || c == '}');
            let (item, score) = entry.split_once(',')?;
            let item = item.strip_prefix("\"item\":")?.parse().ok()?;
            let score = score.strip_prefix("\"score\":")?.parse().ok()?;
            Some((item, score))
        })
        .collect()
}

/// The JSON-unescaped value of the string field `key` in a flat JSON body:
/// the inverse of the server's escaping. `None` when the field is absent,
/// unterminated or carries an escape the server never writes.
pub fn str_field(body: &str, key: &str) -> Option<String> {
    let mut chars = body.split_once(&format!("\"{key}\":\""))?.1.chars();
    let mut out = String::new();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    if hex.len() != 4 || !hex.chars().all(|h| h.is_ascii_hexdigit()) {
                        return None;
                    }
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
    None
}

/// The unsigned integer field `key` of a flat JSON body.
pub fn u64_field(body: &str, key: &str) -> Option<u64> {
    body.split_once(&format!("\"{key}\":"))?
        .1
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// The value of the `/metrics` line `name value` for the series `name`.
pub fn metric(body: &str, name: &str) -> Option<f64> {
    body.lines().find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use proptest::prelude::*;

    use super::*;
    use crate::batch::ScoredReply;
    use crate::cache::CacheStats;
    use crate::http::json_escape;
    use crate::{BatcherStats, ServeMetrics};

    #[test]
    fn items_reads_a_rendered_ranking_bit_for_bit() {
        let ranking = vec![(7, 1.5), (2, 0.1), (9, -3.25e-7), (4, f32::MIN_POSITIVE)];
        let reply = ScoredReply {
            variant: 0,
            variant_name: Arc::from("default"),
            model_version: 1,
            ranking: ranking.clone(),
        };
        let body = crate::server::render_ranking(3, 4, &reply);
        let parsed = items(&body).expect("items array");
        let bits = |r: &[(u32, f32)]| r.iter().map(|&(i, s)| (i, s.to_bits())).collect::<Vec<_>>();
        assert_eq!(bits(&parsed), bits(&ranking));
        assert_eq!(u64_field(&body, "model_version"), Some(1));
        assert_eq!(str_field(&body, "variant").as_deref(), Some("default"));
        assert_eq!(items("{\"items\":[]}"), Some(Vec::new()));
        assert_eq!(items("{\"error\":\"x\"}"), None);
    }

    #[test]
    fn metric_reads_a_rendered_metrics_body() {
        let metrics = ServeMetrics::new();
        metrics.record_request();
        metrics.record_request();
        metrics.record_error();
        let stats = BatcherStats { workers_alive: 3, ..BatcherStats::default() };
        let body = metrics.render(&CacheStats::default(), &stats, 5);
        assert_eq!(metric(&body, "kucnet_requests_total"), Some(2.0), "{body}");
        assert_eq!(metric(&body, "kucnet_workers_alive"), Some(3.0), "{body}");
        assert_eq!(metric(&body, "kucnet_graph_epoch"), Some(5.0), "{body}");
        // A name is a whole series name, never a prefix of a longer one.
        assert_eq!(metric(&body, "kucnet_requests"), None, "{body}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn str_field_inverts_json_escape(
            code_points in proptest::collection::vec(
                prop_oneof![0u32..0x80, 0u32..0x11_0000],
                0..48,
            ),
        ) {
            let s: String = code_points.into_iter().filter_map(char::from_u32).collect();
            let body = format!("{{\"k\":\"{}\",\"n\":1}}", json_escape(&s));
            prop_assert_eq!(str_field(&body, "k"), Some(s.clone()), "{:?}", body);
        }
    }
}
