//! A minimal HTTP/1.1 client over `std::net`: one request per connection,
//! as the server answers one request per connection and closes.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Client-side limit on connecting, sending and reading one reply; a
/// request that exceeds it counts as failed.
pub const TIMEOUT: Duration = Duration::from_secs(10);

/// A parsed reply: status code and body.
pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// Sends one request and reads the whole reply.
pub fn send(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    stream.set_nodelay(true)?;
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes())?;
    let mut text = String::new();
    stream.read_to_string(&mut text)?;
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("reply has no status line"))?;
    let body = text.split_once("\r\n\r\n").map_or("", |(_, b)| b).to_string();
    Ok(Reply { status, body })
}

/// `POST /recommend` for `user` with `top_k` items.
pub fn recommend(addr: SocketAddr, user: u32, top_k: usize) -> std::io::Result<Reply> {
    send(addr, "POST", "/recommend", &format!("{{\"user\":{user},\"top_k\":{top_k}}}"))
}

/// Parses the `items` array of a `/recommend` reply into `(item, score)`
/// pairs, in served order. Scores round-trip exactly: the server prints
/// the shortest decimal that parses back to the same `f32`.
pub fn parse_items(body: &str) -> Option<Vec<(u32, f32)>> {
    let list = body.split_once("\"items\":[")?.1;
    let list = list.rsplit_once(']')?.0;
    let mut out = Vec::new();
    for entry in list.split('}') {
        let entry = entry.trim_start_matches(',').trim_start_matches('{');
        if entry.is_empty() {
            continue;
        }
        let item = field(entry, "\"item\":")?.parse().ok()?;
        let score = field(entry, "\"score\":")?.parse().ok()?;
        out.push((item, score));
    }
    Some(out)
}

fn field<'a>(entry: &'a str, key: &str) -> Option<&'a str> {
    let rest = entry.split_once(key)?.1;
    Some(rest.split(',').next()?.trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_ranked_items() {
        let body = "{\"user\":3,\"top_k\":2,\"variant\":\"default\",\"model_version\":1,\
                    \"items\":[{\"item\":7,\"score\":0.25},{\"item\":1,\"score\":-1e-7}]}";
        assert_eq!(parse_items(body), Some(vec![(7, 0.25), (1, -1e-7)]));
        assert_eq!(parse_items("{\"items\":[]}"), Some(vec![]));
        assert_eq!(parse_items("{\"error\":\"x\"}"), None);
    }
}
