//! Differential and fuzz tests for `http::read_request`'s head framing.
//!
//! The oracle is the original framer: it takes the request head one byte
//! at a time, here over an in-memory `&[u8]` instead of a socket. Every
//! case writes a byte stream to a real loopback connection (in seeded
//! chunk splits, with short pauses) and frames it with `read_request`
//! until the connection stops being framed. Each call must return exactly
//! the oracle's outcome, and after the last call the socket must still
//! hold exactly the bytes the oracle did not consume: the reader never
//! takes a byte of the request that follows.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

use timekd_serve::http::{read_request, ReadOutcome, Request};
use timekd_tensor::{seeded_rng, SeededRng};

/// The reader's head cap (`http::MAX_HEAD_BYTES`).
const MAX_HEAD: usize = 8 * 1024;
/// Body cap for every case: small, so the 413 paths are cheap to reach.
const MAX_BODY: usize = 64;
/// Oversized bodies up to this multiple of the cap are drained.
const DRAIN_FACTOR: usize = 4;

/// The byte-at-a-time framer over a slice: the outcome of framing the
/// first request in `raw`, and how many bytes of `raw` it consumed.
fn oracle(raw: &[u8], max_body: usize) -> (ReadOutcome, usize) {
    let mut pos = 0usize;
    let mut head: Vec<u8> = Vec::new();
    loop {
        let Some(&b) = raw.get(pos) else {
            let outcome = if head.is_empty() {
                ReadOutcome::Closed
            } else {
                ReadOutcome::Malformed("eof inside request head".to_string())
            };
            return (outcome, pos);
        };
        pos += 1;
        head.push(b);
        if head.ends_with(b"\r\n\r\n") {
            break;
        }
        if head.len() > MAX_HEAD {
            return (
                ReadOutcome::Malformed("request head too large".to_string()),
                pos,
            );
        }
    }
    let malformed = |msg: String| (ReadOutcome::Malformed(msg), pos);
    let Ok(head) = std::str::from_utf8(&head) else {
        return malformed("non-utf8 request head".to_string());
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, path, proto) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => return malformed(format!("bad request line `{request_line}`")),
    };
    if !proto.starts_with("HTTP/1.") {
        return malformed(format!("unsupported protocol `{proto}`"));
    }
    let mut content_length = 0usize;
    let mut keep_alive = !proto.eq_ignore_ascii_case("HTTP/1.0");
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return malformed(format!("bad header line `{line}`"));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            match value.parse::<usize>() {
                Ok(n) => content_length = n,
                Err(_) => return malformed(format!("bad content-length `{value}`")),
            }
        } else if name == "connection" {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }
    let rest = raw.len() - pos;
    if content_length > max_body {
        let drained = if content_length <= max_body * DRAIN_FACTOR {
            let take = content_length.min(rest);
            pos += take;
            take == content_length
        } else {
            false
        };
        let outcome = ReadOutcome::TooLarge {
            declared: content_length,
            drained,
            keep_alive,
        };
        return (outcome, pos);
    }
    if rest < content_length {
        return (
            ReadOutcome::Malformed("eof inside request body".to_string()),
            raw.len(),
        );
    }
    let body = raw[pos..pos + content_length].to_vec();
    let request = Request {
        method: method.to_string(),
        path: path.to_string(),
        body,
        keep_alive,
    };
    (ReadOutcome::Request(request), pos + content_length)
}

/// Whether the connection is still framed after `outcome`.
fn continues(outcome: &ReadOutcome) -> bool {
    matches!(
        outcome,
        ReadOutcome::Request(_) | ReadOutcome::TooLarge { drained: true, .. }
    )
}

/// Writes `raw` to a loopback connection in pieces cut at `splits`,
/// pausing `pause` before each piece after the first, then half-closes.
/// Frames it with `read_request` and checks every outcome and the bytes
/// left behind against the oracle. Returns the outcomes.
fn check(raw: &[u8], splits: &[usize], pause: Duration, label: &str) -> Vec<ReadOutcome> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
    client.set_nodelay(true).expect("nodelay");
    let (mut server, _) = listener.accept().expect("accept");
    // Short ticks: pauses exercise the timeout paths, and the stall budget
    // (200 ticks, 1 s here) stays far above any pause.
    server
        .set_read_timeout(Some(Duration::from_millis(5)))
        .expect("timeout");

    let mut pieces: Vec<Vec<u8>> = Vec::new();
    let mut at = 0usize;
    for &cut in splits.iter().chain([raw.len()].iter()) {
        let cut = cut.clamp(at, raw.len());
        if cut > at {
            pieces.push(raw[at..cut].to_vec());
            at = cut;
        }
    }
    let writer = thread::spawn(move || {
        for (i, piece) in pieces.iter().enumerate() {
            if i > 0 && !pause.is_zero() {
                thread::sleep(pause);
            }
            client.write_all(piece).expect("write");
        }
        client.shutdown(Shutdown::Write).expect("half-close");
        client
    });

    let mut outcomes = Vec::new();
    let mut pos = 0usize;
    loop {
        let got = loop {
            // The server loop retries an idle tick; so does the test.
            match read_request(&mut server, MAX_BODY) {
                ReadOutcome::Idle => continue,
                other => break other,
            }
        };
        let (want, used) = oracle(&raw[pos..], MAX_BODY);
        assert_eq!(
            got,
            want,
            "{label}: request {} at byte {pos}",
            outcomes.len()
        );
        pos += used;
        let more = continues(&got);
        outcomes.push(got);
        if !more {
            break;
        }
    }

    let mut rest = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match server.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => rest.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => panic!("{label}: read error {e}"),
        }
    }
    drop(writer.join().expect("writer"));
    assert!(
        rest == raw[pos..],
        "{label}: {} bytes left on the socket, oracle left {}",
        rest.len(),
        raw.len() - pos
    );
    outcomes
}

/// `check` with the whole stream in one write.
fn check_whole(raw: &[u8], label: &str) -> Vec<ReadOutcome> {
    check(raw, &[], Duration::ZERO, label)
}

fn pick<'a>(rng: &mut SeededRng, items: &[&'a str]) -> &'a str {
    items[rng.gen_range(0..items.len())]
}

fn token(rng: &mut SeededRng, len: usize) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.";
    (0..len)
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char)
        .collect()
}

/// One request with a random header set: random method, path, protocol,
/// header order, name case and spacing, and a body that fits, is drained
/// as too large, or is too large to drain.
fn random_request(rng: &mut SeededRng) -> Vec<u8> {
    let method = pick(rng, &["GET", "POST", "PUT", "DELETE"]);
    let path = pick(
        rng,
        &["/forecast", "/observe", "/metrics", "/healthz", "/a/b"],
    );
    let proto = pick(rng, &["HTTP/1.1", "HTTP/1.1", "HTTP/1.0"]);
    let body_len = match rng.gen_range(0..10u32) {
        0..=5 => rng.gen_range(0..=MAX_BODY),
        6..=7 => rng.gen_range(MAX_BODY + 1..=MAX_BODY * DRAIN_FACTOR),
        8 => MAX_BODY * DRAIN_FACTOR + 1,
        _ => 0,
    };
    let mut headers: Vec<String> = Vec::new();
    if body_len > 0 || rng.gen::<bool>() {
        let name = pick(rng, &["Content-Length", "content-length", "CONTENT-LENGTH"]);
        let pad = pick(rng, &["", " ", "  "]);
        headers.push(format!("{name}:{pad}{body_len}{pad}"));
    }
    if rng.gen::<bool>() {
        let value = pick(
            rng,
            &["close", "keep-alive", "Keep-Alive", "CLOSE", "upgrade"],
        );
        headers.push(format!("Connection: {value}"));
    }
    for _ in 0..rng.gen_range(0..5usize) {
        let name_len = rng.gen_range(1..12usize);
        let value_len = rng.gen_range(0..40usize);
        headers.push(format!(
            "X-{}: {}",
            token(rng, name_len),
            token(rng, value_len)
        ));
    }
    for i in (1..headers.len()).rev() {
        headers.swap(i, rng.gen_range(0..=i));
    }
    let mut raw = format!("{method} {path} {proto}\r\n").into_bytes();
    for header in &headers {
        raw.extend_from_slice(header.as_bytes());
        raw.extend_from_slice(b"\r\n");
    }
    raw.extend_from_slice(b"\r\n");
    raw.extend((0..body_len).map(|_| rng.gen_range(0..=255u32) as u8));
    raw
}

/// A stream of 1-3 random requests back to back.
fn random_stream(rng: &mut SeededRng) -> Vec<u8> {
    let n = rng.gen_range(1..=3usize);
    (0..n).flat_map(|_| random_request(rng)).collect()
}

/// Sorted random cut points inside `len` bytes.
fn random_splits(rng: &mut SeededRng, len: usize, max_cuts: usize) -> Vec<usize> {
    let mut cuts: Vec<usize> = (0..rng.gen_range(1..=max_cuts))
        .map(|_| rng.gen_range(0..=len))
        .collect();
    cuts.sort_unstable();
    cuts
}

/// A request whose head is exactly `len` bytes, terminator included.
fn head_of_len(len: usize) -> Vec<u8> {
    let prefix = "GET /healthz HTTP/1.1\r\nX-Pad: ";
    let pad = len - prefix.len() - 4;
    let mut raw = prefix.as_bytes().to_vec();
    raw.extend(std::iter::repeat_n(b'p', pad));
    raw.extend_from_slice(b"\r\n\r\n");
    assert_eq!(raw.len(), len);
    raw
}

#[test]
fn random_header_sets_frame_like_the_oracle() {
    let mut rng = seeded_rng(0x4854_5450);
    for case in 0..200 {
        let raw = random_stream(&mut rng);
        check_whole(&raw, &format!("headers case {case}"));
    }
}

#[test]
fn pipelined_requests_in_one_write_frame_intact() {
    let mut rng = seeded_rng(0x5049_5045);
    for case in 0..100 {
        let first = random_request(&mut rng);
        let second = b"POST /observe HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello".to_vec();
        let raw = [first, second].concat();
        let outcomes = check_whole(&raw, &format!("pipelined case {case}"));
        if continues(&outcomes[0]) {
            match &outcomes[1] {
                ReadOutcome::Request(req) => {
                    assert_eq!(req.path, "/observe", "case {case}");
                    assert_eq!(req.body, b"hello", "case {case}");
                }
                other => panic!("case {case}: second request lost: {other:?}"),
            }
        }
    }
}

#[test]
fn chunked_streams_with_pauses_frame_like_the_oracle() {
    let mut rng = seeded_rng(0x4348_554e);
    for case in 0..60 {
        let raw = random_stream(&mut rng);
        let splits = random_splits(&mut rng, raw.len(), 6);
        let pause = Duration::from_micros(rng.gen_range(0..1500u64));
        check(&raw, &splits, pause, &format!("chunked case {case}"));
    }
}

#[test]
fn terminator_straddling_a_chunk_boundary_is_found() {
    let raw =
        b"POST /forecast HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyzGET /healthz HTTP/1.1\r\n\r\n";
    let head_len = raw.windows(4).position(|w| w == b"\r\n\r\n").expect("head") + 4;
    for cut in head_len - 4..=head_len {
        for pause_us in [0u64, 2_000] {
            let outcomes = check(
                raw,
                &[cut],
                Duration::from_micros(pause_us),
                &format!("straddle cut {cut}"),
            );
            assert_eq!(outcomes.len(), 3, "two requests then a clean close");
            assert!(matches!(&outcomes[0], ReadOutcome::Request(r) if r.body == b"xyz"));
            assert!(matches!(&outcomes[1], ReadOutcome::Request(r) if r.path == "/healthz"));
            assert_eq!(outcomes[2], ReadOutcome::Closed);
        }
    }
    // Every byte its own piece: the terminator arrives one byte per peek.
    let splits: Vec<usize> = (1..raw.len()).collect();
    check(
        raw,
        &splits,
        Duration::from_micros(200),
        "one byte per piece",
    );
}

#[test]
fn head_cap_boundaries_match_the_oracle() {
    let mut rng = seeded_rng(0x4341_5053);
    for len in [MAX_HEAD - 1, MAX_HEAD, MAX_HEAD + 1, MAX_HEAD + 2] {
        let raw = [head_of_len(len), b"GET /next HTTP/1.1\r\n\r\n".to_vec()].concat();
        let whole = check_whole(&raw, &format!("head of {len} bytes"));
        if len <= MAX_HEAD {
            assert!(
                matches!(whole[0], ReadOutcome::Request(_)),
                "{len}: {:?}",
                whole[0]
            );
            assert!(matches!(&whole[1], ReadOutcome::Request(r) if r.path == "/next"));
        }
        if len == MAX_HEAD + 2 {
            assert_eq!(
                whole[0],
                ReadOutcome::Malformed("request head too large".to_string())
            );
        }
        let splits = random_splits(&mut rng, raw.len(), 4);
        check(
            &raw,
            &splits,
            Duration::from_micros(300),
            &format!("split head of {len}"),
        );
    }
    // A head that never ends stops at the cap, not at EOF.
    let endless = vec![b'a'; 3 * MAX_HEAD];
    let out = check_whole(&endless, "endless head");
    assert_eq!(
        out[0],
        ReadOutcome::Malformed("request head too large".to_string())
    );
}

#[test]
fn eof_inside_the_head_is_malformed() {
    let mut rng = seeded_rng(0x454f_4648);
    let raw = b"POST /observe HTTP/1.1\r\nContent-Length: 2\r\n\r\nok";
    let head_len = raw.len() - 2;
    for cut in 0..head_len {
        let out = check_whole(&raw[..cut], &format!("eof at {cut}"));
        let want = if cut == 0 {
            ReadOutcome::Closed
        } else {
            ReadOutcome::Malformed("eof inside request head".to_string())
        };
        assert_eq!(out, vec![want], "cut {cut}");
    }
    for case in 0..40 {
        let full = random_stream(&mut rng);
        let cut = rng.gen_range(0..=full.len());
        let splits = random_splits(&mut rng, cut, 3);
        check(
            &full[..cut],
            &splits,
            Duration::from_micros(100),
            &format!("eof case {case}"),
        );
    }
}

#[test]
fn mutated_streams_never_panic_and_match_the_oracle() {
    let mut rng = seeded_rng(0x4d55_5441);
    let noise: &[u8] = b"\r\n: /HTTP1.0-9 \x00\xff\xc3";
    for case in 0..300 {
        let mut raw = random_stream(&mut rng);
        for _ in 0..rng.gen_range(1..=4usize) {
            let at = rng.gen_range(0..=raw.len());
            let byte = if rng.gen::<bool>() {
                noise[rng.gen_range(0..noise.len())]
            } else {
                rng.gen_range(0..=255u32) as u8
            };
            match rng.gen_range(0..3u32) {
                0 if at < raw.len() => raw[at] ^= 1 << rng.gen_range(0..8u32),
                1 => raw.insert(at, byte),
                _ if at < raw.len() => {
                    raw.remove(at);
                }
                _ => raw.push(byte),
            }
        }
        if case % 3 == 0 {
            let splits = random_splits(&mut rng, raw.len(), 4);
            check(
                &raw,
                &splits,
                Duration::from_micros(200),
                &format!("mutant case {case}"),
            );
        } else {
            check_whole(&raw, &format!("mutant case {case}"));
        }
    }
}
