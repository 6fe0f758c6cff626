//! The wire codecs, held to pinned bytes and to their generic forms.
//!
//! * **Golden frames.** One `E` and one `O` frame, each with times and
//!   payloads at both ends of `i64` and a `u32::MAX` key, pinned byte for
//!   byte in both framings. Re-pin only for an intended format change:
//!   `WIRE_GOLDEN_PRINT=1 cargo test -p impatience-serve --test wire_codec
//!   golden -- --nocapture`.
//! * **Binary round trip** and **truncation**: every batch decodes to
//!   itself; every cut of a small frame is a typed `Protocol` error.
//! * **NDJSON writer**: the bytes written for `events` and `out` frames
//!   are `to_json().to_string()` plus the newline.
//! * **NDJSON scanner**: reading a line agrees with parsing it through
//!   `core::json` and `from_json` — on canonical frames, on perturbed ones
//!   (key order, whitespace, the 3-field point form, keys outside `u32`,
//!   non-integers) and on the protocol fuzzer's attacks.
//!
//! Properties replay with `IMPATIENCE_PROP_SEED=0x<seed>`;
//! `IMPATIENCE_PROP_CASES=N` sets their case count.

use impatience_core::{Event, Json, Timestamp};
use impatience_serve::{
    read_client_frame, read_server_frame, write_client_frame, write_server_frame, ClientFrame,
    ClientMsg, ServeError, ServerFrame, ServerMsg, WireMode,
};
use impatience_testkit::netchaos::WireFuzzer;
use impatience_testkit::prop::{any, vec, Strategy};
use impatience_testkit::rng::{Rng, SeedableRng, StdRng};
use std::io::Cursor;

fn event(sync: i64, other: i64, key: u32, payload: i64) -> Event<i64> {
    let mut e = Event::keyed(Timestamp::new(sync), key, payload);
    e.other_time = Timestamp::new(other);
    e
}

/// The events both golden frames carry: each extreme in each field.
fn extremes() -> Vec<Event<i64>> {
    vec![
        event(i64::MIN, i64::MAX, u32::MAX, i64::MIN),
        event(i64::MAX, i64::MIN, 0, i64::MAX),
        event(-1, 0, 1, -7),
    ]
}

fn golden_client() -> ClientFrame {
    ClientFrame {
        seq: 3,
        ack: 2,
        msg: ClientMsg::Events { batch: extremes() },
    }
}

fn golden_server() -> ServerFrame {
    ServerFrame {
        seq: 3,
        msg: ServerMsg::Out {
            batch: extremes(),
            puncts: vec![Timestamp::new(i64::MIN), Timestamp::new(i64::MAX)],
            completed: true,
        },
    }
}

fn client_bytes(mode: WireMode, frame: &ClientFrame) -> Vec<u8> {
    let mut out = Vec::new();
    write_client_frame(&mut out, mode, frame).expect("write");
    out
}

fn server_bytes(mode: WireMode, frame: &ServerFrame) -> Vec<u8> {
    let mut out = Vec::new();
    write_server_frame(&mut out, mode, frame).expect("write");
    out
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Length prefix, `E`, seq 3, ack 2, count 3, then three 28-byte records
/// (`sync | other | key | payload`, little-endian).
const GOLDEN_E: &str = "690000004503000000000000000200000000000000030000000000000000000080ffffffffffffff7fffffffff0000000000000080ffffffffffffff7f000000000000008000000000ffffffffffffff7fffffffffffffffff000000000000000001000000f9ffffffffffffff";
/// Length prefix, `O`, seq 3, count 3 and the records, two punctuations,
/// completed.
const GOLDEN_O: &str = "760000004f0300000000000000030000000000000000000080ffffffffffffff7fffffffff0000000000000080ffffffffffffff7f000000000000008000000000ffffffffffffff7fffffffffffffffff000000000000000001000000f9ffffffffffffff020000000000000000000080ffffffffffffff7f01";
const GOLDEN_EVENTS_NDJSON: &str = "{\"type\":\"events\",\"batch\":[[-9223372036854775808,9223372036854775807,4294967295,-9223372036854775808],[9223372036854775807,-9223372036854775808,0,9223372036854775807],[-1,0,1,-7]],\"seq\":3,\"ack\":2}\n";
const GOLDEN_OUT_NDJSON: &str = "{\"type\":\"out\",\"batch\":[[-9223372036854775808,9223372036854775807,4294967295,-9223372036854775808],[9223372036854775807,-9223372036854775808,0,9223372036854775807],[-1,0,1,-7]],\"puncts\":[-9223372036854775808,9223372036854775807],\"completed\":true,\"seq\":3}\n";

#[test]
fn golden_frames_are_pinned() {
    let e = client_bytes(WireMode::Binary, &golden_client());
    let o = server_bytes(WireMode::Binary, &golden_server());
    let events = client_bytes(WireMode::Ndjson, &golden_client());
    let out = server_bytes(WireMode::Ndjson, &golden_server());
    let events = String::from_utf8(events).expect("utf-8");
    let out = String::from_utf8(out).expect("utf-8");
    if std::env::var_os("WIRE_GOLDEN_PRINT").is_some() {
        println!("const GOLDEN_E: &str = \"{}\";", hex(&e));
        println!("const GOLDEN_O: &str = \"{}\";", hex(&o));
        println!("const GOLDEN_EVENTS_NDJSON: &str = {:?};", events);
        println!("const GOLDEN_OUT_NDJSON: &str = {:?};", out);
    }
    assert_eq!(hex(&e), GOLDEN_E, "E frame bytes changed");
    assert_eq!(hex(&o), GOLDEN_O, "O frame bytes changed");
    assert_eq!(events, GOLDEN_EVENTS_NDJSON, "events line changed");
    assert_eq!(out, GOLDEN_OUT_NDJSON, "out line changed");
    // And each reads back as what was written.
    for mode in [WireMode::Binary, WireMode::Ndjson] {
        let bytes = client_bytes(mode, &golden_client());
        let back = read_client_frame(&mut Cursor::new(bytes), mode).expect("read");
        assert_eq!(back, Some(golden_client()), "{mode:?}");
        let bytes = server_bytes(mode, &golden_server());
        let back = read_server_frame(&mut Cursor::new(bytes), mode).expect("read");
        assert_eq!(back, Some(golden_server()), "{mode:?}");
    }
}

// ---- strategies ---------------------------------------------------------

/// An `i64` that is often an edge: either end of the range, or small.
fn edgy() -> impl Strategy<Value = i64> {
    (0u8..6, any::<u64>()).prop_map(|(pick, n)| match pick {
        0 => i64::MIN,
        1 => i64::MAX,
        2 => n as i64 % 1_000,
        _ => n as i64,
    })
}

fn batches() -> impl Strategy<Value = Vec<Event<i64>>> {
    let key = (0u8..4, any::<u32>()).prop_map(|(pick, k)| if pick == 0 { u32::MAX } else { k });
    vec(
        (edgy(), edgy(), key, edgy()).prop_map(|(s, o, k, p)| event(s, o, k, p)),
        0..48,
    )
}

fn client_events(seq: u64, ack: u64, batch: Vec<Event<i64>>) -> ClientFrame {
    ClientFrame {
        seq,
        ack,
        msg: ClientMsg::Events { batch },
    }
}

fn server_out(seq: u64, batch: Vec<Event<i64>>, puncts: &[i64], completed: bool) -> ServerFrame {
    ServerFrame {
        seq,
        msg: ServerMsg::Out {
            batch,
            puncts: puncts.iter().map(|t| Timestamp::new(*t)).collect(),
            completed,
        },
    }
}

fn is_protocol<T: std::fmt::Debug>(got: &Result<T, ServeError>) -> bool {
    matches!(got, Err(ServeError::Protocol { .. }))
}

// ---- binary codec -------------------------------------------------------

impatience_testkit::props! {
    cases = 256;

    fn binary_event_frames_round_trip(
        batch in batches(),
        puncts in vec(edgy(), 0..6),
        envelope in (any::<u64>(), any::<u64>()),
        completed in any::<bool>(),
    ) {
        let (seq, ack) = envelope;
        let frame = client_events(seq, ack, batch.clone());
        let bytes = client_bytes(WireMode::Binary, &frame);
        assert_eq!(bytes.len(), 4 + 1 + 16 + 4 + 28 * batch.len());
        let back = read_client_frame(&mut Cursor::new(bytes), WireMode::Binary).expect("read");
        assert_eq!(back, Some(frame));

        let frame = server_out(seq, batch.clone(), &puncts, completed);
        let bytes = server_bytes(WireMode::Binary, &frame);
        assert_eq!(bytes.len(), 4 + 1 + 8 + 4 + 28 * batch.len() + 4 + 8 * puncts.len() + 1);
        let back = read_server_frame(&mut Cursor::new(bytes), WireMode::Binary).expect("read");
        assert_eq!(back, Some(frame));
    }
}

/// A batch past one write stage still goes out as one frame.
#[test]
fn a_batch_larger_than_a_write_stage_round_trips() {
    let batch: Vec<_> = (0..10_000).map(|i| event(i, i + 1, i as u32, -i)).collect();
    let frame = client_events(1, 0, batch.clone());
    let bytes = client_bytes(WireMode::Binary, &frame);
    let back = read_client_frame(&mut Cursor::new(bytes), WireMode::Binary).expect("read");
    assert_eq!(back, Some(frame));
    let frame = server_out(2, batch, &[5, 9], false);
    let bytes = server_bytes(WireMode::Binary, &frame);
    let back = read_server_frame(&mut Cursor::new(bytes), WireMode::Binary).expect("read");
    assert_eq!(back, Some(frame));
}

#[test]
fn every_truncation_of_an_event_frame_is_a_protocol_error() {
    let e = client_bytes(WireMode::Binary, &golden_client());
    let o = server_bytes(WireMode::Binary, &golden_server());
    // The stream ends inside the frame: inside the length prefix or the
    // payload it declares.
    for cut in 1..e.len() {
        let got = read_client_frame(&mut Cursor::new(&e[..cut]), WireMode::Binary);
        assert!(is_protocol(&got), "E cut at {cut}: {got:?}");
    }
    for cut in 1..o.len() {
        let got = read_server_frame(&mut Cursor::new(&o[..cut]), WireMode::Binary);
        assert!(is_protocol(&got), "O cut at {cut}: {got:?}");
    }
    // The frame itself is short: a prefix of the payload, declared as
    // exactly that long.
    let reframed = |payload: &[u8]| {
        let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(payload);
        bytes
    };
    for cut in 1..e.len() - 4 {
        let bytes = reframed(&e[4..4 + cut]);
        let got = read_client_frame(&mut Cursor::new(bytes), WireMode::Binary);
        assert!(is_protocol(&got), "E payload cut at {cut}: {got:?}");
    }
    for cut in 1..o.len() - 4 {
        let bytes = reframed(&o[4..4 + cut]);
        let got = read_server_frame(&mut Cursor::new(bytes), WireMode::Binary);
        assert!(is_protocol(&got), "O payload cut at {cut}: {got:?}");
    }
}

// ---- NDJSON writer ------------------------------------------------------

impatience_testkit::props! {
    cases = 256;

    fn ndjson_event_lines_print_the_json_tree(
        batch in batches(),
        puncts in vec(edgy(), 0..6),
        envelope in (any::<u64>(), any::<u64>(), 0u8..4),
        completed in any::<bool>(),
    ) {
        // Zero envelope fields are left out of the line: draw them often.
        let (seq, ack, zeros) = envelope;
        let (seq, ack) = (seq * u64::from(zeros & 1), ack * u64::from(zeros >> 1));
        let frame = client_events(seq, ack, batch.clone());
        let text = String::from_utf8(client_bytes(WireMode::Ndjson, &frame)).expect("utf-8");
        assert_eq!(text, format!("{}\n", frame.to_json()));

        let frame = server_out(seq, batch, &puncts, completed);
        let text = String::from_utf8(server_bytes(WireMode::Ndjson, &frame)).expect("utf-8");
        assert_eq!(text, format!("{}\n", frame.to_json()));
    }
}

// ---- NDJSON scanner -----------------------------------------------------

/// What the generic path makes of one client line: `core::json`, then
/// `ClientFrame::from_json`.
fn generic_client(line: &str) -> Result<ClientFrame, ServeError> {
    Json::parse(line.trim())
        .map_err(|e| ServeError::Protocol {
            detail: format!("invalid JSON frame: {e:?}"),
        })
        .and_then(|v| ClientFrame::from_json(&v))
}

fn generic_server(line: &str) -> Result<ServerFrame, ServeError> {
    Json::parse(line.trim())
        .map_err(|e| ServeError::Protocol {
            detail: format!("invalid JSON frame: {e:?}"),
        })
        .and_then(|v| ServerFrame::from_json(&v))
}

/// Reading `line` off the wire agrees with the generic path: the same
/// frame, or the same typed error.
fn assert_agrees(line: &str) {
    if line.contains('\n') || line.trim().is_empty() {
        return; // not one frame's line
    }
    let wire = format!("{line}\n");
    let scanned = read_client_frame(&mut Cursor::new(wire.as_bytes()), WireMode::Ndjson)
        .map(|f| f.expect("one line"));
    assert_eq!(scanned, generic_client(line), "client line {line:?}");
    let scanned = read_server_frame(&mut Cursor::new(wire.as_bytes()), WireMode::Ndjson)
        .map(|f| f.expect("one line"));
    assert_eq!(scanned, generic_server(line), "server line {line:?}");
}

/// The object fields of a frame's JSON tree.
fn fields(v: &mut Json) -> &mut Vec<(String, Json)> {
    match v {
        Json::Object(fields) => fields,
        other => panic!("not an object: {other}"),
    }
}

/// One event array of the frame's batch, if it has any.
fn some_event<'a>(v: &'a mut Json, rng: &mut StdRng) -> Option<&'a mut Vec<Json>> {
    let batch = fields(v).iter_mut().find(|(k, _)| k == "batch")?;
    let Json::Array(events) = &mut batch.1 else {
        return None;
    };
    if events.is_empty() {
        return None;
    }
    let at = rng.gen_range(0..events.len());
    match &mut events[at] {
        Json::Array(parts) => Some(parts),
        _ => None,
    }
}

/// `line` with one deviation from the writer's shape, drawn by `rng`;
/// many leave the frame valid, the rest make it one the generic path
/// refuses.
fn perturb(line: &str, rng: &mut StdRng) -> String {
    let mut tree = Json::parse(line).expect("canonical line parses");
    let text = |tree: &Json| tree.to_string();
    match rng.gen_range(0..14u64) {
        0 => line.to_string(),
        1 => {
            // Another key order.
            let f = fields(&mut tree);
            let by = rng.gen_range(1..f.len().max(2)) % f.len();
            f.rotate_left(by);
            text(&tree)
        }
        2 => {
            // Whitespace between tokens.
            let mut out = String::new();
            for c in line.chars() {
                out.push(c);
                if matches!(c, ',' | ':' | '[' | '{') && rng.gen_range(0..3u64) == 0 {
                    out.push_str(if rng.gen_range(0..2u64) == 0 {
                        " "
                    } else {
                        "\t "
                    });
                }
            }
            out
        }
        3 => {
            // The 3-field point form.
            if let Some(parts) = some_event(&mut tree, rng) {
                parts.remove(1);
            }
            text(&tree)
        }
        4 => {
            // A key outside u32, either side.
            if let Some(parts) = some_event(&mut tree, rng) {
                let k = if rng.gen_range(0..2u64) == 0 {
                    1i128 << 32
                } else {
                    -1
                };
                parts[2] = Json::Int(k);
            }
            text(&tree)
        }
        5 => {
            // A non-integer number.
            if let Some(parts) = some_event(&mut tree, rng) {
                let at = rng.gen_range(0..4usize);
                parts[at] = Json::Float(1.5);
            }
            text(&tree)
        }
        6 => {
            // An integer outside i64: just past either end, or in 20 digits.
            if let Some(parts) = some_event(&mut tree, rng) {
                let at = [0usize, 1, 3][rng.gen_range(0..3usize)];
                parts[at] = Json::Int(match rng.gen_range(0..3u64) {
                    0 => i64::MAX as i128 + 1,
                    1 => i64::MIN as i128 - 1,
                    _ => -(u64::MAX as i128),
                });
            }
            text(&tree)
        }
        7 => {
            // Envelope spellings: null, negative, past i64, repeated.
            let f = fields(&mut tree);
            let value = match rng.gen_range(0..3u64) {
                0 => Json::Null,
                1 => Json::Int(-3),
                _ => Json::Int(u64::MAX as i128),
            };
            f.push(("seq".to_string(), value));
            text(&tree)
        }
        8 => {
            // Leading zeros and a negative zero.
            let zeros = if rng.gen_range(0..2u64) == 0 {
                "[00"
            } else {
                "[-0"
            };
            line.replacen("[[", &format!("[{zeros}"), 1)
        }
        9 => {
            // A line cut short.
            let cut = rng.gen_range(0..line.len());
            line[..cut].to_string()
        }
        10 => {
            // One byte swapped for another printable one.
            let mut bytes = line.as_bytes().to_vec();
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = rng.gen_range(0x20..0x7fu64) as u8;
            String::from_utf8(bytes).expect("ascii")
        }
        11 => {
            // A field left out.
            let f = fields(&mut tree);
            let at = rng.gen_range(0..f.len());
            f.remove(at);
            text(&tree)
        }
        12 => {
            // An extra field.
            fields(&mut tree).push(("x".to_string(), Json::Int(1)));
            text(&tree)
        }
        _ => {
            // A number as a string.
            if let Some(parts) = some_event(&mut tree, rng) {
                parts[0] = Json::Str("7".to_string());
            }
            text(&tree)
        }
    }
}

impatience_testkit::props! {
    cases = 512;

    fn ndjson_scanner_agrees_with_the_generic_parser(
        batch in batches(),
        puncts in vec(edgy(), 0..6),
        envelope in (0..i64::MAX as u64, 0..i64::MAX as u64),
        draw in (any::<bool>(), any::<u64>()),
    ) {
        let (seq, ack) = envelope;
        let (completed, seed) = draw;
        let mut rng = StdRng::seed_from_u64(seed);
        let client = client_bytes(WireMode::Ndjson, &client_events(seq, ack, batch.clone()));
        let server = server_bytes(WireMode::Ndjson, &server_out(seq, batch, &puncts, completed));
        let mut lines = Vec::new();
        for line in [client, server] {
            let line = String::from_utf8(line).expect("utf-8");
            let line = line.trim_end().to_string();
            for _ in 0..4 {
                lines.push(perturb(&line, &mut rng));
            }
            lines.push(line);
        }
        for line in &lines {
            assert_agrees(line);
        }
        assert_agrees_in_sequence(&lines);
    }
}

/// Lines read one after another off one stream by `read_*_frame` agree
/// with the generic path line by line.
fn assert_agrees_in_sequence(lines: &[String]) {
    let lines: Vec<&String> = lines
        .iter()
        .filter(|l| !l.contains('\n') && !l.trim().is_empty())
        .collect();
    let wire: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let mut client = Cursor::new(wire.as_bytes());
    let mut server = Cursor::new(wire.as_bytes());
    for line in lines {
        let got = read_client_frame(&mut client, WireMode::Ndjson).map(|f| f.expect("a line"));
        assert_eq!(got, generic_client(line), "client line {line:?}");
        let got = read_server_frame(&mut server, WireMode::Ndjson).map(|f| f.expect("a line"));
        assert_eq!(got, generic_server(line), "server line {line:?}");
    }
    assert_eq!(read_client_frame(&mut client, WireMode::Ndjson), Ok(None));
    assert_eq!(read_server_frame(&mut server, WireMode::Ndjson), Ok(None));
}

/// The protocol fuzzer's attacks (the seed `tests/wire_fuzz.rs` throws
/// at a live server), line by line.
#[test]
fn ndjson_scanner_agrees_on_the_fuzzers_attacks() {
    let mut fuzzer = WireFuzzer::new(0xf022_ed11);
    for _ in 0..600 {
        let attack = fuzzer.next_attack();
        let bytes = attack.bytes.strip_prefix(b"IMPB").unwrap_or(&attack.bytes);
        let lines: Vec<String> = bytes
            .split(|b| *b == b'\n')
            .filter_map(|piece| std::str::from_utf8(piece).ok())
            .map(str::to_string)
            .collect();
        for line in &lines {
            assert_agrees(line);
        }
        assert_agrees_in_sequence(&lines);
    }
}
