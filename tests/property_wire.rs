//! Fuzzing the serve line protocol with arbitrary byte lines.
//!
//! `wire::serve_connection` reads raw lines, so any byte sequence —
//! including one that is not UTF-8 — must earn at most one `ERR` reply and
//! leave the connection up. Each case mixes arbitrary lines with valid
//! `RUN` lines and ends with `FLUSH` and `STATS`; the replies must match a
//! line-by-line model exactly: one `ID` per accepted `RUN`, one `ERR` per
//! other non-blank line, and a `FLUSH` that returns exactly the accepted
//! ids.
//!
//! Runs on the in-tree `kset-prop` harness; a failure prints a
//! `KSET_PROP_SEED` replay line (see `ARCHITECTURE.md`).

use kset_prop::{bools, in_range, prop_assert_eq, vec_exact, vec_in, Runner};

use kset::serve::wire::{serve_connection, ConnStats};
use kset::serve::{ServeConfig, Server, Workload};

/// Commands the server knows; an arbitrary line must not spell one.
const COMMANDS: [&str; 4] = ["RUN", "FLUSH", "STATS", "QUIT"];

/// Whether the model expects an `ERR` reply to an arbitrary line: every
/// line earns one except a blank UTF-8 line, which earns nothing.
fn earns_err(line: &[u8]) -> bool {
    !std::str::from_utf8(line).is_ok_and(|text| text.trim().is_empty())
}

/// Makes `bytes` an arbitrary line that is never a known command: no
/// newline inside, and a leading `0xff` if it would otherwise read as one.
fn arbitrary_line(bytes: &[u16]) -> Vec<u8> {
    let mut line: Vec<u8> = bytes
        .iter()
        .map(|&b| {
            if b == u16::from(b'\n') {
                b'\r'
            } else {
                b as u8
            }
        })
        .collect();
    if let Ok(text) = std::str::from_utf8(&line) {
        let command = text.split_whitespace().next().unwrap_or("");
        if COMMANDS.contains(&command) {
            line.insert(0, 0xff);
        }
    }
    line
}

type Line = (bool, Vec<u16>, Vec<u64>);

#[test]
fn arbitrary_lines_never_end_the_connection_early() {
    Runner::new("arbitrary_lines_never_end_the_connection_early")
        .cases(64)
        .run(
            vec_in(
                (
                    bools(),
                    vec_in(in_range(0u16..256), 0..12),
                    vec_exact(in_range(0u64..4), 3),
                ),
                0..24,
            ),
            |lines: Vec<Line>| {
                // The script, and the replies the model expects for it with
                // `ERR` reasons and decided values left out.
                let mut script = Vec::new();
                let mut expected = Vec::new();
                let mut runs = 0u64;
                for (is_run, bytes, inputs) in &lines {
                    if *is_run {
                        let csv: Vec<String> = inputs.iter().map(u64::to_string).collect();
                        script.extend_from_slice(format!("RUN {}", csv.join(",")).as_bytes());
                        expected.push(format!("ID {runs}"));
                        runs += 1;
                    } else {
                        let line = arbitrary_line(bytes);
                        if earns_err(&line) {
                            expected.push("ERR".to_string());
                        }
                        script.extend_from_slice(&line);
                    }
                    script.push(b'\n');
                }
                script.extend_from_slice(b"FLUSH\nSTATS\n");
                expected.extend((0..runs).map(|id| format!("DECIDED {id}")));
                expected.push(format!("OK {runs}"));
                expected.push(format!("STATS proposed={runs} flushed={runs} orphaned=0"));

                let server = Server::start(ServeConfig::new(Workload::flood_min(3, 1)));
                let client = server.client();
                let mut reply = Vec::new();
                let stats = serve_connection(&server, &client, script.as_slice(), &mut reply)
                    .expect("in-memory streams do not fail");
                drop(client);
                server.shutdown();

                let reply = String::from_utf8(reply).expect("replies are UTF-8");
                let replies: Vec<String> = reply
                    .lines()
                    .map(|line| {
                        if line.starts_with("ERR ") {
                            "ERR".to_string()
                        } else if line.starts_with("DECIDED ") {
                            line.split(' ').take(2).collect::<Vec<_>>().join(" ")
                        } else {
                            line.to_string()
                        }
                    })
                    .collect();
                prop_assert_eq!(replies, expected, "raw replies: {reply}");
                prop_assert_eq!(
                    stats,
                    ConnStats {
                        proposed: runs,
                        flushed: runs,
                        orphaned: 0
                    }
                );
                Ok(())
            },
        );
}
