//! Minimal line protocol for driving a [`Server`] over a byte stream.
//!
//! One text command per line:
//!
//! | command              | effect                                                  |
//! |----------------------|---------------------------------------------------------|
//! | `RUN v0,v1,...`      | propose an instance, reply `ID <id>`                    |
//! | `FLUSH`              | wait for the decision of every id this connection       |
//! |                      | proposed and has not flushed yet; reply one `DECIDED`   |
//! |                      | line per instance (ascending id), then `OK <count>`     |
//! | `STATS`              | reply `STATS proposed=<p> flushed=<f> orphaned=<o>`     |
//! | `QUIT` (or EOF)      | close the connection                                    |
//!
//! A decision line looks like `DECIDED 17 terminated=true 0:4 1:4 2:4` —
//! instance id, termination flag, then `process:value` pairs. Malformed or
//! unknown input earns an `ERR <reason>` line and the connection stays up;
//! that includes a line that is not UTF-8 (`ERR invalid utf-8`).
//!
//! The protocol is synchronous and single-tenant by design: the server's
//! decision channel has one consumer, so the `kset-serve` binary serves
//! one connection at a time. The interesting concurrency — millions of
//! in-flight instances — lives behind [`Server`], not in the framing.
//!
//! A connection that proposed and then quit without `FLUSH` leaves its
//! decisions in that channel. `FLUSH` therefore answers only with the ids
//! its own connection proposed: a decision for any other id is an orphan
//! of an earlier connection, and is discarded and counted in `orphaned`.

use std::collections::BTreeSet;
use std::io::{self, BufRead, Write};

use crate::instance::Decision;
use crate::server::{ServeClient, Server};

/// Per-connection totals returned by [`serve_connection`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Instances proposed over this connection.
    pub proposed: u64,
    /// Decisions delivered back over this connection.
    pub flushed: u64,
    /// Decisions discarded while flushing because this connection never
    /// proposed their ids (left behind by an earlier connection).
    pub orphaned: u64,
}

/// Parses a `v0,v1,...` comma-separated input vector.
pub fn parse_inputs(csv: &str) -> Option<Vec<u64>> {
    csv.split(',').map(|part| part.trim().parse::<u64>().ok()).collect()
}

/// Formats one decision as its `DECIDED` wire line (without newline).
pub fn decision_line(decision: &Decision) -> String {
    let mut line = format!(
        "DECIDED {} terminated={}",
        decision.id,
        decision.record.terminated()
    );
    for (&pid, &value) in decision.record.decisions() {
        line.push_str(&format!(" {pid}:{value}"));
    }
    line
}

/// Serves one connection: reads commands from `input`, writes replies to
/// `output`, until `QUIT` or EOF. Returns the connection's totals.
pub fn serve_connection<R: BufRead, W: Write>(
    server: &Server,
    client: &ServeClient,
    mut input: R,
    mut output: W,
) -> io::Result<ConnStats> {
    let mut stats = ConnStats::default();
    // Ids proposed here and not yet flushed.
    let mut outstanding = BTreeSet::new();
    let mut raw = Vec::new();
    loop {
        raw.clear();
        if input.read_until(b'\n', &mut raw)? == 0 {
            break;
        }
        let Ok(line) = std::str::from_utf8(&raw) else {
            writeln!(output, "ERR invalid utf-8")?;
            output.flush()?;
            continue;
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (command, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        match command {
            "RUN" => match parse_inputs(rest) {
                Some(inputs) => match client.propose(inputs) {
                    Ok(id) => {
                        stats.proposed += 1;
                        outstanding.insert(id);
                        writeln!(output, "ID {id}")?;
                    }
                    Err(err) => writeln!(output, "ERR {err}")?,
                },
                None => writeln!(output, "ERR expected RUN v0,v1,...")?,
            },
            "FLUSH" => {
                let mut batch = Vec::with_capacity(outstanding.len());
                while !outstanding.is_empty() {
                    match server.recv_decision() {
                        Some(decision) if outstanding.remove(&decision.id) => batch.push(decision),
                        Some(_) => stats.orphaned += 1,
                        None => break, // workers gone; report what we have
                    }
                }
                batch.sort_by_key(|d| d.id);
                stats.flushed += batch.len() as u64;
                for decision in &batch {
                    writeln!(output, "{}", decision_line(decision))?;
                }
                writeln!(output, "OK {}", batch.len())?;
            }
            "STATS" => {
                writeln!(
                    output,
                    "STATS proposed={} flushed={} orphaned={}",
                    stats.proposed, stats.flushed, stats.orphaned
                )?;
            }
            "QUIT" => break,
            _ => writeln!(output, "ERR unknown command {command}")?,
        }
        output.flush()?;
    }
    output.flush()?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Workload;
    use crate::server::{ServeConfig, Server};

    #[test]
    fn run_flush_round_trip() {
        let server = Server::start(ServeConfig::new(Workload::flood_min(3, 1)));
        let client = server.client();
        let script = "RUN 5,6,7\nRUN 1,1,1\nFLUSH\nSTATS\nQUIT\n";
        let mut reply = Vec::new();
        let stats =
            serve_connection(&server, &client, script.as_bytes(), &mut reply).unwrap();
        assert_eq!(stats, ConnStats { proposed: 2, flushed: 2, orphaned: 0 });
        let reply = String::from_utf8(reply).unwrap();
        let lines: Vec<&str> = reply.lines().collect();
        assert_eq!(lines[0], "ID 0");
        assert_eq!(lines[1], "ID 1");
        assert!(lines[2].starts_with("DECIDED 0 terminated=true "));
        assert!(lines[3].starts_with("DECIDED 1 terminated=true "));
        assert_eq!(lines[4], "OK 2");
        assert_eq!(lines[5], "STATS proposed=2 flushed=2 orphaned=0");
        drop(client);
        assert_eq!(server.shutdown().decided, 2);
    }

    #[test]
    fn flush_returns_only_this_connections_decisions() {
        let server = Server::start(ServeConfig::new(Workload::flood_min(3, 1)));
        let client = server.client();
        // Connection A proposes and quits without flushing: its decision
        // stays in the server's channel.
        let mut reply_a = Vec::new();
        let stats_a =
            serve_connection(&server, &client, "RUN 5,6,7\nQUIT\n".as_bytes(), &mut reply_a)
                .unwrap();
        assert_eq!(String::from_utf8(reply_a).unwrap(), "ID 0\n");
        assert_eq!(stats_a, ConnStats { proposed: 1, flushed: 0, orphaned: 0 });

        // Connection B's flush answers with B's own instance only.
        let mut reply_b = Vec::new();
        let stats_b = serve_connection(
            &server,
            &client,
            "RUN 1,1,1\nFLUSH\nSTATS\nQUIT\n".as_bytes(),
            &mut reply_b,
        )
        .unwrap();
        let reply_b = String::from_utf8(reply_b).unwrap();
        assert_eq!(
            reply_b.lines().collect::<Vec<_>>(),
            [
                "ID 1",
                "DECIDED 1 terminated=true 0:1 1:1 2:1",
                "OK 1",
                "STATS proposed=1 flushed=1 orphaned=1",
            ]
        );
        assert_eq!(stats_b, ConnStats { proposed: 1, flushed: 1, orphaned: 1 });
        drop(client);
        assert_eq!(server.shutdown().decided, 2);
    }

    #[test]
    fn a_non_utf8_line_gets_an_err_and_the_connection_stays_up() {
        let server = Server::start(ServeConfig::new(Workload::flood_min(3, 1)));
        let client = server.client();
        let script: &[u8] = b"RUN 1,1,1\n\xff\xfeRUN 2,2,2\nFLUSH\nQUIT\n";
        let mut reply = Vec::new();
        let stats = serve_connection(&server, &client, script, &mut reply).unwrap();
        let reply = String::from_utf8(reply).unwrap();
        assert_eq!(
            reply.lines().collect::<Vec<_>>(),
            [
                "ID 0",
                "ERR invalid utf-8",
                "DECIDED 0 terminated=true 0:1 1:1 2:1",
                "OK 1",
            ]
        );
        assert_eq!((stats.proposed, stats.flushed, stats.orphaned), (1, 1, 0));
        drop(client);
        server.shutdown();
    }

    #[test]
    fn malformed_lines_get_err_replies() {
        let server = Server::start(ServeConfig::new(Workload::flood_min(3, 1)));
        let client = server.client();
        let script = "RUN nope\nRUN 1,2\nPING\nQUIT\n";
        let mut reply = Vec::new();
        serve_connection(&server, &client, script.as_bytes(), &mut reply).unwrap();
        let reply = String::from_utf8(reply).unwrap();
        for line in reply.lines() {
            assert!(line.starts_with("ERR "), "unexpected reply: {line}");
        }
        drop(client);
        server.shutdown();
    }
}
