//! Log records and the extended log-file text format.
//!
//! The paper's campus servers ran "modified to store the last-modified
//! timestamps with each file request satisfied by the servers" (§4.2).
//! This module defines that record shape and a text serialisation modelled
//! on the Common Log Format with the extra `Last-Modified` field appended:
//!
//! ```text
//! <host> - - [<epoch-secs>] "GET <path> HTTP/1.0" 200 <bytes> <lastmod-epoch-secs>
//! ```
//!
//! Hosts in the local domain are written as `localNNN.campus.edu`, remote
//! ones as `clientNNN.remote.net` — enough to reproduce the paper's
//! "% remote requests" statistic (Table 1) without carrying real
//! hostnames.

use core::fmt;

use simcore::{ClientId, SimTime};

/// One request line from an extended server log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogLine {
    /// When the request was served.
    pub time: SimTime,
    /// Requesting client.
    pub client: ClientId,
    /// Whether the client was outside the server's campus domain.
    pub remote: bool,
    /// Request path.
    pub path: String,
    /// Bytes served.
    pub size: u64,
    /// The served entity's `Last-Modified` stamp — the paper's log
    /// extension.
    pub last_modified: SimTime,
}

impl fmt::Display for LogLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let host = if self.remote {
            format!("client{}.remote.net", self.client.0)
        } else {
            format!("local{}.campus.edu", self.client.0)
        };
        write!(
            f,
            "{host} - - [{}] \"GET {} HTTP/1.0\" 200 {} {}",
            self.time.as_secs(),
            self.path,
            self.size,
            self.last_modified.as_secs()
        )
    }
}

/// Error from [`LogLine::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogParseError {
    /// Offending line (truncated).
    pub line: String,
    /// What was wrong.
    pub reason: String,
}

impl fmt::Display for LogParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad log line ({}): {:?}", self.reason, self.line)
    }
}

impl std::error::Error for LogParseError {}

impl LogLine {
    /// Parse one line of the extended log format. A size or
    /// `Last-Modified` past `u32::MAX` is an error: a file's history
    /// stores both as `u32`s.
    pub fn parse(line: &str) -> Result<LogLine, LogParseError> {
        let err = |reason: &str| LogParseError {
            line: line.chars().take(120).collect(),
            reason: reason.to_string(),
        };

        let mut rest = line.trim();
        let (host, tail) = rest.split_once(' ').ok_or_else(|| err("missing host"))?;
        rest = tail;

        let (client, remote) = if let Some(n) = host
            .strip_prefix("client")
            .and_then(|h| h.strip_suffix(".remote.net"))
        {
            (n.parse().map_err(|_| err("bad client number"))?, true)
        } else if let Some(n) = host
            .strip_prefix("local")
            .and_then(|h| h.strip_suffix(".campus.edu"))
        {
            (n.parse().map_err(|_| err("bad client number"))?, false)
        } else {
            return Err(err("unrecognised host"));
        };

        let rest = rest
            .strip_prefix("- - [")
            .ok_or_else(|| err("missing ident fields"))?;
        let (ts, rest) = rest
            .split_once("] ")
            .ok_or_else(|| err("unterminated timestamp"))?;
        let time: u64 = ts.parse().map_err(|_| err("bad timestamp"))?;

        let rest = rest
            .strip_prefix("\"GET ")
            .ok_or_else(|| err("missing request quote"))?;
        let (path, rest) = rest
            .split_once(" HTTP/1.0\" ")
            .ok_or_else(|| err("bad request line"))?;
        if !path.starts_with('/') {
            return Err(err("relative path"));
        }

        let mut fields = rest.split(' ');
        let status = fields.next().ok_or_else(|| err("missing status"))?;
        if status != "200" {
            return Err(err("unsupported status"));
        }
        let size: u64 = fields
            .next()
            .ok_or_else(|| err("missing size"))?
            .parse()
            .map_err(|_| err("bad size"))?;
        let lastmod: u64 = fields
            .next()
            .ok_or_else(|| err("missing last-modified"))?
            .parse()
            .map_err(|_| err("bad last-modified"))?;
        if fields.next().is_some() {
            return Err(err("trailing fields"));
        }
        // A file's history keeps sizes as `u32`s, and an instant is one.
        if size > u64::from(u32::MAX) {
            return Err(err("size past the u32 limit"));
        }
        let last_modified = SimTime::try_from_secs(lastmod)
            .ok_or_else(|| err("last-modified past the u32 limit"))?;
        let time =
            SimTime::try_from_secs(time).ok_or_else(|| err("timestamp past the u32 limit"))?;

        Ok(LogLine {
            time,
            client: ClientId(client),
            remote,
            path: path.to_string(),
            size,
            last_modified,
        })
    }

    /// Parse a whole log (one record per line, blank lines ignored).
    pub fn parse_log(text: &str) -> Result<Vec<LogLine>, LogParseError> {
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(LogLine::parse)
            .collect()
    }
}

/// Serialise records into log text, one line each.
pub fn write_log(lines: &[LogLine]) -> String {
    let mut out = String::new();
    for l in lines {
        out.push_str(&l.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LogLine {
        LogLine {
            time: SimTime::from_secs(819_936_000),
            client: ClientId(42),
            remote: true,
            path: "/img/banner.gif".to_string(),
            size: 7791,
            last_modified: SimTime::from_secs(815_000_000),
        }
    }

    #[test]
    fn display_matches_documented_format() {
        assert_eq!(
            sample().to_string(),
            "client42.remote.net - - [819936000] \"GET /img/banner.gif HTTP/1.0\" 200 7791 815000000"
        );
    }

    #[test]
    fn round_trip_remote_and_local() {
        let remote = sample();
        assert_eq!(LogLine::parse(&remote.to_string()), Ok(remote.clone()));
        let local = LogLine {
            remote: false,
            client: ClientId(7),
            ..remote
        };
        assert_eq!(LogLine::parse(&local.to_string()), Ok(local));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for bad in [
            "",
            "garbage",
            "client1.remote.net - - [x] \"GET / HTTP/1.0\" 200 1 1",
            "clientX.remote.net - - [1] \"GET / HTTP/1.0\" 200 1 1",
            "unknownhost - - [1] \"GET / HTTP/1.0\" 200 1 1",
            "client1.remote.net - - [1] \"GET / HTTP/1.0\" 404 1 1",
            "client1.remote.net - - [1] \"GET relative HTTP/1.0\" 200 1 1",
            "client1.remote.net - - [1] \"GET / HTTP/1.0\" 200 1",
            "client1.remote.net - - [1] \"GET / HTTP/1.0\" 200 1 1 extra",
        ] {
            assert!(LogLine::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn parse_log_rejects_a_size_or_last_modified_past_u32() {
        let at_limit = LogLine {
            size: u64::from(u32::MAX),
            last_modified: SimTime::from_secs(u64::from(u32::MAX)),
            ..sample()
        };
        assert_eq!(LogLine::parse(&at_limit.to_string()), Ok(at_limit.clone()));
        let big = LogLine {
            size: 1 << 32,
            ..sample()
        }
        .to_string();
        // An instant past the limit cannot be built, so these are text.
        let late = "client42.remote.net - - [819936000] \"GET /img/banner.gif HTTP/1.0\" 200 7791 4294967296";
        let future = "client42.remote.net - - [4294967296] \"GET /img/banner.gif HTTP/1.0\" 200 7791 815000000";
        for (line, reason) in [
            (big.as_str(), "size past the u32 limit"),
            (late, "last-modified past the u32 limit"),
            (future, "timestamp past the u32 limit"),
        ] {
            let text = format!("{}\n{line}\n", sample());
            let error = LogLine::parse_log(&text).expect_err("past the limit");
            assert_eq!(error.reason, reason);
        }
    }

    #[test]
    fn parse_log_skips_blank_lines() {
        let text = format!("{}\n\n{}\n", sample(), sample());
        let lines = LogLine::parse_log(&text).unwrap();
        assert_eq!(lines.len(), 2);
    }

    #[test]
    fn parse_log_fails_on_any_bad_line() {
        let text = format!("{}\nnot a log line\n", sample());
        assert!(LogLine::parse_log(&text).is_err());
    }

    #[test]
    fn write_then_parse_is_identity() {
        let lines = vec![
            sample(),
            LogLine {
                time: SimTime::from_secs(819_936_100),
                client: ClientId(3),
                remote: false,
                path: "/index.html".to_string(),
                size: 4786,
                last_modified: SimTime::from_secs(819_900_000),
            },
        ];
        let text = write_log(&lines);
        assert_eq!(LogLine::parse_log(&text).unwrap(), lines);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn arbitrary_record_round_trips(
            time in 0u64..2_000_000_000,
            client in 0u32..100_000,
            remote in any::<bool>(),
            path_body in "[a-z0-9/._-]{0,40}",
            size in 0u64..1_000_000_000,
            lastmod in 0u64..2_000_000_000,
        ) {
            let line = LogLine {
                time: SimTime::from_secs(time),
                client: ClientId(client),
                remote,
                path: format!("/{path_body}"),
                size,
                last_modified: SimTime::from_secs(lastmod),
            };
            prop_assert_eq!(LogLine::parse(&line.to_string()), Ok(line));
        }
    }
}
