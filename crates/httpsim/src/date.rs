//! HTTP date handling (RFC 1123 fixed-format dates, as required by
//! HTTP/1.0's `Date`, `Expires`, `Last-Modified`, and `If-Modified-Since`
//! headers).
//!
//! Dates are represented as seconds since the Unix epoch and converted
//! to/from civil calendar fields with the days-from-civil algorithm, so no
//! external time crate is needed and behaviour is identical on every
//! platform.
//!
//! The format is fixed-width, and every date a live server writes or
//! reads is in it, so both directions have a byte-level path that never
//! enters `core::fmt` or splits a string: [`HttpDate::rfc1123`] fills
//! the 29 bytes in place, and parsing first tries the exact layout
//! (`parse_fixed`). Whatever that declines — a one-digit day, padding
//! around the date, anything malformed — goes to the lenient
//! field-splitting parser, which alone decides what is accepted and
//! what the error says.

use core::fmt;
use std::str::FromStr;

/// Seconds since 1970-01-01T00:00:00Z, as carried in HTTP date headers.
///
/// The simulation's `SimTime` is an offset from an arbitrary start; mapping
/// into `HttpDate` requires an epoch base (see `wall_clock_base` in the
/// simulator configs). 1996-01-01T00:00:00Z, the paper's publication month,
/// is the conventional base in this workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HttpDate(pub u64);

/// 1996-01-01T00:00:00Z — the default wall-clock origin for simulations.
pub const EPOCH_1996: HttpDate = HttpDate(820_454_400);

const DAY_NAMES: [&str; 7] = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"];
const MONTH_NAMES: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

/// Days since 1970-01-01 for a civil date (Howard Hinnant's algorithm).
fn days_from_civil(y: i64, m: u64, d: u64) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u64; // [0, 399]
    let mp = (m + 9) % 12; // Mar=0 .. Feb=11
    let doy = (153 * mp + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe as i64 - 719_468
}

/// Civil date (y, m, d) for days since 1970-01-01 (inverse of
/// `days_from_civil`).
fn civil_from_days(z: i64) -> (i64, u64, u64) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

impl HttpDate {
    /// Civil UTC fields `(year, month, day, hour, minute, second)`.
    pub fn to_civil(self) -> (i64, u64, u64, u64, u64, u64) {
        let days = (self.0 / 86_400) as i64;
        let rem = self.0 % 86_400;
        let (y, m, d) = civil_from_days(days);
        (y, m, d, rem / 3600, (rem % 3600) / 60, rem % 60)
    }

    /// Day of week, 0 = Monday … 6 = Sunday. (1970-01-01 was a Thursday.)
    pub fn weekday(self) -> usize {
        ((self.0 / 86_400 + 3) % 7) as usize
    }
}

/// The two ASCII digits of `n < 100`.
fn two_digits(n: u64) -> [u8; 2] {
    [b'0' + (n / 10) as u8, b'0' + (n % 10) as u8]
}

/// The value of a run of ASCII digits; `None` if any byte is not one.
fn digits(bytes: &[u8]) -> Option<u64> {
    bytes.iter().try_fold(0, |n, b| {
        b.is_ascii_digit().then(|| n * 10 + u64::from(b - b'0'))
    })
}

impl HttpDate {
    /// The last second the fixed format can spell, 9999-12-31T23:59:59Z.
    const MAX_RFC1123: HttpDate = HttpDate(253_402_300_799);

    /// The RFC 1123 fixed format as its 29 bytes, e.g.
    /// `Sun, 06 Nov 1994 08:49:37 GMT` — what [`Display`](fmt::Display)
    /// prints. `None` past year 9999, which four digits cannot spell.
    pub fn rfc1123(self) -> Option<[u8; 29]> {
        if self > Self::MAX_RFC1123 {
            return None;
        }
        let (y, m, d, hh, mm, ss) = self.to_civil();
        let y = y as u64; // 1970 ..= 9999
        let mut out = *b"Www, DD Mon YYYY HH:MM:SS GMT";
        out[..3].copy_from_slice(DAY_NAMES[self.weekday()].as_bytes());
        out[5..7].copy_from_slice(&two_digits(d));
        out[8..11].copy_from_slice(MONTH_NAMES[(m - 1) as usize].as_bytes());
        out[12..14].copy_from_slice(&two_digits(y / 100));
        out[14..16].copy_from_slice(&two_digits(y % 100));
        out[17..19].copy_from_slice(&two_digits(hh));
        out[20..22].copy_from_slice(&two_digits(mm));
        out[23..25].copy_from_slice(&two_digits(ss));
        Some(out)
    }

    /// Parse exactly the layout [`rfc1123`](Self::rfc1123) writes. `None`
    /// says only "not that layout, or not a date": the lenient parser
    /// decides what it is instead.
    fn parse_fixed(s: &[u8]) -> Option<HttpDate> {
        let s: &[u8; 29] = s.try_into().ok()?;
        let punctuated = s[3..5] == *b", "
            && s[7] == b' '
            && s[11] == b' '
            && s[16] == b' '
            && s[19] == b':'
            && s[22] == b':'
            && s[25..] == *b" GMT";
        if !punctuated {
            return None;
        }
        let wday = DAY_NAMES.iter().position(|n| n.as_bytes() == &s[..3])?;
        let month = MONTH_NAMES.iter().position(|n| n.as_bytes() == &s[8..11])? as u64 + 1;
        let (day, year) = (digits(&s[5..7])?, digits(&s[12..16])?);
        let (hour, min, sec) = (
            digits(&s[17..19])?,
            digits(&s[20..22])?,
            digits(&s[23..25])?,
        );
        let leap = year % 4 == 0 && (year % 100 != 0 || year % 400 == 0);
        let month_days = match month {
            2 => 28 + u64::from(leap),
            4 | 6 | 9 | 11 => 30,
            _ => 31,
        };
        if year < 1970 || !(1..=month_days).contains(&day) || hour >= 24 || min >= 60 || sec >= 60 {
            return None;
        }
        let days = days_from_civil(year as i64, month, day) as u64;
        let parsed = HttpDate(days * 86_400 + hour * 3600 + min * 60 + sec);
        (parsed.weekday() == wday).then_some(parsed)
    }

    /// The format through `core::fmt`, any year: what is printed past
    /// year 9999, and the model [`rfc1123`](Self::rfc1123) is tested
    /// against.
    fn fmt_fields(self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d, hh, mm, ss) = self.to_civil();
        write!(
            f,
            "{}, {:02} {} {} {:02}:{:02}:{:02} GMT",
            DAY_NAMES[self.weekday()],
            d,
            MONTH_NAMES[(m - 1) as usize],
            y,
            hh,
            mm,
            ss
        )
    }
}

impl fmt::Display for HttpDate {
    /// RFC 1123 fixed format, e.g. `Sun, 06 Nov 1994 08:49:37 GMT`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.rfc1123() {
            Some(bytes) => f.write_str(std::str::from_utf8(&bytes).expect("29 ASCII bytes")),
            None => self.fmt_fields(f),
        }
    }
}

/// Error parsing an RFC 1123 date.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DateParseError(pub String);

impl fmt::Display for DateParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid RFC 1123 date: {}", self.0)
    }
}

impl std::error::Error for DateParseError {}

impl FromStr for HttpDate {
    type Err = DateParseError;

    /// Parse the RFC 1123 fixed format (`Sun, 06 Nov 1994 08:49:37 GMT`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match HttpDate::parse_fixed(s.as_bytes()) {
            Some(date) => Ok(date),
            None => HttpDate::parse_lenient(s),
        }
    }
}

impl HttpDate {
    /// The format field by field, as `split` and `parse` read it: what
    /// is accepted (a one-digit day, padding around the date) and what
    /// every error says.
    fn parse_lenient(s: &str) -> Result<Self, DateParseError> {
        let err = || DateParseError(s.to_string());
        let rest = s.trim();
        // "Www, DD Mon YYYY HH:MM:SS GMT"
        let (wday, rest) = rest.split_once(", ").ok_or_else(err)?;
        if !DAY_NAMES.contains(&wday) {
            return Err(err());
        }
        let mut parts = rest.split(' ');
        let day: u64 = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let mon_name = parts.next().ok_or_else(err)?;
        let month = MONTH_NAMES
            .iter()
            .position(|&m| m == mon_name)
            .ok_or_else(err)? as u64
            + 1;
        let year: i64 = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let hms = parts.next().ok_or_else(err)?;
        let tz = parts.next().ok_or_else(err)?;
        if tz != "GMT" || parts.next().is_some() {
            return Err(err());
        }
        let mut hms_parts = hms.split(':');
        let hour: u64 = hms_parts
            .next()
            .ok_or_else(err)?
            .parse()
            .map_err(|_| err())?;
        let min: u64 = hms_parts
            .next()
            .ok_or_else(err)?
            .parse()
            .map_err(|_| err())?;
        let sec: u64 = hms_parts
            .next()
            .ok_or_else(err)?
            .parse()
            .map_err(|_| err())?;
        if hms_parts.next().is_some() || hour >= 24 || min >= 60 || sec >= 60 {
            return Err(err());
        }
        if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
            return Err(err());
        }
        // `HttpDate` can only carry post-1970 instants (RFC 1123 dates are
        // four-digit years; anything past 9999 is not this fixed format).
        if !(1970..=9999).contains(&year) {
            return Err(err());
        }
        let days = days_from_civil(year, month, day);
        debug_assert!(days >= 0, "year range check keeps days non-negative");
        let parsed = HttpDate(days as u64 * 86_400 + hour * 3600 + min * 60 + sec);
        // Reject days that are out of range for their month ("31 Apr",
        // "30 Feb"): days_from_civil silently normalises them into the next
        // month, so a round-trip through civil fields exposes the lie.
        let (y2, m2, d2, ..) = parsed.to_civil();
        if (y2, m2, d2) != (year, month, day) {
            return Err(err());
        }
        // Reject dates whose weekday field lies (e.g. "Mon" on a Sunday);
        // HTTP servers of the era were strict about the fixed format.
        if DAY_NAMES[parsed.weekday()] != wday {
            return Err(err());
        }
        Ok(parsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The instant of civil UTC fields.
    fn civil(year: i64, month: u64, day: u64, hour: u64, min: u64, sec: u64) -> HttpDate {
        let days = days_from_civil(year, month, day) as u64;
        HttpDate(days * 86_400 + hour * 3600 + min * 60 + sec)
    }

    #[test]
    fn unix_epoch_formats() {
        assert_eq!(HttpDate(0).to_string(), "Thu, 01 Jan 1970 00:00:00 GMT");
    }

    #[test]
    fn rfc1123_reference_example() {
        // The canonical example from the HTTP/1.0 draft.
        let d = civil(1994, 11, 6, 8, 49, 37);
        assert_eq!(d.to_string(), "Sun, 06 Nov 1994 08:49:37 GMT");
        assert_eq!("Sun, 06 Nov 1994 08:49:37 GMT".parse::<HttpDate>(), Ok(d));
    }

    #[test]
    fn epoch_1996_is_new_years_day() {
        let (y, m, d, hh, mm, ss) = EPOCH_1996.to_civil();
        assert_eq!((y, m, d, hh, mm, ss), (1996, 1, 1, 0, 0, 0));
        assert_eq!(EPOCH_1996.to_string(), "Mon, 01 Jan 1996 00:00:00 GMT");
    }

    #[test]
    fn civil_round_trip_across_leap_years() {
        for &(y, m, d) in &[
            (1970i64, 1u64, 1u64),
            (1972, 2, 29),
            (1995, 12, 31),
            (1996, 2, 29), // 1996 is a leap year
            (1996, 3, 1),
            (2000, 2, 29),
            (1999, 12, 31),
        ] {
            let date = civil(y, m, d, 12, 34, 56);
            let (y2, m2, d2, hh, mm, ss) = date.to_civil();
            assert_eq!((y2, m2, d2, hh, mm, ss), (y, m, d, 12, 34, 56));
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "",
            "garbage",
            "Sun 06 Nov 1994 08:49:37 GMT",      // missing comma
            "Sun, 06 Nov 1994 08:49:37 PST",     // wrong zone
            "Xxx, 06 Nov 1994 08:49:37 GMT",     // bogus weekday
            "Mon, 06 Nov 1994 08:49:37 GMT",     // weekday lies (was a Sunday)
            "Sun, 06 Xxx 1994 08:49:37 GMT",     // bogus month
            "Sun, 06 Nov 1994 25:49:37 GMT",     // bad hour
            "Sun, 06 Nov 1994 08:49 GMT",        // missing seconds
            "Sun, 06 Nov 1994 08:49:37 GMT tra", // trailing junk
        ] {
            assert!(bad.parse::<HttpDate>().is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn parse_rejects_day_not_in_month() {
        // 1996-05-01 was a Wednesday, so before day-of-month validation
        // "Wed, 31 Apr 1996" silently normalised to May 1 and *parsed*.
        for bad in [
            "Wed, 31 Apr 1996 00:00:00 GMT",
            "Thu, 30 Feb 1995 12:00:00 GMT",
            "Thu, 29 Feb 1900 12:00:00 GMT", // 1900 precedes the range anyway
            "Fri, 29 Feb 1995 12:00:00 GMT", // not a leap year
            "Sun, 00 Nov 1994 08:49:37 GMT", // day zero
            "Sat, 32 Dec 1994 08:49:37 GMT",
        ] {
            assert!(bad.parse::<HttpDate>().is_err(), "accepted: {bad:?}");
        }
        // Feb 29 in an actual leap year still parses.
        let leap = "Thu, 29 Feb 1996 12:00:00 GMT".parse::<HttpDate>().unwrap();
        assert_eq!(leap.to_civil(), (1996, 2, 29, 12, 0, 0));
    }

    #[test]
    fn parse_rejects_out_of_range_years_without_panicking() {
        // Pre-1970 instants are unrepresentable in HttpDate: the parser
        // must return Err (it used to panic on them).
        for bad in [
            "Sun, 01 Jan 1950 00:00:00 GMT",
            "Wed, 31 Dec 1969 23:59:59 GMT",
            "Thu, 01 Jan 0004 00:00:00 GMT",
            "Mon, 01 Jan -200 00:00:00 GMT",
            "Sat, 01 Jan 10000 00:00:00 GMT", // five digits: not RFC 1123
        ] {
            assert!(bad.parse::<HttpDate>().is_err(), "accepted: {bad:?}");
        }
        // The boundary instants themselves are fine.
        assert!("Thu, 01 Jan 1970 00:00:00 GMT".parse::<HttpDate>().is_ok());
        let last = civil(9999, 12, 31, 23, 59, 59);
        assert_eq!(last.to_string().parse::<HttpDate>(), Ok(last));
    }

    /// What the fixed-width parser declines is the lenient parser's to
    /// judge — accepted or not, the verdict is the one it always gave.
    #[test]
    fn near_misses_of_the_fixed_layout_get_the_lenient_verdict() {
        let d = civil(1994, 11, 6, 8, 49, 37);
        for (near_miss, verdict) in [
            ("Sun, 6 Nov 1994 08:49:37 GMT", Some(d)), // one-digit day
            (" Sun, 06 Nov 1994 08:49:37 GMT", Some(d)), // leading space
            ("Sun, 06 Nov 1994 08:49:37 GMT ", Some(d)), // trailing space
            ("Sun, 06 Nov 1994 8:49:37 GMT", Some(d)), // one-digit hour
            ("Sun, 06 Nov +1994 08:49:37 GMT", Some(d)), // a sign `parse` takes
            ("Sun, 06 nov 1994 08:49:37 GMT", None),   // lower-case month
            ("Sun, 06 Nov 1994 24:00:00 GMT", None),
            ("Sun, 06 Nov 1994 08:49:60 GMT", None),
            ("Sun, 06 Nov 1994 08:49:37 gmt", None),
            ("Sun,  6 Nov 1994 08:49:37 GMT", None), // space-padded day
            ("Sun, 06 Nov 1994 08-49-37 GMT", None),
        ] {
            let parsed = near_miss.parse::<HttpDate>();
            assert_eq!(parsed, HttpDate::parse_lenient(near_miss), "{near_miss:?}");
            assert_eq!(parsed.ok(), verdict, "{near_miss:?}");
        }
    }

    /// Four digits cannot spell year 10000: no fixed form, and `Display`
    /// widens as it always did.
    #[test]
    fn past_year_9999_there_is_no_fixed_form() {
        let last = civil(9999, 12, 31, 23, 59, 59);
        assert_eq!(&last.rfc1123().unwrap(), b"Fri, 31 Dec 9999 23:59:59 GMT");
        let next = HttpDate(last.0 + 1);
        assert_eq!(next.rfc1123(), None);
        assert_eq!(next.to_string(), "Sat, 01 Jan 10000 00:00:00 GMT");
    }

    #[test]
    fn ordering_is_chronological() {
        let a = civil(1996, 1, 1, 0, 0, 0);
        let b = civil(1996, 1, 1, 0, 0, 1);
        assert!(a < b);
    }

    #[test]
    fn weekday_cycle() {
        // 1996-01-01 was a Monday.
        for (offset, name) in DAY_NAMES.iter().enumerate() {
            let d = HttpDate(EPOCH_1996.0 + offset as u64 * 86_400);
            assert_eq!(DAY_NAMES[d.weekday()], *name);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Last representable second of the RFC 1123 four-digit-year domain,
    /// 9999-12-31T23:59:59Z.
    const MAX_RFC1123_SECS: u64 = HttpDate::MAX_RFC1123.0;

    /// A date as `core::fmt` spells it.
    struct Model(HttpDate);

    impl fmt::Display for Model {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.0.fmt_fields(f)
        }
    }

    proptest! {
        /// Display → parse is the identity for *every* representable
        /// second of the format's domain (1970 through year 9999 — beyond
        /// that the year field stops being the fixed four digits RFC 1123
        /// prescribes).
        #[test]
        fn display_parse_round_trip(secs in 0u64..=MAX_RFC1123_SECS) {
            let d = HttpDate(secs);
            let s = d.to_string();
            prop_assert_eq!(s.parse::<HttpDate>(), Ok(d));
        }

        /// The fixed format always serialises to exactly 29 bytes — this is
        /// what makes HTTP header sizes predictable.
        #[test]
        fn rfc1123_is_fixed_width(secs in 0u64..=MAX_RFC1123_SECS) {
            prop_assert_eq!(HttpDate(secs).to_string().len(), 29);
        }

        /// Parsing arbitrary header-shaped input returns Err rather than
        /// panicking, whatever the field values (pre-1970 years, day 99,
        /// month overflow...).
        #[test]
        fn parse_never_panics(
            wd in 0usize..7,
            day in 0u64..100,
            mon in 0usize..12,
            year in -10_000i64..20_000,
            hh in 0u64..30, mm in 0u64..70, ss in 0u64..70,
        ) {
            let s = format!(
                "{}, {:02} {} {} {:02}:{:02}:{:02} GMT",
                DAY_NAMES[wd], day, MONTH_NAMES[mon], year, hh, mm, ss
            );
            let _ = s.parse::<HttpDate>(); // must not panic
        }
    }

    proptest! {
        // Single-byte mutations: enough cases to land on every field.
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The byte-level writer against the `fmt` one it replaced, over
        /// the whole domain of the fixed format.
        #[test]
        fn rfc1123_bytes_equal_the_fmt_model(secs in 0u64..=MAX_RFC1123_SECS) {
            let d = HttpDate(secs);
            prop_assert_eq!(&d.rfc1123().expect("in the domain")[..], Model(d).to_string().as_bytes());
        }

        /// The fixed-width parser is only ever a shortcut: on a written
        /// date, and on one byte of it replaced (a wrong weekday, `31
        /// Apr`, `24:00:00`, a lower-case month, a space for a digit...),
        /// `parse` is the lenient parser's `Result`.
        #[test]
        fn fixed_width_parse_is_the_lenient_parse(
            secs in 0u64..=MAX_RFC1123_SECS,
            at in 0usize..29,
            with in "[ 0-9A-Za-z:,+-]{1,1}",
        ) {
            let written = HttpDate(secs).to_string();
            prop_assert_eq!(written.parse::<HttpDate>(), HttpDate::parse_lenient(&written));
            let mut mutated = written.clone();
            mutated.replace_range(at..=at, &with);
            prop_assert_eq!(mutated.parse::<HttpDate>(), HttpDate::parse_lenient(&mutated));
        }

        /// ...and on header-shaped text whose fields run out of range or
        /// out of width (a one-digit day, a five-digit year, padding on
        /// either side), and on arbitrary short strings.
        #[test]
        fn parse_agrees_with_the_lenient_parser_off_the_format(
            fields in (0usize..7, 0u64..40, 0usize..12, 1960i64..10_050),
            hms in (0u64..26, 0u64..62, 0u64..62),
            pad in (0usize..2, 0usize..2, 0usize..2),
            noise in "[ ,:0-9GMTadeFJMNnouvy]{0,31}",
        ) {
            let ((wd, day, mon, year), (hh, mm, ss)) = (fields, hms);
            let day = if pad.0 == 0 { format!("{day:02}") } else { day.to_string() };
            let s = format!(
                "{}{}, {day} {} {year} {hh:02}:{mm:02}:{ss:02} GMT{}",
                " ".repeat(pad.1), DAY_NAMES[wd], MONTH_NAMES[mon], " ".repeat(pad.2),
            );
            prop_assert_eq!(s.parse::<HttpDate>(), HttpDate::parse_lenient(&s));
            prop_assert_eq!(noise.parse::<HttpDate>(), HttpDate::parse_lenient(&noise));
        }
    }
}
