//! File-type taxonomy used throughout the trace subsystem.
//!
//! Table 2 of the paper characterises Web traffic by five content classes;
//! the same classes parameterise the Microsoft access-mix generator, the
//! Boston University lifetime generator, and the self-tuning policy's
//! per-class thresholds.

use core::fmt;

/// The content classes of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FileType {
    /// GIF images — 55 % of Microsoft proxy accesses, the longest-lived
    /// class.
    Gif,
    /// HTML pages — 22 % of accesses.
    Html,
    /// JPEG images — 10 % of accesses.
    Jpg,
    /// CGI output — 9 % of accesses; dynamically generated.
    Cgi,
    /// Everything else — 4 % of accesses.
    Other,
}

impl FileType {
    /// All types, in Table 2 order.
    pub const ALL: [FileType; 5] = [
        FileType::Gif,
        FileType::Html,
        FileType::Jpg,
        FileType::Cgi,
        FileType::Other,
    ];

    /// Dense class index (for per-class adaptive policies).
    pub fn class_index(self) -> usize {
        match self {
            FileType::Gif => 0,
            FileType::Html => 1,
            FileType::Jpg => 2,
            FileType::Cgi => 3,
            FileType::Other => 4,
        }
    }

    /// Inverse of [`FileType::class_index`].
    ///
    /// # Panics
    /// Panics for indices >= 5.
    pub fn from_class_index(idx: usize) -> FileType {
        FileType::ALL[idx]
    }

    /// Classify a request path by its extension, the way proxy log
    /// analyses of the era did.
    pub fn classify_path(path: &str) -> FileType {
        // CGI is recognised by path convention as well as extension.
        if path.contains("/cgi-bin/") || path.contains('?') {
            return FileType::Cgi;
        }
        let ext = path
            .rsplit('/')
            .next()
            .and_then(|name| name.rsplit_once('.').map(|(_, e)| e.to_ascii_lowercase()));
        match ext.as_deref() {
            Some("gif") => FileType::Gif,
            Some("html") | Some("htm") => FileType::Html,
            Some("jpg") | Some("jpeg") => FileType::Jpg,
            Some("cgi") | Some("pl") => FileType::Cgi,
            _ => FileType::Other,
        }
    }

    /// Canonical extension for synthetic path generation.
    pub fn extension(self) -> &'static str {
        match self {
            FileType::Gif => "gif",
            FileType::Html => "html",
            FileType::Jpg => "jpg",
            FileType::Cgi => "cgi",
            FileType::Other => "dat",
        }
    }

    /// Whether objects of this class are dynamically generated (the §5
    /// discussion: ~10 % of Microsoft requests were dynamic pages).
    pub fn is_dynamic(self) -> bool {
        matches!(self, FileType::Cgi)
    }
}

impl fmt::Display for FileType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FileType::Gif => "gif",
            FileType::Html => "html",
            FileType::Jpg => "jpg",
            FileType::Cgi => "cgi",
            FileType::Other => "other",
        })
    }
}

impl std::str::FromStr for FileType {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "gif" => Ok(FileType::Gif),
            "html" => Ok(FileType::Html),
            "jpg" => Ok(FileType::Jpg),
            "cgi" => Ok(FileType::Cgi),
            "other" => Ok(FileType::Other),
            other => Err(format!("unknown file type {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_index_round_trips() {
        for t in FileType::ALL {
            assert_eq!(FileType::from_class_index(t.class_index()), t);
        }
    }

    #[test]
    fn classify_by_extension() {
        assert_eq!(FileType::classify_path("/img/logo.gif"), FileType::Gif);
        assert_eq!(FileType::classify_path("/index.html"), FileType::Html);
        assert_eq!(FileType::classify_path("/a/b.htm"), FileType::Html);
        assert_eq!(FileType::classify_path("/photos/x.JPG"), FileType::Jpg);
        assert_eq!(FileType::classify_path("/photos/x.jpeg"), FileType::Jpg);
        assert_eq!(FileType::classify_path("/scripts/run.cgi"), FileType::Cgi);
        assert_eq!(FileType::classify_path("/data.tar"), FileType::Other);
        assert_eq!(FileType::classify_path("/no-extension"), FileType::Other);
    }

    #[test]
    fn classify_cgi_by_convention() {
        assert_eq!(FileType::classify_path("/cgi-bin/search"), FileType::Cgi);
        assert_eq!(
            FileType::classify_path("/find.html?q=caching"),
            FileType::Cgi
        );
    }

    #[test]
    fn display_parse_round_trip() {
        for t in FileType::ALL {
            assert_eq!(t.to_string().parse::<FileType>(), Ok(t));
        }
        assert!("bmp".parse::<FileType>().is_err());
    }

    #[test]
    fn only_cgi_is_dynamic() {
        for t in FileType::ALL {
            assert_eq!(t.is_dynamic(), t == FileType::Cgi);
        }
    }
}
