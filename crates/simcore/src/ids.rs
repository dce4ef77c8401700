//! Strongly-typed identifiers for simulation entities.
//!
//! Files, caches, and clients are all dense integer ids handed out by their
//! owning registries; newtypes keep them from being confused for each other
//! at compile time.

use core::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// The id as a dense array index.
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Construct from a dense array index.
            ///
            /// # Panics
            /// Panics if `index` does not fit in `u32`.
            pub fn from_index(index: usize) -> Self {
                $name(u32::try_from(index).expect("entity index exceeds u32 range"))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

define_id!(
    /// A Web object (URL) hosted on an origin server.
    FileId,
    "f"
);
define_id!(
    /// A proxy cache in the (possibly hierarchical) caching system.
    CacheId,
    "c"
);
define_id!(
    /// A client issuing requests (used by trace replay to distinguish
    /// local from remote requesters).
    ClientId,
    "u"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trip() {
        let f = FileId::from_index(7);
        assert_eq!(f, FileId(7));
        assert_eq!(f.index(), 7);
    }

    #[test]
    fn display_is_prefixed() {
        assert_eq!(FileId(3).to_string(), "f3");
        assert_eq!(CacheId(3).to_string(), "c3");
        assert_eq!(ClientId(3).to_string(), "u3");
    }

    #[test]
    fn ordering_follows_numeric_value() {
        assert!(FileId(1) < FileId(2));
    }

    #[test]
    #[should_panic(expected = "exceeds u32")]
    fn oversized_index_panics() {
        let _ = FileId::from_index(usize::try_from(u64::from(u32::MAX) + 1).unwrap());
    }
}
