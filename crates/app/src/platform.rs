//! Platforms and app identities.

use core::fmt;

/// The two mobile platforms under study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Platform {
    /// Google Android (Play Store).
    Android,
    /// Apple iOS (App Store).
    Ios,
}

impl Platform {
    /// Both platforms.
    pub const BOTH: [Platform; 2] = [Platform::Android, Platform::Ios];

    /// Short name.
    pub fn name(self) -> &'static str {
        match self {
            Platform::Android => "Android",
            Platform::Ios => "iOS",
        }
    }

    /// The other platform.
    pub fn other(self) -> Platform {
        match self {
            Platform::Android => Platform::Ios,
            Platform::Ios => Platform::Android,
        }
    }
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A platform-qualified app identifier.
///
/// Android uses reverse-DNS package names (`com.example.shop`); iOS uses
/// numeric store ids plus a bundle id. We keep one canonical string per
/// platform; the *logical product* linking an Android app to its iOS
/// sibling is tracked by the world generator (`product_key`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AppId {
    /// Platform the id lives on.
    pub platform: Platform,
    /// Store identifier (`com.vendor.app` or `id123456789`).
    pub id: String,
}

impl AppId {
    /// Creates an app id.
    pub fn new(platform: Platform, id: impl Into<String>) -> Self {
        AppId {
            platform,
            id: id.into(),
        }
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.platform, self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn other_is_involutive() {
        for p in Platform::BOTH {
            assert_eq!(p.other().other(), p);
        }
    }

    #[test]
    fn display() {
        let id = AppId::new(Platform::Android, "com.example.app");
        assert_eq!(id.to_string(), "Android:com.example.app");
    }

    #[test]
    fn ids_hash_by_platform_too() {
        use std::collections::HashSet;
        let a = AppId::new(Platform::Android, "x");
        let b = AppId::new(Platform::Ios, "x");
        let set: HashSet<_> = [a, b].into_iter().collect();
        assert_eq!(set.len(), 2);
    }
}
