//! Geographic regions and locations.
//!
//! The paper's geo-location case study (Section IV-B2) requires knowing, for
//! every switch (and ideally link), the jurisdiction it resides in, so that a
//! client can learn the set of regions its traffic may traverse. We model a
//! region as an interned string label (e.g. `"EU"`, `"US-East"`,
//! `"CH"`) and a location as a point on a plane plus its region; distances are
//! Euclidean, which is sufficient for the crowd-sourcing inference experiments.

use std::fmt;

/// A jurisdiction / geographic region label.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Region(String);

impl Region {
    /// Creates a region with the given label.
    #[must_use]
    pub fn new(label: impl Into<String>) -> Self {
        Region(label.into())
    }

    /// Returns the label of the region.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.0
    }

    /// The unknown region, used when a location cannot be attributed.
    #[must_use]
    pub fn unknown() -> Self {
        Region("UNKNOWN".to_string())
    }

    /// True if this is the unknown region.
    #[must_use]
    pub fn is_unknown(&self) -> bool {
        self.0 == "UNKNOWN"
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Region {
    fn from(s: &str) -> Self {
        Region::new(s)
    }
}

impl Default for Region {
    fn default() -> Self {
        Region::unknown()
    }
}

/// A point location on a plane, tagged with the region containing it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GeoPoint {
    /// X coordinate (arbitrary units, e.g. kilometres).
    pub x: f64,
    /// Y coordinate.
    pub y: f64,
    /// Region the point lies in.
    pub region: Region,
}

impl GeoPoint {
    /// Creates a point at `(x, y)` in `region`.
    #[must_use]
    pub fn new(x: f64, y: f64, region: Region) -> Self {
        Self { x, y, region }
    }

    /// Euclidean distance to another point (region-agnostic).
    #[must_use]
    pub fn distance(&self, other: &GeoPoint) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

impl fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1},{:.1})@{}", self.x, self.y, self.region)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_label_and_unknown() {
        let eu = Region::new("EU");
        assert_eq!(eu.label(), "EU");
        assert!(!eu.is_unknown());
        assert!(Region::unknown().is_unknown());
        assert!(Region::default().is_unknown());
        assert_eq!(Region::from("US"), Region::new("US"));
    }

    #[test]
    fn distance_is_euclidean_and_symmetric() {
        let a = GeoPoint::new(0.0, 0.0, Region::new("EU"));
        let b = GeoPoint::new(3.0, 4.0, Region::new("US"));
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert!((b.distance(&a) - 5.0).abs() < 1e-12);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn display_includes_region() {
        let p = GeoPoint::new(1.0, 2.0, Region::new("CH"));
        assert_eq!(p.to_string(), "(1.0,2.0)@CH");
    }
}
