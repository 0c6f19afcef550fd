//! Planar geometry used by unit-disk conflict graphs.

use std::fmt;

/// A point in the Euclidean plane.
///
/// Node locations are points; two nodes conflict in a unit-disk graph when
/// their distance is at most the conflict radius (the paper uses `‖u,v‖ ≤ 2`
/// for unit disks of radius 1).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point at `(x, y)`.
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Squared Euclidean distance to `other` (cheaper than [`Point::distance`]).
    pub fn distance_squared(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Euclidean distance to `other`.
    pub fn distance(&self, other: &Point) -> f64 {
        self.distance_squared(other).sqrt()
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_matches_pythagoras() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance_squared(&b), 25.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(1.5, -2.0);
        let b = Point::new(-0.5, 7.25);
        assert_eq!(a.distance(&b), b.distance(&a));
    }

    #[test]
    fn distance_to_self_is_zero() {
        let a = Point::new(2.0, 3.0);
        assert_eq!(a.distance(&a), 0.0);
    }
}
