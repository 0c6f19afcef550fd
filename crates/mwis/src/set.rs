//! Solver result type.

/// An independent set together with its total weight.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WeightedSet {
    /// Selected vertices, sorted ascending.
    pub vertices: Vec<usize>,
    /// Sum of the selected vertices' weights.
    pub weight: f64,
}

impl WeightedSet {
    /// The empty set with zero weight.
    pub fn empty() -> Self {
        WeightedSet::default()
    }

    /// Builds a set from vertices and a weight vector, sorting the vertices
    /// and summing their weights.
    pub fn from_vertices(mut vertices: Vec<usize>, weights: &[f64]) -> Self {
        vertices.sort_unstable();
        let weight = vertices.iter().map(|&v| weights[v]).sum();
        WeightedSet { vertices, weight }
    }

    /// Number of selected vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// `true` when no vertex is selected.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Merges another disjoint set into this one.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the sets share a vertex.
    pub fn union(&mut self, other: &WeightedSet) {
        debug_assert!(
            other.vertices.iter().all(|v| !self.vertices.contains(v)),
            "sets must be disjoint"
        );
        self.vertices.extend_from_slice(&other.vertices);
        self.vertices.sort_unstable();
        self.weight += other.weight;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vertices_sorts_and_sums() {
        let s = WeightedSet::from_vertices(vec![3, 1], &[0.0, 2.0, 0.0, 5.0]);
        assert_eq!(s.vertices, vec![1, 3]);
        assert_eq!(s.weight, 7.0);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn empty_set() {
        let s = WeightedSet::empty();
        assert!(s.is_empty());
        assert_eq!(s.weight, 0.0);
    }

    #[test]
    fn union_accumulates() {
        let mut a = WeightedSet::from_vertices(vec![0], &[1.0, 2.0, 4.0]);
        let b = WeightedSet::from_vertices(vec![2], &[1.0, 2.0, 4.0]);
        a.union(&b);
        assert_eq!(a.vertices, vec![0, 2]);
        assert_eq!(a.weight, 5.0);
    }
}
