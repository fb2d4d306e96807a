//! Header spaces: unions of ternary cubes.
//!
//! A [`HeaderSpace`] represents an arbitrary set of concrete headers as a
//! union of [`Cube`]s. The representation is not canonical (the same set can
//! be written as different unions), but all operations are semantically exact
//! and [`HeaderSpace::simplify`] removes cubes subsumed by others to keep the
//! representation small during reachability computations.

use std::fmt;

use rvaas_types::Header;

use crate::cube::Cube;

/// A set of headers, represented as a union of wildcard cubes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HeaderSpace {
    cubes: Vec<Cube>,
}

impl HeaderSpace {
    /// The empty set.
    #[must_use]
    pub fn empty() -> Self {
        HeaderSpace { cubes: Vec::new() }
    }

    /// The set of all headers.
    #[must_use]
    pub fn all() -> Self {
        HeaderSpace {
            cubes: vec![Cube::wildcard()],
        }
    }

    /// A set containing exactly one concrete header.
    #[must_use]
    pub fn singleton(header: &Header) -> Self {
        HeaderSpace {
            cubes: vec![Cube::exact(header)],
        }
    }

    /// Builds a space from an iterator of cubes.
    #[must_use]
    pub fn from_cubes(cubes: impl IntoIterator<Item = Cube>) -> Self {
        let mut hs = HeaderSpace {
            cubes: cubes.into_iter().collect(),
        };
        hs.simplify();
        hs
    }

    /// The cubes making up this space.
    #[must_use]
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Number of cubes in the current representation.
    #[must_use]
    pub fn cube_count(&self) -> usize {
        self.cubes.len()
    }

    /// True if the space contains no headers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// True if the concrete header belongs to the set.
    #[must_use]
    pub fn contains(&self, header: &Header) -> bool {
        self.cubes.iter().any(|c| c.contains(header))
    }

    /// Union with another space.
    #[must_use]
    pub fn union(&self, other: &HeaderSpace) -> HeaderSpace {
        let mut cubes = self.cubes.clone();
        cubes.extend_from_slice(&other.cubes);
        let mut out = HeaderSpace { cubes };
        out.simplify();
        out
    }

    /// Adds a single cube to the union.
    pub fn push(&mut self, cube: Cube) {
        self.cubes.push(cube);
        self.simplify();
    }

    /// Intersection with another space.
    #[must_use]
    pub fn intersect(&self, other: &HeaderSpace) -> HeaderSpace {
        let mut cubes = Vec::new();
        for a in &self.cubes {
            for b in &other.cubes {
                if let Some(c) = a.intersect(b) {
                    cubes.push(c);
                }
            }
        }
        let mut out = HeaderSpace { cubes };
        out.simplify();
        out
    }

    /// Intersection with a single cube.
    #[must_use]
    pub fn intersect_cube(&self, cube: &Cube) -> HeaderSpace {
        let cubes = self
            .cubes
            .iter()
            .filter_map(|c| c.intersect(cube))
            .collect();
        let mut out = HeaderSpace { cubes };
        out.simplify();
        out
    }

    /// Set difference `self \ other`.
    #[must_use]
    pub fn subtract(&self, other: &HeaderSpace) -> HeaderSpace {
        let mut current = self.cubes.clone();
        for b in &other.cubes {
            let mut next = Vec::with_capacity(current.len());
            for a in current {
                next.extend(a.subtract(b));
            }
            current = next;
            if current.is_empty() {
                break;
            }
        }
        let mut out = HeaderSpace { cubes: current };
        out.simplify();
        out
    }

    /// Set difference with a single cube.
    #[must_use]
    pub fn subtract_cube(&self, cube: &Cube) -> HeaderSpace {
        let mut cubes = Vec::with_capacity(self.cubes.len());
        for a in &self.cubes {
            cubes.extend(a.subtract(cube));
        }
        let mut out = HeaderSpace { cubes };
        out.simplify();
        out
    }

    /// Complement (all headers not in the set).
    #[must_use]
    pub fn complement(&self) -> HeaderSpace {
        HeaderSpace::all().subtract(self)
    }

    /// Applies a rewrite cube (set-field action) to every member cube.
    #[must_use]
    pub fn rewrite(&self, rewrite: &Cube) -> HeaderSpace {
        let mut out = HeaderSpace {
            cubes: self.cubes.iter().map(|c| c.rewrite(rewrite)).collect(),
        };
        out.simplify();
        out
    }

    /// True if `self` and `other` share at least one header.
    #[must_use]
    pub fn overlaps(&self, other: &HeaderSpace) -> bool {
        self.cubes
            .iter()
            .any(|a| other.cubes.iter().any(|b| a.overlaps(b)))
    }

    /// True if every header of `self` is in `other`.
    #[must_use]
    pub fn is_subset_of(&self, other: &HeaderSpace) -> bool {
        self.subtract(other).is_empty()
    }

    /// Returns one concrete header from the set, if any.
    #[must_use]
    pub fn sample(&self) -> Option<Header> {
        self.cubes.first().map(Cube::sample)
    }

    /// Removes cubes fully covered by another cube of the set and exact
    /// duplicates. Keeps semantics unchanged.
    pub fn simplify(&mut self) {
        if self.cubes.len() <= 1 {
            return;
        }
        // Sort by free-bit count descending so wide cubes come first and can
        // absorb narrower ones in a single pass.
        self.cubes.sort_by_key(|c| std::cmp::Reverse(c.free_bits()));
        let mut kept: Vec<Cube> = Vec::with_capacity(self.cubes.len());
        for cube in self.cubes.drain(..) {
            if !kept.iter().any(|k| cube.is_subset_of(k)) {
                kept.push(cube);
            }
        }
        self.cubes = kept;
    }
}

impl From<Cube> for HeaderSpace {
    fn from(cube: Cube) -> Self {
        HeaderSpace { cubes: vec![cube] }
    }
}

impl From<&Header> for HeaderSpace {
    fn from(h: &Header) -> Self {
        HeaderSpace::singleton(h)
    }
}

impl FromIterator<Cube> for HeaderSpace {
    fn from_iter<I: IntoIterator<Item = Cube>>(iter: I) -> Self {
        HeaderSpace::from_cubes(iter)
    }
}

impl fmt::Display for HeaderSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cubes.is_empty() {
            return write!(f, "{{}}");
        }
        let parts: Vec<String> = self.cubes.iter().map(|c| format!("({c})")).collect();
        write!(f, "{}", parts.join(" ∪ "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rvaas_types::Field;

    fn h(dst: u32, port: u16) -> Header {
        Header::builder().ip_dst(dst).l4_dst(port).build()
    }

    fn dst_cube(dst: u32) -> Cube {
        Cube::wildcard().with_field(Field::IpDst, u64::from(dst))
    }

    #[test]
    fn empty_and_all() {
        assert!(HeaderSpace::empty().is_empty());
        assert!(!HeaderSpace::all().is_empty());
        assert!(HeaderSpace::all().contains(&h(1, 2)));
        assert!(!HeaderSpace::empty().contains(&h(1, 2)));
        assert_eq!(HeaderSpace::empty().sample(), None);
        assert!(HeaderSpace::all().sample().is_some());
    }

    #[test]
    fn union_contains_members_of_both() {
        let a = HeaderSpace::from(dst_cube(1));
        let b = HeaderSpace::from(dst_cube(2));
        let u = a.union(&b);
        assert!(u.contains(&h(1, 0)));
        assert!(u.contains(&h(2, 0)));
        assert!(!u.contains(&h(3, 0)));
        assert_eq!(u.cube_count(), 2);
    }

    #[test]
    fn union_simplifies_subsumed_cubes() {
        let narrow = HeaderSpace::singleton(&h(1, 80));
        let wide = HeaderSpace::from(dst_cube(1));
        let u = narrow.union(&wide);
        assert_eq!(u.cube_count(), 1, "singleton should be absorbed: {u}");
        let dup = wide.union(&wide);
        assert_eq!(dup.cube_count(), 1);
    }

    #[test]
    fn intersection_semantics() {
        let a = HeaderSpace::from(dst_cube(1)).union(&HeaderSpace::from(dst_cube(2)));
        let b = HeaderSpace::from(Cube::wildcard().with_field(Field::L4Dst, 80));
        let i = a.intersect(&b);
        assert!(i.contains(&h(1, 80)));
        assert!(i.contains(&h(2, 80)));
        assert!(!i.contains(&h(1, 81)));
        assert!(!i.contains(&h(3, 80)));
    }

    #[test]
    fn subtraction_semantics() {
        let all_to_1 = HeaderSpace::from(dst_cube(1));
        let udp = HeaderSpace::from(Cube::wildcard().with_field(Field::IpProto, 17));
        let diff = all_to_1.subtract(&udp);
        let mut udp_h = h(1, 9);
        udp_h.ip_proto = 17;
        let mut tcp_h = h(1, 9);
        tcp_h.ip_proto = 6;
        assert!(!diff.contains(&udp_h));
        assert!(diff.contains(&tcp_h));
        assert!(all_to_1.subtract(&HeaderSpace::all()).is_empty());
        assert_eq!(all_to_1.subtract(&HeaderSpace::empty()), all_to_1);
    }

    #[test]
    fn complement_roundtrip() {
        let a = HeaderSpace::from(dst_cube(7));
        let comp = a.complement();
        assert!(!comp.contains(&h(7, 1)));
        assert!(comp.contains(&h(8, 1)));
        // a ∪ complement(a) = everything (spot check)
        let u = a.union(&comp);
        for dst in [0u32, 7, 8, 0xffff_ffff] {
            assert!(u.contains(&h(dst, 5)));
        }
    }

    #[test]
    fn overlaps_and_subset() {
        let a = HeaderSpace::from(dst_cube(1));
        let b = HeaderSpace::from(Cube::wildcard().with_field(Field::L4Dst, 80));
        let narrow = HeaderSpace::singleton(&h(1, 80));
        assert!(a.overlaps(&b));
        assert!(narrow.is_subset_of(&a));
        assert!(narrow.is_subset_of(&b));
        assert!(!a.is_subset_of(&narrow));
        assert!(!a.overlaps(&HeaderSpace::from(dst_cube(9))));
    }

    #[test]
    fn rewrite_applies_to_all_cubes() {
        let space = HeaderSpace::from(dst_cube(1)).union(&HeaderSpace::from(dst_cube(2)));
        let rewrite = Cube::wildcard().with_field(Field::Vlan, 42);
        let out = space.rewrite(&rewrite);
        for c in out.cubes() {
            assert_eq!(c.field_exact(Field::Vlan), Some(42));
        }
    }

    #[test]
    fn display_formats_union() {
        assert_eq!(HeaderSpace::empty().to_string(), "{}");
        let a = HeaderSpace::from(dst_cube(1));
        assert!(a.to_string().contains("ip_dst=0x1"));
    }

    #[test]
    fn from_iterator_collects_and_simplifies() {
        let hs: HeaderSpace = vec![dst_cube(1), dst_cube(1), Cube::wildcard()]
            .into_iter()
            .collect();
        assert_eq!(hs.cube_count(), 1);
        assert_eq!(hs, HeaderSpace::all());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_union_membership(dst1 in 0u32..8, dst2 in 0u32..8, probe in 0u32..8, port in any::<u16>()) {
            let a = HeaderSpace::from(dst_cube(dst1));
            let b = HeaderSpace::from(dst_cube(dst2));
            let u = a.union(&b);
            let hp = h(probe, port);
            prop_assert_eq!(u.contains(&hp), a.contains(&hp) || b.contains(&hp));
        }

        #[test]
        fn prop_intersect_membership(dst in 0u32..8, port in 0u16..8, probe_dst in 0u32..8, probe_port in 0u16..8) {
            let a = HeaderSpace::from(dst_cube(dst));
            let b = HeaderSpace::from(Cube::wildcard().with_field(Field::L4Dst, u64::from(port)));
            let i = a.intersect(&b);
            let hp = h(probe_dst, probe_port);
            prop_assert_eq!(i.contains(&hp), a.contains(&hp) && b.contains(&hp));
        }

        #[test]
        fn prop_subtract_membership(dst in 0u32..4, port in 0u16..4, probe_dst in 0u32..4, probe_port in 0u16..4) {
            let a = HeaderSpace::from(dst_cube(dst));
            let b = HeaderSpace::from(Cube::wildcard().with_field(Field::L4Dst, u64::from(port)));
            let d = a.subtract(&b);
            let hp = h(probe_dst, probe_port);
            prop_assert_eq!(d.contains(&hp), a.contains(&hp) && !b.contains(&hp));
        }

        #[test]
        fn prop_simplify_preserves_membership(dsts in proptest::collection::vec(0u32..6, 0..6), probe in 0u32..6) {
            let cubes: Vec<Cube> = dsts.iter().map(|d| dst_cube(*d)).collect();
            let raw_contains = cubes.iter().any(|c| c.contains(&h(probe, 1)));
            let hs = HeaderSpace::from_cubes(cubes);
            prop_assert_eq!(hs.contains(&h(probe, 1)), raw_contains);
        }

        #[test]
        fn prop_demorgan_on_samples(dst1 in 0u32..4, dst2 in 0u32..4, probe in 0u32..4) {
            // complement(a ∪ b) == complement(a) ∩ complement(b) — checked by membership.
            let a = HeaderSpace::from(dst_cube(dst1));
            let b = HeaderSpace::from(dst_cube(dst2));
            let lhs = a.union(&b).complement();
            let rhs = a.complement().intersect(&b.complement());
            let hp = h(probe, 3);
            prop_assert_eq!(lhs.contains(&hp), rhs.contains(&hp));
        }
    }
}
