//! Ternary wildcard cubes over the canonical header bits.
//!
//! A [`Cube`] assigns each of the [`HEADER_BITS`] header bits one of three
//! values: `0`, `1` or `*` (don't care). It therefore describes a
//! rectangular set ("cube") of concrete headers. Cubes are the building block
//! of [`HeaderSpace`](crate::HeaderSpace) (unions of cubes) and of rule match
//! expressions.
//!
//! Internally a cube is a pair of bitmasks: `care` (1 = the bit is fixed) and
//! `value` (the required value where `care` is 1, always 0 where `care` is 0
//! so equality of cubes is structural equality of the masks).

use std::fmt;

use rvaas_types::{Field, Header, HEADER_BITS};

/// Number of 64-bit words needed to hold one bit per header bit.
pub(crate) const WORDS: usize = HEADER_BITS.div_ceil(64);

/// The words `field` occupies, low bits first, as `(word, shift, mask,
/// below)`: the field's bits in that word are `mask`, starting at bit
/// `shift`, and `below` of the field's bits lie in earlier words.
fn field_spans(field: Field) -> impl Iterator<Item = (usize, usize, u64, usize)> {
    let spec = field.spec();
    let mut below = 0;
    std::iter::from_fn(move || {
        if below >= spec.width {
            return None;
        }
        let (w, shift) = ((spec.offset + below) / 64, (spec.offset + below) % 64);
        let n = (64 - shift).min(spec.width - below);
        let span = (w, shift, (u64::MAX >> (64 - n)) << shift, below);
        below += n;
        Some(span)
    })
}

/// Mask of valid bits in the last word.
fn last_word_mask() -> u64 {
    let rem = HEADER_BITS % 64;
    if rem == 0 {
        u64::MAX
    } else {
        (1u64 << rem) - 1
    }
}

/// A ternary (0/1/*) wildcard expression over the canonical header layout.
///
/// The `Ord` implementation is the structural order of the `(care, value)`
/// masks — meaningless semantically, but it lets cubes key ordered maps
/// (the snapshot's flow-table index relies on this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cube {
    care: [u64; WORDS],
    value: [u64; WORDS],
}

impl Default for Cube {
    fn default() -> Self {
        Cube::wildcard()
    }
}

impl Cube {
    /// The cube matching every header (`*` in every bit).
    #[must_use]
    pub fn wildcard() -> Self {
        Cube {
            care: [0; WORDS],
            value: [0; WORDS],
        }
    }

    /// The cube matching exactly one concrete header.
    #[must_use]
    pub fn exact(header: &Header) -> Self {
        let mut cube = Cube {
            care: [u64::MAX; WORDS],
            value: [0; WORDS],
        };
        cube.care[WORDS - 1] &= last_word_mask();
        for (i, bit) in header.to_bits().iter().enumerate() {
            if *bit {
                cube.value[i / 64] |= 1u64 << (i % 64);
            }
        }
        cube
    }

    /// Returns the bit at position `i`: `None` means `*`, otherwise the value.
    #[must_use]
    pub fn bit(&self, i: usize) -> Option<bool> {
        debug_assert!(i < HEADER_BITS);
        let (w, b) = (i / 64, i % 64);
        if self.care[w] >> b & 1 == 1 {
            Some(self.value[w] >> b & 1 == 1)
        } else {
            None
        }
    }

    /// Sets bit `i` to a fixed value.
    pub fn set_bit(&mut self, i: usize, value: bool) {
        debug_assert!(i < HEADER_BITS);
        let (w, b) = (i / 64, i % 64);
        self.care[w] |= 1u64 << b;
        if value {
            self.value[w] |= 1u64 << b;
        } else {
            self.value[w] &= !(1u64 << b);
        }
    }

    /// Sets bit `i` back to `*`.
    pub fn clear_bit(&mut self, i: usize) {
        debug_assert!(i < HEADER_BITS);
        let (w, b) = (i / 64, i % 64);
        self.care[w] &= !(1u64 << b);
        self.value[w] &= !(1u64 << b);
    }

    /// Constrains `field` to exactly `value` (builder style).
    #[must_use]
    pub fn with_field(mut self, field: Field, value: u64) -> Self {
        self.constrain_field(field, value);
        self
    }

    /// Constrains the top `prefix_len` bits of `field` (prefix match, e.g.
    /// an IPv4 `/24`). `prefix_len` is clamped to the field width.
    #[must_use]
    pub fn with_field_prefix(mut self, field: Field, value: u64, prefix_len: usize) -> Self {
        let spec = field.spec();
        let plen = prefix_len.min(spec.width);
        // The prefix covers the *most significant* `plen` bits of the field.
        for i in 0..plen {
            let bit_in_field = spec.width - 1 - i;
            let bit_value = (value >> bit_in_field) & 1 == 1;
            self.set_bit(spec.offset + bit_in_field, bit_value);
        }
        self
    }

    /// Constrains `field` to exactly `value` in place (bits of `value`
    /// above the field's width are ignored). One mask operation per word
    /// the field touches, not one per bit.
    pub fn constrain_field(&mut self, field: Field, value: u64) {
        for (w, shift, mask, below) in field_spans(field) {
            self.care[w] |= mask;
            self.value[w] = (self.value[w] & !mask) | ((value >> below) << shift & mask);
        }
    }

    /// Returns `Some(v)` if `field` is fully specified with value `v`,
    /// `None` if any of its bits is a wildcard.
    #[must_use]
    pub fn field_exact(&self, field: Field) -> Option<u64> {
        let mut out = 0u64;
        for (w, shift, mask, below) in field_spans(field) {
            if self.care[w] & mask != mask {
                return None;
            }
            out |= ((self.value[w] & mask) >> shift) << below;
        }
        Some(out)
    }

    /// True if the concrete header is contained in the cube.
    #[must_use]
    pub fn contains(&self, header: &Header) -> bool {
        let exact = Cube::exact(header);
        for w in 0..WORDS {
            if (exact.value[w] ^ self.value[w]) & self.care[w] != 0 {
                return false;
            }
        }
        true
    }

    /// Intersection of two cubes, or `None` if they are disjoint.
    #[must_use]
    pub fn intersect(&self, other: &Cube) -> Option<Cube> {
        let mut out = Cube::wildcard();
        for w in 0..WORDS {
            // Conflict where both care and disagree.
            if (self.value[w] ^ other.value[w]) & (self.care[w] & other.care[w]) != 0 {
                return None;
            }
            out.care[w] = self.care[w] | other.care[w];
            out.value[w] = (self.value[w] & self.care[w]) | (other.value[w] & other.care[w]);
        }
        Some(out)
    }

    /// True if the two cubes share at least one concrete header.
    #[must_use]
    pub fn overlaps(&self, other: &Cube) -> bool {
        for w in 0..WORDS {
            if (self.value[w] ^ other.value[w]) & (self.care[w] & other.care[w]) != 0 {
                return false;
            }
        }
        true
    }

    /// True if every header in `self` is also in `other`.
    #[must_use]
    pub fn is_subset_of(&self, other: &Cube) -> bool {
        for w in 0..WORDS {
            // `other` must not care about bits `self` leaves free…
            if other.care[w] & !self.care[w] != 0 {
                return false;
            }
            // …and must agree wherever it cares.
            if (self.value[w] ^ other.value[w]) & other.care[w] != 0 {
                return false;
            }
        }
        true
    }

    /// Complement of the cube as a list of disjoint cubes (one per fixed bit).
    #[must_use]
    pub fn complement(&self) -> Vec<Cube> {
        let mut out = Vec::new();
        // The classic construction: for the i-th fixed bit, emit a cube that
        // agrees with `self` on all earlier fixed bits and differs on bit i;
        // this yields *disjoint* cubes covering everything outside `self`.
        let mut prefix = Cube::wildcard();
        for i in 0..HEADER_BITS {
            if let Some(v) = self.bit(i) {
                let mut c = prefix;
                c.set_bit(i, !v);
                out.push(c);
                prefix.set_bit(i, v);
            }
        }
        out
    }

    /// `self` minus `other`, as a list of disjoint cubes.
    #[must_use]
    pub fn subtract(&self, other: &Cube) -> Vec<Cube> {
        if !self.overlaps(other) {
            return vec![*self];
        }
        if self.is_subset_of(other) {
            return Vec::new();
        }
        other
            .complement()
            .iter()
            .filter_map(|c| self.intersect(c))
            .collect()
    }

    /// Number of wildcard (free) bits; `2^free_bits()` is the cube's size.
    #[must_use]
    pub fn free_bits(&self) -> u32 {
        let mut fixed = 0;
        for w in 0..WORDS {
            let mask = if w == WORDS - 1 {
                last_word_mask()
            } else {
                u64::MAX
            };
            fixed += (self.care[w] & mask).count_ones();
        }
        HEADER_BITS as u32 - fixed
    }

    /// Applies a rewrite: bits selected by `mask_cube`'s fixed bits are set to
    /// `mask_cube`'s values (this is how OpenFlow set-field actions transform
    /// a header space).
    #[must_use]
    pub fn rewrite(&self, mask_cube: &Cube) -> Cube {
        let mut out = *self;
        for w in 0..WORDS {
            out.care[w] |= mask_cube.care[w];
            out.value[w] =
                (out.value[w] & !mask_cube.care[w]) | (mask_cube.value[w] & mask_cube.care[w]);
        }
        out
    }

    /// Picks an arbitrary concrete header contained in the cube (wildcard
    /// bits become 0).
    #[must_use]
    pub fn sample(&self) -> Header {
        let mut bits = vec![false; HEADER_BITS];
        for (i, bit) in bits.iter_mut().enumerate() {
            *bit = self.bit(i) == Some(true);
        }
        Header::from_bits(&bits)
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Field-wise display; wildcard fields are omitted.
        let mut first = true;
        for field in Field::ALL {
            let spec = field.spec();
            let all_free = (0..spec.width).all(|i| self.bit(spec.offset + i).is_none());
            if all_free {
                continue;
            }
            if !first {
                write!(f, " ")?;
            }
            first = false;
            match self.field_exact(field) {
                Some(v) => write!(f, "{field}={v:#x}")?,
                None => {
                    write!(f, "{field}=")?;
                    for i in (0..spec.width).rev() {
                        match self.bit(spec.offset + i) {
                            Some(true) => write!(f, "1")?,
                            Some(false) => write!(f, "0")?,
                            None => write!(f, "*")?,
                        }
                    }
                }
            }
        }
        if first {
            write!(f, "*")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rvaas_types::Field;

    fn header(dst: u32, port: u16) -> Header {
        Header::builder().ip_src(1).ip_dst(dst).l4_dst(port).build()
    }

    #[test]
    fn wildcard_contains_everything() {
        let w = Cube::wildcard();
        assert!(w.contains(&header(0, 0)));
        assert!(w.contains(&header(u32::MAX, u16::MAX)));
        assert_eq!(w.free_bits(), HEADER_BITS as u32);
    }

    #[test]
    fn exact_contains_only_itself() {
        let h = header(0x0a000001, 80);
        let c = Cube::exact(&h);
        assert!(c.contains(&h));
        assert!(!c.contains(&header(0x0a000002, 80)));
        assert_eq!(c.free_bits(), 0);
        assert_eq!(c.sample(), h);
    }

    #[test]
    fn field_constraint_matches_field_values() {
        let c = Cube::wildcard().with_field(Field::IpDst, 0x0a000001);
        assert!(c.contains(&header(0x0a000001, 80)));
        assert!(c.contains(&header(0x0a000001, 443)));
        assert!(!c.contains(&header(0x0a000002, 80)));
        assert_eq!(c.field_exact(Field::IpDst), Some(0x0a000001));
        assert_eq!(c.field_exact(Field::L4Dst), None);
    }

    #[test]
    fn prefix_constraint_matches_prefix() {
        let c = Cube::wildcard().with_field_prefix(Field::IpDst, 0x0a000000, 24);
        assert!(c.contains(&header(0x0a000001, 80)));
        assert!(c.contains(&header(0x0a0000ff, 80)));
        assert!(!c.contains(&header(0x0a000100, 80)));
        assert_eq!(c.free_bits(), HEADER_BITS as u32 - 24);
    }

    #[test]
    fn prefix_zero_length_is_wildcard_for_field() {
        let c = Cube::wildcard().with_field_prefix(Field::IpDst, 0x0a000000, 0);
        assert_eq!(c, Cube::wildcard());
    }

    #[test]
    fn intersect_disjoint_returns_none() {
        let a = Cube::wildcard().with_field(Field::IpDst, 1);
        let b = Cube::wildcard().with_field(Field::IpDst, 2);
        assert_eq!(a.intersect(&b), None);
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn intersect_combines_constraints() {
        let a = Cube::wildcard().with_field(Field::IpDst, 7);
        let b = Cube::wildcard().with_field(Field::L4Dst, 80);
        let c = a.intersect(&b).expect("compatible");
        assert_eq!(c.field_exact(Field::IpDst), Some(7));
        assert_eq!(c.field_exact(Field::L4Dst), Some(80));
        assert!(a.overlaps(&b));
    }

    #[test]
    fn subset_relation() {
        let narrow = Cube::wildcard()
            .with_field(Field::IpDst, 7)
            .with_field(Field::L4Dst, 80);
        let wide = Cube::wildcard().with_field(Field::IpDst, 7);
        assert!(narrow.is_subset_of(&wide));
        assert!(!wide.is_subset_of(&narrow));
        assert!(wide.is_subset_of(&Cube::wildcard()));
        assert!(narrow.is_subset_of(&narrow));
    }

    #[test]
    fn complement_covers_everything_but_the_cube() {
        let c = Cube::wildcard().with_field(Field::IpProto, 17);
        let comp = c.complement();
        assert_eq!(comp.len(), 8); // one cube per fixed bit
        let inside = header(1, 1); // builder sets proto 0 by default
        let mut h_in = inside;
        h_in.ip_proto = 17;
        assert!(comp.iter().all(|k| !k.contains(&h_in)));
        let mut h_out = inside;
        h_out.ip_proto = 16;
        assert!(comp.iter().any(|k| k.contains(&h_out)));
        // Complement cubes are pairwise disjoint.
        for i in 0..comp.len() {
            for j in i + 1..comp.len() {
                assert!(!comp[i].overlaps(&comp[j]), "cubes {i} and {j} overlap");
            }
        }
    }

    #[test]
    fn subtract_disjoint_is_identity() {
        let a = Cube::wildcard().with_field(Field::IpDst, 1);
        let b = Cube::wildcard().with_field(Field::IpDst, 2);
        assert_eq!(a.subtract(&b), vec![a]);
    }

    #[test]
    fn subtract_superset_is_empty() {
        let a = Cube::wildcard().with_field(Field::IpDst, 1);
        assert!(a.subtract(&Cube::wildcard()).is_empty());
    }

    #[test]
    fn subtract_partial_overlap() {
        let all = Cube::wildcard();
        let udp = Cube::wildcard().with_field(Field::IpProto, 17);
        let rest = all.subtract(&udp);
        let mut h_udp = header(1, 1);
        h_udp.ip_proto = 17;
        let mut h_tcp = header(1, 1);
        h_tcp.ip_proto = 6;
        assert!(rest.iter().all(|c| !c.contains(&h_udp)));
        assert!(rest.iter().any(|c| c.contains(&h_tcp)));
    }

    #[test]
    fn rewrite_sets_selected_bits() {
        let input = Cube::wildcard().with_field(Field::IpDst, 5);
        let rewrite = Cube::wildcard().with_field(Field::Vlan, 100);
        let out = input.rewrite(&rewrite);
        assert_eq!(out.field_exact(Field::IpDst), Some(5));
        assert_eq!(out.field_exact(Field::Vlan), Some(100));
        // Rewriting an already-constrained field replaces the value.
        let re2 = Cube::wildcard().with_field(Field::IpDst, 9);
        assert_eq!(input.rewrite(&re2).field_exact(Field::IpDst), Some(9));
    }

    #[test]
    fn display_shows_constrained_fields_only() {
        assert_eq!(Cube::wildcard().to_string(), "*");
        let c = Cube::wildcard().with_field(Field::L4Dst, 80);
        assert_eq!(c.to_string(), "l4_dst=0x50");
        let p = Cube::wildcard().with_field_prefix(Field::Vlan, 0x800, 1);
        assert!(p.to_string().starts_with("vlan=1"));
    }

    #[test]
    fn set_clear_bit_roundtrip() {
        let mut c = Cube::wildcard();
        c.set_bit(5, true);
        assert_eq!(c.bit(5), Some(true));
        c.set_bit(5, false);
        assert_eq!(c.bit(5), Some(false));
        c.clear_bit(5);
        assert_eq!(c.bit(5), None);
        assert_eq!(c, Cube::wildcard());
    }

    fn arb_header() -> impl Strategy<Value = Header> {
        (
            any::<u16>(),
            0u16..4096,
            any::<u32>(),
            any::<u32>(),
            any::<u8>(),
            any::<u16>(),
            any::<u16>(),
        )
            .prop_map(|(e, v, s, d, p, sp, dp)| Header {
                eth_type: e,
                vlan: v,
                ip_src: s,
                ip_dst: d,
                ip_proto: p,
                l4_src: sp,
                l4_dst: dp,
            })
    }

    proptest! {
        /// The word-wise `constrain_field` sets exactly the bits a
        /// bit-by-bit `set_bit` loop sets, on a cube already constrained
        /// elsewhere and in the same field, whatever `value` holds above
        /// the field's width; the word-wise `field_exact` reads what a
        /// bit-by-bit loop reads.
        #[test]
        fn prop_constrain_field_equals_setting_each_bit(
            field in 0usize..7,
            value in any::<u64>(),
            h in arb_header(),
            earlier in 0usize..7,
            len in 0usize..33,
        ) {
            let (field, earlier) = (Field::ALL[field], Field::ALL[earlier]);
            let start = Cube::wildcard().with_field_prefix(earlier, u64::from(h.ip_dst), len);
            let mut bitwise = start;
            let spec = field.spec();
            for i in 0..spec.width {
                bitwise.set_bit(spec.offset + i, (value >> i) & 1 == 1);
            }
            prop_assert_eq!(start.with_field(field, value), bitwise);
            // And `field_exact` reads it back bit by bit: the value, or
            // nothing while one of the field's bits is a wildcard.
            let exact = |cube: &Cube, field: Field| -> Option<u64> {
                let spec = field.spec();
                (0..spec.width).try_fold(0u64, |out, i| {
                    cube.bit(spec.offset + i).map(|b| out | u64::from(b) << i)
                })
            };
            for cube in [bitwise, start] {
                for field in [field, earlier] {
                    prop_assert_eq!(cube.field_exact(field), exact(&cube, field));
                }
            }
        }

        #[test]
        fn prop_exact_cube_contains_its_header(h in arb_header()) {
            prop_assert!(Cube::exact(&h).contains(&h));
        }

        #[test]
        fn prop_intersection_symmetric_and_sound(h in arb_header(), dst in any::<u32>(), port in any::<u16>()) {
            let a = Cube::wildcard().with_field(Field::IpDst, u64::from(dst));
            let b = Cube::wildcard().with_field(Field::L4Dst, u64::from(port));
            let ab = a.intersect(&b);
            let ba = b.intersect(&a);
            prop_assert_eq!(ab, ba);
            if let Some(c) = ab {
                // Membership in the intersection equals membership in both.
                prop_assert_eq!(c.contains(&h), a.contains(&h) && b.contains(&h));
            }
        }

        #[test]
        fn prop_complement_partitions_membership(h in arb_header(), proto in any::<u8>()) {
            let c = Cube::wildcard().with_field(Field::IpProto, u64::from(proto));
            let comp = c.complement();
            let in_cube = c.contains(&h);
            let in_comp = comp.iter().any(|k| k.contains(&h));
            prop_assert_eq!(in_cube, !in_comp);
        }

        #[test]
        fn prop_subtract_semantics(h in arb_header(), a_dst in any::<u32>(), b_port in any::<u16>()) {
            let a = Cube::wildcard().with_field(Field::IpDst, u64::from(a_dst));
            let b = Cube::wildcard().with_field(Field::L4Dst, u64::from(b_port));
            let diff = a.subtract(&b);
            let in_diff = diff.iter().any(|c| c.contains(&h));
            prop_assert_eq!(in_diff, a.contains(&h) && !b.contains(&h));
        }

        #[test]
        fn prop_subset_implies_containment(h in arb_header(), dst in any::<u32>()) {
            let narrow = Cube::exact(&h);
            let wide = Cube::wildcard().with_field(Field::IpDst, u64::from(dst));
            if narrow.is_subset_of(&wide) {
                prop_assert!(wide.contains(&h));
            }
        }
    }
}
