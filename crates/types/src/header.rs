//! The canonical packet-header layout.
//!
//! RVaaS reasons about packets both concretely (in the data-plane simulator)
//! and symbolically (in Header Space Analysis). Both views share one fixed
//! bit layout defined here: a packet header is a vector of [`HEADER_BITS`]
//! bits subdivided into the fields of [`Field`]. The concrete [`Header`]
//! struct converts losslessly to and from that bit vector, and the HSA crate
//! interprets wildcard expressions over the same layout.
//!
//! The layout covers the OpenFlow match fields the paper's mechanisms need
//! (VLAN isolation tags, IP reachability, transport ports for the in-band
//! "magic header" interception); Ethernet MAC addresses are deliberately
//! omitted to keep the symbolic representation compact — the simulated
//! switches identify hosts by IP.

use std::fmt;

/// Total number of bits in the canonical header.
pub const HEADER_BITS: usize = 132;

/// Number of bytes needed to store a packed header (rounded up).
pub const HEADER_BYTES: usize = HEADER_BITS.div_ceil(8);

/// A header field of the canonical layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Field {
    /// EtherType (16 bits), e.g. 0x0800 for IPv4.
    EthType,
    /// VLAN identifier (12 bits).
    Vlan,
    /// IPv4 source address (32 bits).
    IpSrc,
    /// IPv4 destination address (32 bits).
    IpDst,
    /// IP protocol number (8 bits), e.g. 6 = TCP, 17 = UDP.
    IpProto,
    /// Transport-layer source port (16 bits).
    L4Src,
    /// Transport-layer destination port (16 bits).
    L4Dst,
}

impl Field {
    /// All fields in layout order (lowest bit offset first).
    pub const ALL: [Field; 7] = [
        Field::EthType,
        Field::Vlan,
        Field::IpSrc,
        Field::IpDst,
        Field::IpProto,
        Field::L4Src,
        Field::L4Dst,
    ];

    /// Returns the layout specification (offset and width) of the field.
    #[must_use]
    pub fn spec(self) -> FieldSpec {
        // Offsets are cumulative over `ALL` in order.
        match self {
            Field::EthType => FieldSpec::new("eth_type", 0, 16),
            Field::Vlan => FieldSpec::new("vlan", 16, 12),
            Field::IpSrc => FieldSpec::new("ip_src", 28, 32),
            Field::IpDst => FieldSpec::new("ip_dst", 60, 32),
            Field::IpProto => FieldSpec::new("ip_proto", 92, 8),
            Field::L4Src => FieldSpec::new("l4_src", 100, 16),
            Field::L4Dst => FieldSpec::new("l4_dst", 116, 16),
        }
    }

    /// Width of the field in bits.
    #[must_use]
    pub fn width(self) -> usize {
        self.spec().width
    }

    /// Offset of the field's least-significant bit within the header vector.
    #[must_use]
    pub fn offset(self) -> usize {
        self.spec().offset
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spec().name)
    }
}

/// Offset/width description of a header field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FieldSpec {
    /// Human-readable field name.
    pub name: &'static str,
    /// Bit offset of the least-significant bit of the field.
    pub offset: usize,
    /// Width of the field in bits.
    pub width: usize,
}

impl FieldSpec {
    const fn new(name: &'static str, offset: usize, width: usize) -> Self {
        Self {
            name,
            offset,
            width,
        }
    }

    /// Maximum value representable by this field.
    #[must_use]
    pub fn max_value(&self) -> u64 {
        if self.width >= 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }
}

/// A concrete packet header following the canonical layout.
///
/// All fields are stored in host integers; [`Header::to_bits`] produces the
/// packed little-endian-by-bit representation used by Header Space Analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Header {
    /// EtherType.
    pub eth_type: u16,
    /// VLAN identifier (only the low 12 bits are meaningful).
    pub vlan: u16,
    /// IPv4 source address.
    pub ip_src: u32,
    /// IPv4 destination address.
    pub ip_dst: u32,
    /// IP protocol.
    pub ip_proto: u8,
    /// Transport source port.
    pub l4_src: u16,
    /// Transport destination port.
    pub l4_dst: u16,
}

impl Header {
    /// EtherType value used for IPv4 packets.
    pub const ETH_IPV4: u16 = 0x0800;
    /// IP protocol number for UDP.
    pub const PROTO_UDP: u8 = 17;

    /// Returns a builder for constructing headers field by field.
    #[must_use]
    pub fn builder() -> HeaderBuilder {
        HeaderBuilder::default()
    }

    /// Returns the value of `field` as a 64-bit integer.
    #[must_use]
    pub fn field(&self, field: Field) -> u64 {
        match field {
            Field::EthType => u64::from(self.eth_type),
            Field::Vlan => u64::from(self.vlan & 0x0fff),
            Field::IpSrc => u64::from(self.ip_src),
            Field::IpDst => u64::from(self.ip_dst),
            Field::IpProto => u64::from(self.ip_proto),
            Field::L4Src => u64::from(self.l4_src),
            Field::L4Dst => u64::from(self.l4_dst),
        }
    }

    /// Sets the value of `field`, truncating to the field width.
    pub fn set_field(&mut self, field: Field, value: u64) {
        let value = value & field.spec().max_value();
        match field {
            Field::EthType => self.eth_type = value as u16,
            Field::Vlan => self.vlan = (value as u16) & 0x0fff,
            Field::IpSrc => self.ip_src = value as u32,
            Field::IpDst => self.ip_dst = value as u32,
            Field::IpProto => self.ip_proto = value as u8,
            Field::L4Src => self.l4_src = value as u16,
            Field::L4Dst => self.l4_dst = value as u16,
        }
    }

    /// Returns a copy with `field` set to `value`.
    #[must_use]
    pub fn with_field(mut self, field: Field, value: u64) -> Self {
        self.set_field(field, value);
        self
    }

    /// Packs the header into a vector of [`HEADER_BITS`] booleans
    /// (index 0 = bit offset 0 of the layout).
    #[must_use]
    pub fn to_bits(&self) -> Vec<bool> {
        let mut bits = vec![false; HEADER_BITS];
        for field in Field::ALL {
            let spec = field.spec();
            let value = self.field(field);
            for i in 0..spec.width {
                bits[spec.offset + i] = (value >> i) & 1 == 1;
            }
        }
        bits
    }

    /// Reconstructs a header from a bit vector produced by [`Header::to_bits`].
    ///
    /// # Panics
    ///
    /// Panics if `bits` is shorter than [`HEADER_BITS`].
    #[must_use]
    pub fn from_bits(bits: &[bool]) -> Self {
        assert!(
            bits.len() >= HEADER_BITS,
            "bit vector too short: {} < {HEADER_BITS}",
            bits.len()
        );
        let mut header = Header::default();
        for field in Field::ALL {
            let spec = field.spec();
            let mut value = 0u64;
            for i in 0..spec.width {
                if bits[spec.offset + i] {
                    value |= 1 << i;
                }
            }
            header.set_field(field, value);
        }
        header
    }
}

impl fmt::Display for Header {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[eth=0x{:04x} vlan={} {}.{}.{}.{}:{} -> {}.{}.{}.{}:{} proto={}]",
            self.eth_type,
            self.vlan,
            self.ip_src >> 24 & 0xff,
            self.ip_src >> 16 & 0xff,
            self.ip_src >> 8 & 0xff,
            self.ip_src & 0xff,
            self.l4_src,
            self.ip_dst >> 24 & 0xff,
            self.ip_dst >> 16 & 0xff,
            self.ip_dst >> 8 & 0xff,
            self.ip_dst & 0xff,
            self.l4_dst,
            self.ip_proto,
        )
    }
}

/// Incremental builder for [`Header`] (C-BUILDER).
#[derive(Debug, Clone, Default)]
pub struct HeaderBuilder {
    header: Header,
}

impl HeaderBuilder {
    /// Sets the EtherType; defaults to IPv4 when any IP field is set.
    pub fn eth_type(&mut self, v: u16) -> &mut Self {
        self.header.eth_type = v;
        self
    }

    /// Sets the VLAN identifier (truncated to 12 bits).
    pub fn vlan(&mut self, v: u16) -> &mut Self {
        self.header.vlan = v & 0x0fff;
        self
    }

    /// Sets the IPv4 source address.
    pub fn ip_src(&mut self, v: u32) -> &mut Self {
        self.header.ip_src = v;
        self.default_ipv4();
        self
    }

    /// Sets the IPv4 destination address.
    pub fn ip_dst(&mut self, v: u32) -> &mut Self {
        self.header.ip_dst = v;
        self.default_ipv4();
        self
    }

    /// Sets the IP protocol number.
    pub fn ip_proto(&mut self, v: u8) -> &mut Self {
        self.header.ip_proto = v;
        self.default_ipv4();
        self
    }

    /// Sets the transport source port.
    pub fn l4_src(&mut self, v: u16) -> &mut Self {
        self.header.l4_src = v;
        self
    }

    /// Sets the transport destination port.
    pub fn l4_dst(&mut self, v: u16) -> &mut Self {
        self.header.l4_dst = v;
        self
    }

    /// Builds the header.
    #[must_use]
    pub fn build(&self) -> Header {
        self.header
    }

    fn default_ipv4(&mut self) {
        if self.header.eth_type == 0 {
            self.header.eth_type = Header::ETH_IPV4;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn layout_is_contiguous_and_covers_header() {
        let mut expected_offset = 0;
        for field in Field::ALL {
            let spec = field.spec();
            assert_eq!(
                spec.offset, expected_offset,
                "field {field} does not start where the previous one ended"
            );
            expected_offset += spec.width;
        }
        assert_eq!(expected_offset, HEADER_BITS);
    }

    #[test]
    fn header_bytes_rounds_up() {
        assert_eq!(HEADER_BYTES, 17);
    }

    #[test]
    fn builder_sets_ipv4_ethertype() {
        let h = Header::builder().ip_src(1).ip_dst(2).build();
        assert_eq!(h.eth_type, Header::ETH_IPV4);
    }

    #[test]
    fn field_get_set_roundtrip() {
        let mut h = Header::default();
        h.set_field(Field::IpDst, 0x0a00_0001);
        h.set_field(Field::Vlan, 0xffff); // truncated to 12 bits
        assert_eq!(h.field(Field::IpDst), 0x0a00_0001);
        assert_eq!(h.field(Field::Vlan), 0x0fff);
    }

    #[test]
    fn bits_roundtrip_simple() {
        let h = Header::builder()
            .ip_src(0xc0a8_0101)
            .ip_dst(0x0a00_0002)
            .ip_proto(Header::PROTO_UDP)
            .l4_src(1234)
            .l4_dst(4789)
            .vlan(100)
            .build();
        let bits = h.to_bits();
        assert_eq!(bits.len(), HEADER_BITS);
        assert_eq!(Header::from_bits(&bits), h);
    }

    #[test]
    fn display_formats_dotted_quad() {
        let h = Header::builder()
            .ip_src(0x0a000001)
            .ip_dst(0x0a000002)
            .build();
        let s = h.to_string();
        assert!(s.contains("10.0.0.1"), "{s}");
        assert!(s.contains("10.0.0.2"), "{s}");
    }

    #[test]
    #[should_panic(expected = "bit vector too short")]
    fn from_bits_panics_on_short_input() {
        let _ = Header::from_bits(&[false; 10]);
    }

    proptest! {
        #[test]
        fn prop_bits_roundtrip(
            eth_type in any::<u16>(),
            vlan in 0u16..4096,
            ip_src in any::<u32>(),
            ip_dst in any::<u32>(),
            ip_proto in any::<u8>(),
            l4_src in any::<u16>(),
            l4_dst in any::<u16>(),
        ) {
            let h = Header { eth_type, vlan, ip_src, ip_dst, ip_proto, l4_src, l4_dst };
            prop_assert_eq!(Header::from_bits(&h.to_bits()), h);
        }

        #[test]
        fn prop_set_field_masks_to_width(value in any::<u64>()) {
            for field in Field::ALL {
                let mut h = Header::default();
                h.set_field(field, value);
                prop_assert!(h.field(field) <= field.spec().max_value());
                prop_assert_eq!(h.field(field), value & field.spec().max_value());
            }
        }
    }
}
