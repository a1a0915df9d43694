//! 48-bit MAC addresses.

use core::fmt;
use core::str::FromStr;

/// A 48-bit IEEE 802 MAC address.
///
/// # Example
///
/// ```
/// use wifiprint_ieee80211::MacAddr;
///
/// let a: MacAddr = "00:1b:77:12:34:56".parse()?;
/// assert_eq!(a.octets()[0], 0x00);
/// assert!(!a.is_broadcast());
/// assert_eq!(a.to_string(), "00:1b:77:12:34:56");
/// # Ok::<(), wifiprint_ieee80211::ParseMacAddrError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MacAddr([u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);
    /// The all-zero address, conventionally "unspecified".
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Creates an address from its six octets.
    #[inline]
    #[must_use] 
    pub const fn new(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }

    /// Builds a locally-administered unicast address from a 40-bit index.
    ///
    /// Handy for simulations that need many distinct stable addresses: the
    /// first octet is fixed to `0x02` (locally administered, unicast).
    #[inline]
    #[must_use] 
    pub const fn from_index(index: u64) -> Self {
        MacAddr([
            0x02,
            (index >> 32) as u8,
            (index >> 24) as u8,
            (index >> 16) as u8,
            (index >> 8) as u8,
            index as u8,
        ])
    }

    /// Builds a universally-administered (burned-in-looking) unicast
    /// address from a 40-bit index: the vendor-OUI counterpart of
    /// [`MacAddr::from_index`], with both the U/L and I/G bits clear.
    ///
    /// Rotation scenarios use this for a device's *stable* hardware
    /// address — a MAC-randomization linker's pre-gate can tell it apart
    /// from a randomized one by the U/L bit alone.
    #[inline]
    #[must_use] 
    pub const fn universal_from_index(index: u64) -> Self {
        MacAddr([
            0x00,
            (index >> 32) as u8,
            (index >> 24) as u8,
            (index >> 16) as u8,
            (index >> 8) as u8,
            index as u8,
        ])
    }

    /// Derives a randomized locally-administered unicast address from a
    /// 64-bit seed, the shape OS MAC randomization emits: the seed is
    /// bit-mixed (`SplitMix64` finalizer) across all six octets, then the
    /// U/L bit is forced on and the I/G bit forced off.
    ///
    /// Deterministic in the seed; distinct seeds collide only with the
    /// usual 46-bit birthday probability.
    #[inline]
    #[must_use] 
    pub const fn randomized(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        MacAddr([
            ((z >> 40) as u8 | 0x02) & !0x01,
            (z >> 32) as u8,
            (z >> 24) as u8,
            (z >> 16) as u8,
            (z >> 8) as u8,
            z as u8,
        ])
    }

    /// The six octets of the address.
    #[inline]
    #[must_use] 
    pub const fn octets(self) -> [u8; 6] {
        self.0
    }

    /// The 24-bit organisationally-unique identifier (first three octets).
    #[inline]
    #[must_use] 
    pub const fn oui(self) -> [u8; 3] {
        [self.0[0], self.0[1], self.0[2]]
    }

    /// `true` for `ff:ff:ff:ff:ff:ff`.
    #[inline]
    #[must_use] 
    pub fn is_broadcast(self) -> bool {
        self == Self::BROADCAST
    }

    /// `true` if the group bit (I/G, lowest bit of the first octet) is set.
    /// Broadcast is also a group address.
    #[inline]
    #[must_use] 
    pub const fn is_multicast(self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// `true` if the locally-administered (U/L) bit is set.
    ///
    /// Randomized MACs (iOS/Android/Windows privacy addresses) set this
    /// bit, so it is the cheap first gate of a MAC-randomization linker:
    /// an address with the bit *clear* is burned-in and cannot rotate.
    #[inline]
    #[must_use] 
    pub const fn is_locally_administered(self) -> bool {
        self.0[0] & 0x02 != 0
    }

    /// `true` if the U/L bit is clear: a universally-administered
    /// (vendor burned-in) address. The complement of
    /// [`MacAddr::is_locally_administered`].
    #[inline]
    #[must_use] 
    pub const fn is_universally_administered(self) -> bool {
        !self.is_locally_administered()
    }

    /// `true` for an individual (non-group) address — the I/G bit is
    /// clear.
    #[inline]
    #[must_use] 
    pub const fn is_unicast(self) -> bool {
        !self.is_multicast()
    }

    /// `true` if the address carries the given 24-bit vendor OUI prefix
    /// (first three octets).
    #[inline]
    #[must_use] 
    pub fn oui_matches(self, prefix: [u8; 3]) -> bool {
        self.oui() == prefix
    }

    /// Returns a copy with the OUI (first three octets) replaced,
    /// keeping the device-specific low 24 bits.
    #[inline]
    #[must_use] 
    pub const fn with_oui(self, oui: [u8; 3]) -> Self {
        MacAddr([oui[0], oui[1], oui[2], self.0[3], self.0[4], self.0[5]])
    }

    /// Reads an address from the first six bytes of `buf`.
    ///
    /// Returns `None` if `buf` is shorter than six bytes.
    #[inline]
    #[must_use] 
    pub fn from_slice(buf: &[u8]) -> Option<Self> {
        let octets: [u8; 6] = buf.get(..6)?.try_into().ok()?;
        Some(MacAddr(octets))
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

impl From<[u8; 6]> for MacAddr {
    fn from(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }
}

impl From<MacAddr> for [u8; 6] {
    fn from(addr: MacAddr) -> Self {
        addr.0
    }
}

impl AsRef<[u8]> for MacAddr {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Error returned when parsing a textual MAC address fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMacAddrError {
    input: String,
}

impl fmt::Display for ParseMacAddrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid MAC address syntax: {:?}", self.input)
    }
}

impl std::error::Error for ParseMacAddrError {}

impl FromStr for MacAddr {
    type Err = ParseMacAddrError;

    /// Parses `aa:bb:cc:dd:ee:ff` or `aa-bb-cc-dd-ee-ff` (case-insensitive).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseMacAddrError { input: s.to_owned() };
        let sep = if s.contains('-') { '-' } else { ':' };
        let mut octets = [0u8; 6];
        let mut parts = s.split(sep);
        for octet in &mut octets {
            let part = parts.next().ok_or_else(err)?;
            if part.len() != 2 {
                return Err(err());
            }
            *octet = u8::from_str_radix(part, 16).map_err(|_| err())?;
        }
        if parts.next().is_some() {
            return Err(err());
        }
        Ok(MacAddr(octets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_round_trip() {
        let a = MacAddr::new([0xde, 0xad, 0xbe, 0xef, 0x00, 0x42]);
        let s = a.to_string();
        assert_eq!(s, "de:ad:be:ef:00:42");
        assert_eq!(s.parse::<MacAddr>().unwrap(), a);
    }

    #[test]
    fn parse_dash_separator_and_case() {
        let a: MacAddr = "DE-AD-BE-EF-00-42".parse().unwrap();
        assert_eq!(a, MacAddr::new([0xde, 0xad, 0xbe, 0xef, 0x00, 0x42]));
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!("".parse::<MacAddr>().is_err());
        assert!("00:11:22:33:44".parse::<MacAddr>().is_err());
        assert!("00:11:22:33:44:55:66".parse::<MacAddr>().is_err());
        assert!("0g:11:22:33:44:55".parse::<MacAddr>().is_err());
        assert!("001:1:22:33:44:55".parse::<MacAddr>().is_err());
    }

    #[test]
    fn classification_bits() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::BROADCAST.is_multicast());
        let mcast = MacAddr::new([0x01, 0x00, 0x5e, 0, 0, 1]);
        assert!(mcast.is_multicast());
        assert!(!mcast.is_broadcast());
        let local = MacAddr::from_index(7);
        assert!(local.is_locally_administered());
        assert!(!local.is_multicast());
    }

    #[test]
    fn from_index_is_unique_and_stable() {
        let a = MacAddr::from_index(0x01_0203_0405);
        assert_eq!(a.octets(), [0x02, 0x01, 0x02, 0x03, 0x04, 0x05]);
        assert_ne!(MacAddr::from_index(1), MacAddr::from_index(2));
    }

    #[test]
    fn from_slice_handles_short_input() {
        assert_eq!(MacAddr::from_slice(&[1, 2, 3]), None);
        assert_eq!(
            MacAddr::from_slice(&[1, 2, 3, 4, 5, 6, 7]),
            Some(MacAddr::new([1, 2, 3, 4, 5, 6]))
        );
    }

    #[test]
    fn oui_prefix() {
        let a = MacAddr::new([0x00, 0x1b, 0x77, 1, 2, 3]);
        assert_eq!(a.oui(), [0x00, 0x1b, 0x77]);
        assert!(a.oui_matches([0x00, 0x1b, 0x77]));
        assert!(!a.oui_matches([0x00, 0x1b, 0x78]));
        let b = a.with_oui([0xde, 0xad, 0xbe]);
        assert_eq!(b.octets(), [0xde, 0xad, 0xbe, 1, 2, 3]);
    }

    #[test]
    fn administration_bits() {
        // from_index is locally administered; universal_from_index is not.
        let local = MacAddr::from_index(0x01_0203_0405);
        let universal = MacAddr::universal_from_index(0x01_0203_0405);
        assert!(local.is_locally_administered());
        assert!(!local.is_universally_administered());
        assert!(universal.is_universally_administered());
        assert!(!universal.is_locally_administered());
        assert!(universal.is_unicast());
        // Same device-index payload, different administration bit.
        assert_eq!(local.octets()[1..], universal.octets()[1..]);
        assert_ne!(local, universal);
    }

    #[test]
    fn randomized_is_local_unicast_and_seed_deterministic() {
        for seed in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF_CAFE] {
            let a = MacAddr::randomized(seed);
            assert!(a.is_locally_administered(), "{a} from seed {seed}");
            assert!(a.is_unicast(), "{a} from seed {seed}");
            assert_eq!(a, MacAddr::randomized(seed));
        }
        assert_ne!(MacAddr::randomized(1), MacAddr::randomized(2));
        // The mixer spreads nearby seeds across the whole address, not
        // just the low octets.
        let x = MacAddr::randomized(100).octets();
        let y = MacAddr::randomized(101).octets();
        assert_ne!(x[..3], y[..3]);
    }
}
