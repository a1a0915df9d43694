//! Information elements (IEs) carried in management-frame bodies.
//!
//! Only the elements needed by the simulator's beacons, probe requests and
//! probe responses are modelled semantically; everything else round-trips as
//! [`Element::Other`].

use core::fmt;

use crate::rate::Rate;

/// Element IDs used by this crate.
pub mod ids {
    /// SSID element.
    pub const SSID: u8 = 0;
    /// Supported rates element.
    pub const SUPPORTED_RATES: u8 = 1;
    /// DS parameter set (current channel).
    pub const DS_PARAMS: u8 = 3;
    /// Traffic indication map.
    pub const TIM: u8 = 5;
    /// Extended supported rates.
    pub const EXT_SUPPORTED_RATES: u8 = 50;
    /// RSN (WPA2) element.
    pub const RSN: u8 = 48;
}

/// A single information element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Element {
    /// Network name. Zero-length means "wildcard" in probe requests /
    /// "hidden" in beacons.
    Ssid(String),
    /// Up to eight rates; the `bool` marks a rate as basic (mandatory).
    SupportedRates(Vec<(Rate, bool)>),
    /// Rates beyond the first eight.
    ExtSupportedRates(Vec<(Rate, bool)>),
    /// Current channel number.
    DsParams(u8),
    /// Traffic indication map: DTIM count, DTIM period, bitmap control and
    /// partial virtual bitmap.
    Tim {
        /// Beacons until the next DTIM.
        dtim_count: u8,
        /// Beacon interval between DTIMs.
        dtim_period: u8,
        /// Bitmap control octet.
        bitmap_control: u8,
        /// Partial virtual bitmap.
        bitmap: Vec<u8>,
    },
    /// An RSN (WPA2) element with raw contents.
    Rsn(Vec<u8>),
    /// Any element this crate does not interpret.
    Other {
        /// Element ID.
        id: u8,
        /// Raw element payload.
        data: Vec<u8>,
    },
}

impl Element {
    /// The element's on-air ID byte.
    #[must_use] 
    pub fn id(&self) -> u8 {
        match self {
            Element::Ssid(_) => ids::SSID,
            Element::SupportedRates(_) => ids::SUPPORTED_RATES,
            Element::ExtSupportedRates(_) => ids::EXT_SUPPORTED_RATES,
            Element::DsParams(_) => ids::DS_PARAMS,
            Element::Tim { .. } => ids::TIM,
            Element::Rsn(_) => ids::RSN,
            Element::Other { id, .. } => *id,
        }
    }

    /// Appends the element's TLV encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Element::Ssid(name) => {
                let bytes = name.as_bytes();
                let len = bytes.len().min(32);
                out.push(ids::SSID);
                out.push(len as u8);
                out.extend_from_slice(&bytes[..len]);
            }
            Element::SupportedRates(rates) => {
                encode_rates(ids::SUPPORTED_RATES, rates, out);
            }
            Element::ExtSupportedRates(rates) => {
                encode_rates(ids::EXT_SUPPORTED_RATES, rates, out);
            }
            Element::DsParams(channel) => {
                out.push(ids::DS_PARAMS);
                out.push(1);
                out.push(*channel);
            }
            Element::Tim { dtim_count, dtim_period, bitmap_control, bitmap } => {
                out.push(ids::TIM);
                out.push((3 + bitmap.len()) as u8);
                out.push(*dtim_count);
                out.push(*dtim_period);
                out.push(*bitmap_control);
                out.extend_from_slice(bitmap);
            }
            Element::Rsn(data) => {
                out.push(ids::RSN);
                out.push(data.len() as u8);
                out.extend_from_slice(data);
            }
            Element::Other { id, data } => {
                out.push(*id);
                out.push(data.len() as u8);
                out.extend_from_slice(data);
            }
        }
    }

    /// Encodes a list of elements to bytes.
    #[must_use] 
    pub fn encode_all(elements: &[Element]) -> Vec<u8> {
        let mut out = Vec::new();
        for e in elements {
            e.encode_into(&mut out);
        }
        out
    }

    /// Parses all elements from `buf`, stopping at the first malformed TLV.
    #[must_use] 
    pub fn parse_all(buf: &[u8]) -> Vec<Element> {
        let mut out = Vec::new();
        let mut off = 0;
        while off + 2 <= buf.len() {
            let id = buf[off];
            let len = buf[off + 1] as usize;
            let Some(data) = buf.get(off + 2..off + 2 + len) else { break };
            out.push(Element::decode(id, data));
            off += 2 + len;
        }
        out
    }

    fn decode(id: u8, data: &[u8]) -> Element {
        match id {
            ids::SSID => Element::Ssid(String::from_utf8_lossy(data).into_owned()),
            ids::SUPPORTED_RATES => Element::SupportedRates(decode_rates(data)),
            ids::EXT_SUPPORTED_RATES => Element::ExtSupportedRates(decode_rates(data)),
            ids::DS_PARAMS if data.len() == 1 => Element::DsParams(data[0]),
            ids::TIM if data.len() >= 3 => Element::Tim {
                dtim_count: data[0],
                dtim_period: data[1],
                bitmap_control: data[2],
                bitmap: data[3..].to_vec(),
            },
            ids::RSN => Element::Rsn(data.to_vec()),
            _ => Element::Other { id, data: data.to_vec() },
        }
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Element::Ssid(s) => write!(f, "SSID({s:?})"),
            Element::SupportedRates(r) => write!(f, "Rates({} entries)", r.len()),
            Element::ExtSupportedRates(r) => write!(f, "ExtRates({} entries)", r.len()),
            Element::DsParams(c) => write!(f, "Channel({c})"),
            Element::Tim { dtim_count, dtim_period, .. } => {
                write!(f, "TIM(count={dtim_count}, period={dtim_period})")
            }
            Element::Rsn(_) => write!(f, "RSN"),
            Element::Other { id, data } => write!(f, "IE(id={id}, {} bytes)", data.len()),
        }
    }
}

fn encode_rates(id: u8, rates: &[(Rate, bool)], out: &mut Vec<u8>) {
    out.push(id);
    out.push(rates.len() as u8);
    for (rate, basic) in rates {
        let raw = rate.to_raw() | if *basic { 0x80 } else { 0 };
        out.push(raw);
    }
}

fn decode_rates(data: &[u8]) -> Vec<(Rate, bool)> {
    data.iter()
        .filter_map(|&b| {
            let basic = b & 0x80 != 0;
            Rate::from_raw(b & 0x7f).map(|r| (r, basic))
        })
        .collect()
}

/// Builds the body of a beacon or probe-response frame: the 12-byte fixed
/// part (timestamp, beacon interval in TU, capability info) followed by the
/// given elements.
#[must_use] 
pub fn beacon_body(
    timestamp_us: u64,
    beacon_interval_tu: u16,
    capabilities: u16,
    elements: &[Element],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + 64);
    out.extend_from_slice(&timestamp_us.to_le_bytes());
    out.extend_from_slice(&beacon_interval_tu.to_le_bytes());
    out.extend_from_slice(&capabilities.to_le_bytes());
    out.extend_from_slice(&Element::encode_all(elements));
    out
}

/// Builds the body of a probe-request frame (SSID + supported rates).
#[must_use] 
pub fn probe_req_body(ssid: &str, rates: &[(Rate, bool)]) -> Vec<u8> {
    Element::encode_all(&[
        Element::Ssid(ssid.to_owned()),
        Element::SupportedRates(rates.to_vec()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elements_round_trip() {
        let elements = vec![
            Element::Ssid("homenet".into()),
            Element::SupportedRates(vec![(Rate::R1M, true), (Rate::R54M, false)]),
            Element::DsParams(6),
            Element::Tim { dtim_count: 1, dtim_period: 3, bitmap_control: 0, bitmap: vec![0x02] },
            Element::Rsn(vec![1, 0]),
            Element::Other { id: 221, data: vec![0x00, 0x50, 0xf2] },
        ];
        let bytes = Element::encode_all(&elements);
        let parsed = Element::parse_all(&bytes);
        assert_eq!(parsed, elements);
    }

    #[test]
    fn ssid_truncated_to_32_bytes() {
        let long = "x".repeat(40);
        let mut out = Vec::new();
        Element::Ssid(long).encode_into(&mut out);
        assert_eq!(out[1], 32);
        assert_eq!(out.len(), 2 + 32);
    }

    #[test]
    fn parse_stops_at_malformed_tlv() {
        // Second element claims 10 bytes but only 2 remain.
        let buf = [0u8, 1, b'a', 3, 10, 1, 2];
        let parsed = Element::parse_all(&buf);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0], Element::Ssid("a".into()));
    }

    #[test]
    fn beacon_body_layout() {
        let body = beacon_body(0x1122_3344_5566_7788, 100, 0x0431, &[Element::DsParams(6)]);
        assert_eq!(&body[..8], &0x1122_3344_5566_7788u64.to_le_bytes());
        assert_eq!(u16::from_le_bytes([body[8], body[9]]), 100);
        assert_eq!(u16::from_le_bytes([body[10], body[11]]), 0x0431);
        let elements = Element::parse_all(&body[12..]);
        assert_eq!(elements, vec![Element::DsParams(6)]);
    }

    #[test]
    fn probe_req_body_contains_wildcard_ssid() {
        let body = probe_req_body("", &[(Rate::R1M, true)]);
        let parsed = Element::parse_all(&body);
        assert_eq!(parsed[0], Element::Ssid(String::new()));
        assert!(matches!(parsed[1], Element::SupportedRates(ref r) if r.len() == 1));
    }

    #[test]
    fn rate_decode_skips_zero() {
        // 0x80 alone encodes "basic rate 0", which is invalid and skipped.
        let rates = decode_rates(&[0x80, 0x82, 0x0c]);
        assert_eq!(rates, vec![(Rate::R1M, true), (Rate::R6M, false)]);
    }
}
