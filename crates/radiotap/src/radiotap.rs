//! Radiotap header (version 0) encoding and parsing.
//!
//! Format reference: <http://www.radiotap.org/>. The header is:
//!
//! ```text
//! u8  it_version   (0)
//! u8  it_pad
//! u16 it_len       (total header length, little endian)
//! u32 it_present   (presence bitmap; bit 31 chains another bitmap word)
//! ... fields in bit order, each naturally aligned from header start ...
//! ```
//!
//! This module encodes the fields a passive monitor cares about (TSFT,
//! Flags, Rate, Channel, antenna signal/noise, antenna index, RX flags) and
//! parses headers containing any subset of the first 15 standard fields,
//! skipping unknown trailing content via `it_len`.

use wifiprint_ieee80211::Rate;

use crate::{HeaderError, RxFlags, RxInfo};

/// Presence-bit numbers from the Radiotap standard field table.
pub mod bit {
    /// TSFT: u64 MAC time in µs (alignment 8).
    pub const TSFT: u32 = 0;
    /// Flags: u8.
    pub const FLAGS: u32 = 1;
    /// Rate: u8 in 500 kb/s units.
    pub const RATE: u32 = 2;
    /// Channel: u16 frequency (MHz) + u16 flags (alignment 2).
    pub const CHANNEL: u32 = 3;
    /// Antenna signal: i8 dBm.
    pub const ANT_SIGNAL: u32 = 5;
    /// Antenna noise: i8 dBm.
    pub const ANT_NOISE: u32 = 6;
    /// TX power: i8 dBm.
    pub const DBM_TX_POWER: u32 = 10;
    /// Antenna index: u8.
    pub const ANTENNA: u32 = 11;
    /// Antenna signal in dB: u8.
    pub const DB_ANT_SIGNAL: u32 = 12;
    /// Antenna noise in dB: u8.
    pub const DB_ANT_NOISE: u32 = 13;
    /// RX flags: u16.
    pub const RX_FLAGS: u32 = 14;
    /// Bitmap extension marker.
    pub const EXT: u32 = 31;
}

/// Channel-flags bit for the 2.4 GHz band.
pub const CHAN_2GHZ: u16 = 0x0080;
/// Channel-flags bit for OFDM modulation.
pub const CHAN_OFDM: u16 = 0x0040;
/// Channel-flags bit for CCK modulation.
pub const CHAN_CCK: u16 = 0x0020;

fn align_to(offset: usize, align: usize) -> usize {
    // Every radiotap field alignment is a power of two (1, 2, 4 or 8);
    // the mask form avoids a hardware division in the per-record decode.
    debug_assert!(align.is_power_of_two());
    (offset + align - 1) & !(align - 1)
}

/// Encodes `info` as a Radiotap header.
#[must_use] 
pub fn encode(info: &RxInfo) -> Vec<u8> {
    let mut present: u32 = 0;
    // Body is assembled relative to offset 8 (after the fixed header +
    // one present word); alignment is relative to the header start.
    let mut body = Vec::with_capacity(24);
    let base = 8usize;

    let put = |body: &mut Vec<u8>, align: usize, bytes: &[u8]| {
        let pos = align_to(base + body.len(), align);
        body.resize(pos - base, 0);
        body.extend_from_slice(bytes);
    };

    if let Some(tsft) = info.tsft_us {
        present |= 1 << bit::TSFT;
        put(&mut body, 8, &tsft.to_le_bytes());
    }
    present |= 1 << bit::FLAGS;
    put(&mut body, 1, &[info.flags.to_raw()]);
    if let Some(rate) = info.rate {
        present |= 1 << bit::RATE;
        put(&mut body, 1, &[rate.to_raw()]);
    }
    if let Some(mhz) = info.channel_mhz {
        present |= 1 << bit::CHANNEL;
        let chan_flags = CHAN_2GHZ
            | match info.rate.map(wifiprint_ieee80211::Rate::modulation) {
                Some(wifiprint_ieee80211::Modulation::Ofdm) => CHAN_OFDM,
                _ => CHAN_CCK,
            };
        let mut chan = [0u8; 4];
        chan[..2].copy_from_slice(&mhz.to_le_bytes());
        chan[2..].copy_from_slice(&chan_flags.to_le_bytes());
        put(&mut body, 2, &chan);
    }
    if let Some(signal) = info.signal_dbm {
        present |= 1 << bit::ANT_SIGNAL;
        put(&mut body, 1, &[signal as u8]);
    }
    if let Some(noise) = info.noise_dbm {
        present |= 1 << bit::ANT_NOISE;
        put(&mut body, 1, &[noise as u8]);
    }
    if let Some(ant) = info.antenna {
        present |= 1 << bit::ANTENNA;
        put(&mut body, 1, &[ant]);
    }

    let total_len = 8 + body.len();
    let mut out = Vec::with_capacity(total_len);
    out.push(0); // it_version
    out.push(0); // it_pad
    out.extend_from_slice(&(total_len as u16).to_le_bytes());
    out.extend_from_slice(&present.to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Parses a Radiotap header from the start of `buf`.
///
/// Returns the decoded [`RxInfo`] and the header length (`it_len`), i.e.
/// the offset at which the 802.11 frame begins.
///
/// Fields beyond the first present word (bit 31 chained bitmaps) are
/// vendor/extension content; field decoding stops there but `it_len` still
/// positions the payload correctly.
///
/// # Errors
///
/// [`HeaderError::Truncated`] if `buf` is shorter than `it_len` or 8 bytes;
/// [`HeaderError::BadVersion`] for a nonzero version byte;
/// [`HeaderError::BadLength`] if `it_len` is smaller than the fixed header.
#[inline]
pub fn parse(buf: &[u8]) -> Result<(RxInfo, usize), HeaderError> {
    if buf.len() < 8 {
        return Err(HeaderError::Truncated { needed: 8, available: buf.len() });
    }
    if buf[0] != 0 {
        return Err(HeaderError::BadVersion(buf[0]));
    }
    let it_len = u16::from_le_bytes([buf[2], buf[3]]) as usize;
    if it_len < 8 {
        return Err(HeaderError::BadLength(it_len));
    }
    if buf.len() < it_len {
        return Err(HeaderError::Truncated { needed: it_len, available: buf.len() });
    }

    // Walk the chained present words. Only the first word's standard
    // fields are decoded — extension words describe vendor namespaces
    // whose sizes we cannot know — so nothing is collected, which keeps
    // this parse allocation-free (the replay hot path depends on that).
    let mut present = 0u32;
    let mut is_first = true;
    let mut off = 4;
    loop {
        if off + 4 > it_len {
            return Err(HeaderError::BadLength(it_len));
        }
        let word = u32::from_le_bytes(buf[off..off + 4].try_into().expect("4 bytes"));
        if is_first {
            present = word;
            is_first = false;
        }
        off += 4;
        if word & (1 << bit::EXT) == 0 {
            break;
        }
    }

    let mut info = RxInfo::default();
    let take = |off: &mut usize, align: usize, size: usize| -> Option<usize> {
        let pos = align_to(*off, align);
        if pos + size > it_len {
            return None;
        }
        *off = pos + size;
        Some(pos)
    };

    // Visit only the set bits, lowest first (radiotap field order). One
    // match per field does both the align/size step and the store — this
    // loop runs per captured record, so every branch counts.
    let mut remaining = present & ((1u32 << (bit::RX_FLAGS + 1)) - 1);
    while remaining != 0 {
        let bit_idx = remaining.trailing_zeros();
        remaining &= remaining - 1;
        match bit_idx {
            bit::TSFT => {
                let Some(pos) = take(&mut off, 8, 8) else { break };
                info.tsft_us =
                    Some(u64::from_le_bytes(buf[pos..pos + 8].try_into().expect("8 bytes")));
            }
            bit::FLAGS => {
                let Some(pos) = take(&mut off, 1, 1) else { break };
                info.flags = RxFlags::from_raw(buf[pos]);
            }
            bit::RATE => {
                let Some(pos) = take(&mut off, 1, 1) else { break };
                info.rate = Rate::from_raw(buf[pos]);
            }
            bit::CHANNEL => {
                let Some(pos) = take(&mut off, 2, 4) else { break };
                info.channel_mhz = Some(u16::from_le_bytes([buf[pos], buf[pos + 1]]));
            }
            bit::ANT_SIGNAL => {
                let Some(pos) = take(&mut off, 1, 1) else { break };
                info.signal_dbm = Some(buf[pos] as i8);
            }
            bit::ANT_NOISE => {
                let Some(pos) = take(&mut off, 1, 1) else { break };
                info.noise_dbm = Some(buf[pos] as i8);
            }
            bit::ANTENNA => {
                let Some(pos) = take(&mut off, 1, 1) else { break };
                info.antenna = Some(buf[pos]);
            }
            // Known-size fields we expose nothing from: step over them
            // so later fields stay correctly positioned.
            bit::DBM_TX_POWER | bit::DB_ANT_SIGNAL | bit::DB_ANT_NOISE => {
                if take(&mut off, 1, 1).is_none() {
                    break;
                }
            }
            _ => {
                // FHSS (bit 4), lock quality (7), TX attenuations (8, 9)
                // and RX flags (14): u16 @ 2.
                if take(&mut off, 2, 2).is_none() {
                    break;
                }
            }
        }
    }

    Ok((info, it_len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_info() -> RxInfo {
        RxInfo {
            tsft_us: Some(123_456_789_012),
            rate: Some(Rate::R11M),
            channel_mhz: Some(2437),
            signal_dbm: Some(-60),
            noise_dbm: Some(-92),
            antenna: Some(1),
            flags: RxFlags::FCS_INCLUDED | RxFlags::SHORT_PREAMBLE,
        }
    }

    #[test]
    fn full_header_round_trip() {
        let info = full_info();
        let buf = encode(&info);
        let (parsed, len) = parse(&buf).unwrap();
        assert_eq!(len, buf.len());
        assert_eq!(parsed, info);
    }

    #[test]
    fn minimal_header_round_trip() {
        let info = RxInfo::default();
        let buf = encode(&info);
        // version, pad, len, present(FLAGS), flags byte => 9 bytes.
        assert_eq!(buf.len(), 9);
        let (parsed, len) = parse(&buf).unwrap();
        assert_eq!(len, 9);
        assert_eq!(parsed, info);
    }

    #[test]
    fn tsft_is_eight_byte_aligned() {
        let info = full_info();
        let buf = encode(&info);
        // Header start: 8 bytes fixed; TSFT must begin at offset 8.
        let tsft = u64::from_le_bytes(buf[8..16].try_into().unwrap());
        assert_eq!(tsft, 123_456_789_012);
    }

    #[test]
    fn channel_is_two_byte_aligned_after_odd_fields() {
        // With TSFT absent and flags+rate (2 odd bytes) present, the channel
        // field must be padded to an even offset.
        let info = RxInfo {
            rate: Some(Rate::R54M),
            channel_mhz: Some(2412),
            ..RxInfo::default()
        };
        let buf = encode(&info);
        let (parsed, _) = parse(&buf).unwrap();
        assert_eq!(parsed.channel_mhz, Some(2412));
        assert_eq!(parsed.rate, Some(Rate::R54M));
        // flags at 8, rate at 9, channel at 10 (already even).
        assert_eq!(u16::from_le_bytes([buf[10], buf[11]]), 2412);
    }

    #[test]
    fn channel_flags_reflect_modulation() {
        let ofdm = encode(&RxInfo {
            rate: Some(Rate::R54M),
            channel_mhz: Some(2437),
            ..RxInfo::default()
        });
        let (_, len) = parse(&ofdm).unwrap();
        let flags = u16::from_le_bytes([ofdm[len - 2], ofdm[len - 1]]);
        assert_ne!(flags & CHAN_OFDM, 0);
        assert_ne!(flags & CHAN_2GHZ, 0);

        let cck = encode(&RxInfo {
            rate: Some(Rate::R11M),
            channel_mhz: Some(2437),
            ..RxInfo::default()
        });
        let (_, len) = parse(&cck).unwrap();
        let flags = u16::from_le_bytes([cck[len - 2], cck[len - 1]]);
        assert_ne!(flags & CHAN_CCK, 0);
    }

    #[test]
    fn rejects_bad_version_and_truncation() {
        let mut buf = encode(&full_info());
        buf[0] = 1;
        assert_eq!(parse(&buf), Err(HeaderError::BadVersion(1)));
        buf[0] = 0;
        assert!(matches!(parse(&buf[..5]), Err(HeaderError::Truncated { .. })));
        let short_len = {
            let mut b = buf.clone();
            b[2] = 4; // it_len < 8
            b[3] = 0;
            b
        };
        assert_eq!(parse(&short_len), Err(HeaderError::BadLength(4)));
    }

    #[test]
    fn truncated_to_it_len_rejected() {
        let buf = encode(&full_info());
        let cut = &buf[..buf.len() - 3];
        assert!(matches!(parse(cut), Err(HeaderError::Truncated { .. })));
    }

    #[test]
    fn skips_unknown_intermediate_fields() {
        // Hand-build a header with FHSS (bit 4, 2 bytes) we don't expose +
        // antenna signal after it; the parser must skip FHSS correctly.
        let mut buf = vec![0u8, 0, 0, 0];
        let present: u32 = (1 << 4) | (1 << bit::ANT_SIGNAL);
        buf.extend_from_slice(&present.to_le_bytes());
        buf.extend_from_slice(&[0xAA, 0xBB]); // FHSS @8..10
        buf.push((-55i8) as u8); // signal @10
        let len = buf.len() as u16;
        buf[2..4].copy_from_slice(&len.to_le_bytes());
        let (info, _) = parse(&buf).unwrap();
        assert_eq!(info.signal_dbm, Some(-55));
    }

    #[test]
    fn chained_present_words_position_payload() {
        // present word 0 with EXT bit + an empty vendor word; flags field.
        let mut buf = vec![0u8, 0, 0, 0];
        let w0: u32 = (1 << bit::FLAGS) | (1 << bit::EXT);
        let w1: u32 = 0;
        buf.extend_from_slice(&w0.to_le_bytes());
        buf.extend_from_slice(&w1.to_le_bytes());
        buf.push(0x10);
        let len = buf.len() as u16;
        buf[2..4].copy_from_slice(&len.to_le_bytes());
        let (info, hdr_len) = parse(&buf).unwrap();
        assert_eq!(hdr_len, buf.len());
        assert_eq!(info.flags, RxFlags::FCS_INCLUDED);
    }

    #[test]
    fn runaway_ext_chain_rejected() {
        // A present word with EXT set but it_len too small for another word.
        let mut buf = vec![0u8, 0, 8, 0];
        let w0: u32 = 1 << bit::EXT;
        buf.extend_from_slice(&w0.to_le_bytes());
        assert_eq!(parse(&buf), Err(HeaderError::BadLength(8)));
    }
}
