//! Property tests for the capture-header codecs.

use proptest::prelude::*;
use wifiprint_ieee80211::{Frame, MacAddr, Nanos, Rate};
use wifiprint_radiotap::{CapturedFrame, DecodeError, RxFlags, RxInfo};

fn arb_info() -> impl Strategy<Value = RxInfo> {
    (
        prop::option::of(any::<u64>()),
        prop::option::of(prop::sample::select(Rate::ALL_BG.to_vec())),
        prop::option::of(1u8..=14),
        prop::option::of(any::<i8>()),
        prop::option::of(any::<i8>()),
        prop::option::of(any::<u8>()),
        any::<u8>(),
    )
        .prop_map(|(tsft, rate, chan, signal, noise, antenna, flags)| RxInfo {
            tsft_us: tsft,
            rate,
            channel_mhz: chan.map(RxInfo::channel_to_mhz),
            signal_dbm: signal,
            noise_dbm: noise,
            antenna,
            flags: RxFlags::from_raw(flags),
        })
}

proptest! {
    #[test]
    fn radiotap_round_trip(info in arb_info()) {
        let buf = info.to_radiotap();
        let (parsed, len) = RxInfo::from_radiotap(&buf).unwrap();
        prop_assert_eq!(len, buf.len());
        prop_assert_eq!(parsed, info);
    }

    #[test]
    fn radiotap_parse_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = RxInfo::from_radiotap(&bytes);
    }

    #[test]
    fn prism_round_trip_of_monitor_fields(info in arb_info()) {
        let buf = info.to_prism(1500);
        let (parsed, len) = RxInfo::from_prism(&buf).unwrap();
        prop_assert_eq!(len, 144);
        prop_assert_eq!(parsed.tsft_us, info.tsft_us.map(|t| t & 0xFFFF_FFFF));
        prop_assert_eq!(parsed.rate, info.rate);
        prop_assert_eq!(parsed.channel_mhz, info.channel_mhz);
        prop_assert_eq!(parsed.signal_dbm, info.signal_dbm);
        prop_assert_eq!(parsed.noise_dbm, info.noise_dbm);
    }

    #[test]
    fn prism_parse_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = RxInfo::from_prism(&bytes);
    }

    #[test]
    fn radiotap_header_parses_with_trailing_frame(info in arb_info(), frame in prop::collection::vec(any::<u8>(), 0..100)) {
        // A header followed by frame bytes must yield the same info and point
        // at the frame start.
        let mut buf = info.to_radiotap();
        let hdr_len = buf.len();
        buf.extend_from_slice(&frame);
        let (parsed, len) = RxInfo::from_radiotap(&buf).unwrap();
        prop_assert_eq!(len, hdr_len);
        prop_assert_eq!(parsed, info);
        prop_assert_eq!(&buf[len..], &frame[..]);
    }
}

/// A small pool of valid frames, one per wire layout.
fn mk_frame(pick: usize, len: usize) -> Frame {
    let a = MacAddr::from_index(1);
    let b = MacAddr::from_index(2);
    match pick % 4 {
        0 => Frame::ack(a),
        1 => Frame::rts(a, b, 44),
        2 => Frame::beacon(a, vec![7; len]),
        _ => Frame::data_to_ds(a, b, b, len),
    }
}

fn prism_packet(bytes: &[u8]) -> Result<CapturedFrame, DecodeError> {
    CapturedFrame::from_prism_packet_counted(bytes, Nanos::ZERO).map(|(cap, _)| cap)
}

/// Exhaustively matching the error proves every decode failure surfaces
/// as a typed [`DecodeError`] — and the call itself proves no panic.
fn assert_total(result: Result<CapturedFrame, DecodeError>) {
    match result {
        Ok(_) | Err(DecodeError::Header(_)) | Err(DecodeError::Frame(_)) => {}
    }
}

proptest! {
    // Arbitrary truncations of valid radiotap packets never
    // panic anywhere in the WireFrame/RxInfo/CapturedFrame decode stack.
    #[test]
    fn truncated_radiotap_packets_never_panic(
        info in arb_info(),
        pick in 0usize..4,
        len in 0usize..200,
        cut_seed in any::<u64>(),
    ) {
        let mut packet = info.to_radiotap();
        packet.extend_from_slice(&mk_frame(pick, len).to_bytes());
        let cut = (cut_seed as usize) % (packet.len() + 1);
        assert_total(CapturedFrame::from_radiotap_packet(&packet[..cut], Nanos::ZERO));
    }

    // Arbitrary single-byte mutations never panic either —
    // a flipped presence bitmap or frame-control word is survivable.
    #[test]
    fn mutated_radiotap_packets_never_panic(
        info in arb_info(),
        pick in 0usize..4,
        len in 0usize..200,
        idx_seed in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let mut packet = info.to_radiotap();
        packet.extend_from_slice(&mk_frame(pick, len).to_bytes());
        let idx = (idx_seed as usize) % packet.len();
        packet[idx] ^= xor;
        assert_total(CapturedFrame::from_radiotap_packet(&packet, Nanos::ZERO));
        let counted = CapturedFrame::from_radiotap_packet_counted(&packet, Nanos::ZERO);
        assert_total(counted.map(|(cap, _)| cap));
    }

    #[test]
    fn truncated_prism_packets_never_panic(
        info in arb_info(),
        pick in 0usize..4,
        len in 0usize..200,
        cut_seed in any::<u64>(),
    ) {
        let frame_bytes = mk_frame(pick, len).to_bytes();
        let mut packet = info.to_prism(frame_bytes.len() as u32);
        packet.extend_from_slice(&frame_bytes);
        let cut = (cut_seed as usize) % (packet.len() + 1);
        assert_total(prism_packet(&packet[..cut]));
    }

    #[test]
    fn mutated_prism_packets_never_panic(
        info in arb_info(),
        pick in 0usize..4,
        len in 0usize..200,
        idx_seed in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let frame_bytes = mk_frame(pick, len).to_bytes();
        let mut packet = info.to_prism(frame_bytes.len() as u32);
        packet.extend_from_slice(&frame_bytes);
        let idx = (idx_seed as usize) % packet.len();
        packet[idx] ^= xor;
        assert_total(prism_packet(&packet));
    }

    // Pure garbage front to back.
    #[test]
    fn garbage_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        assert_total(CapturedFrame::from_radiotap_packet(&bytes, Nanos::ZERO));
        assert_total(prism_packet(&bytes));
    }
}
