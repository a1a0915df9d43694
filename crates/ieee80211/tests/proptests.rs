//! Property-based tests for the 802.11 codec layer.

use proptest::prelude::*;
use wifiprint_ieee80211::timing::{air_time, PhyTx, Preamble};
use wifiprint_ieee80211::{Frame, FrameControl, FrameKind, MacAddr, Nanos, Rate, WireFrame};

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr::new)
}

fn arb_rate() -> impl Strategy<Value = Rate> {
    prop::sample::select(Rate::ALL_BG.to_vec())
}

proptest! {
    #[test]
    fn frame_control_round_trips_all_values(raw in any::<u16>()) {
        let fc = FrameControl::from_raw(raw);
        prop_assert_eq!(fc.to_raw(), raw);
    }

    #[test]
    fn mac_display_parse_round_trip(mac in arb_mac()) {
        let parsed: MacAddr = mac.to_string().parse().unwrap();
        prop_assert_eq!(parsed, mac);
    }

    #[test]
    fn data_frame_round_trip(
        sa in arb_mac(),
        bssid in arb_mac(),
        da in arb_mac(),
        len in 0usize..2304,
        seq in 0u16..4096,
        retry in any::<bool>(),
        protected in any::<bool>(),
    ) {
        let fc = FrameControl::new(FrameKind::Data)
            .with_to_ds(true)
            .with_retry(retry)
            .with_protected(protected);
        let frame = Frame::data_to_ds(sa, bssid, da, len)
            .with_fc(fc)
            .with_sequence(seq);
        let bytes = frame.to_bytes();
        prop_assert!(Frame::verify_fcs(&bytes));
        let parsed = Frame::parse(&bytes).unwrap();
        prop_assert_eq!(&parsed, &frame);
        prop_assert_eq!(parsed.wire_len(), bytes.len());
    }

    #[test]
    fn qos_data_round_trip(
        sa in arb_mac(),
        bssid in arb_mac(),
        len in 0usize..1000,
        qos in any::<u16>(),
    ) {
        let frame = Frame::data_to_ds(sa, bssid, bssid, len).with_qos(qos);
        let bytes = frame.to_bytes();
        prop_assert_eq!(&bytes[24..26], &qos.to_le_bytes()[..]);
        prop_assert_eq!(bytes.len(), 26 + len + 4);
        prop_assert_eq!(Frame::parse(&bytes).unwrap(), frame);
    }

    #[test]
    fn parse_arbitrary_bytes_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let _ = Frame::parse(&bytes);
        let _ = Frame::parse_without_fcs(&bytes);
        let _ = Frame::verify_fcs(&bytes);
    }

    #[test]
    fn air_time_positive_and_bounded(rate in arb_rate(), len in 1usize..2400) {
        for preamble in [Preamble::Long, Preamble::Short] {
            let t = air_time(PhyTx::new(rate, preamble), len);
            prop_assert!(t > Nanos::ZERO);
            // Upper bound: at 1 Mb/s, 2400 bytes is 19.2 ms + preamble.
            prop_assert!(t < Nanos::from_millis(25));
        }
    }

    #[test]
    fn air_time_monotone_in_len(rate in arb_rate(), a in 1usize..2000, b in 1usize..2000) {
        let (small, large) = if a <= b { (a, b) } else { (b, a) };
        let tx = PhyTx::new(rate, Preamble::Long);
        prop_assert!(air_time(tx, small) <= air_time(tx, large));
    }
}

/// An arbitrary well-formed frame covering every address layout the wire
/// format has: anonymous control frames, 16-byte control frames,
/// management, plain and QoS data in all DS directions.
fn arb_frame() -> impl Strategy<Value = Frame> {
    (
        (arb_mac(), arb_mac(), arb_mac()),
        (0usize..600, 0u16..4096, any::<u16>()),
        (any::<bool>(), any::<bool>(), 0usize..12),
    )
        .prop_map(|((a, b, c), (len, seq, qos), (retry, pm, pick))| {
            let frame = match pick {
                0 => Frame::ack(a),
                1 => Frame::cts(a, seq),
                2 => Frame::rts(a, b, seq),
                3 => Frame::ps_poll(a, b, seq & 0x3fff),
                4 => Frame::beacon(a, vec![7; len]),
                5 => Frame::probe_req(a, vec![3; len]),
                6 => Frame::management(FrameKind::Auth, a, b, c, vec![1; len]),
                7 => Frame::null_function(a, b, pm),
                8 => Frame::data_from_ds(a, b, c, len),
                9 => Frame::data_ibss(a, b, c, len),
                10 => Frame::data_to_ds(a, b, c, len).with_qos(qos),
                _ => Frame::data_to_ds(a, b, c, len),
            };
            let fc = frame.frame_control().with_retry(retry);
            frame.with_fc(fc).with_sequence(seq)
        })
}

/// Every `WireFrame` accessor must agree with the materializing parser.
fn assert_wire_parity(bytes: &[u8], has_fcs: bool) {
    let (view, frame) = if has_fcs {
        (WireFrame::parse(bytes).unwrap(), Frame::parse(bytes).unwrap())
    } else {
        (WireFrame::parse_without_fcs(bytes).unwrap(), Frame::parse_without_fcs(bytes).unwrap())
    };
    assert_eq!(view.kind(), frame.kind());
    assert_eq!(view.receiver(), frame.receiver());
    assert_eq!(view.transmitter(), frame.transmitter());
    assert_eq!(view.destination(), frame.destination());
    assert_eq!(view.wire_len(), frame.wire_len());
    assert_eq!(view.retry(), frame.frame_control().retry());
}

proptest! {
    // The borrowed view agrees, accessor for accessor, with
    // `Frame::parse` / `parse_without_fcs` on every valid frame.
    #[test]
    fn wire_view_matches_owned_parse(frame in arb_frame()) {
        let bytes = frame.to_bytes();
        assert_wire_parity(&bytes, true);
        let stripped = &bytes[..bytes.len() - 4];
        assert_wire_parity(stripped, false);
    }

    // The borrowed parser is as total as the owned one: identical
    // accept/reject decisions and identical typed errors on garbage.
    #[test]
    fn wire_view_never_panics_and_errors_match(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        match (WireFrame::parse(&bytes), Frame::parse(&bytes)) {
            (Ok(_), Ok(_)) => {}
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "decision mismatch: {:?} vs {:?}", a.is_ok(), b.is_ok()),
        }
        let _ = WireFrame::parse_without_fcs(&bytes);
    }

    // Truncating a valid frame anywhere yields the same truncation error
    // from both parsers.
    #[test]
    fn wire_view_truncation_parity(frame in arb_frame(), cut_seed in any::<u64>()) {
        let bytes = frame.to_bytes();
        let cut = (cut_seed as usize) % bytes.len();
        match (WireFrame::parse(&bytes[..cut]), Frame::parse(&bytes[..cut])) {
            (Ok(_), Ok(_)) => {}
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "decision mismatch: {:?} vs {:?}", a.is_ok(), b.is_ok()),
        }
    }
}
