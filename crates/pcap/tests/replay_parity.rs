//! Parity property tests: the borrowed (zero-copy) replay decode is
//! bit-identical to the owned materializing path over arbitrary traces
//! round-tripped through the pcap writer — FCS-included and stripped,
//! both timestamp precisions, both byte orders — and replay neither
//! panics nor loses count of a record on truncated and corrupted
//! captures.

use proptest::prelude::*;
use wifiprint_ieee80211::{Frame, MacAddr, Nanos, Rate};
use wifiprint_pcap::{
    LinkType, PcapError, Record, Replay, ReplayStats, SliceReader, TsPrecision, Writer,
};
use wifiprint_radiotap::{CapturedFrame, DecodeError, RxFlags, RxInfo};

/// Everything that determines one on-disk record.
#[derive(Debug, Clone)]
struct PacketSpec {
    pick: usize,
    len: usize,
    ts_us: u64,
    tsft_us: Option<u64>,
    rate: Option<Rate>,
    signal_dbm: Option<i8>,
    fcs_included: bool,
}

fn arb_spec() -> impl Strategy<Value = PacketSpec> {
    (
        (0usize..4, 0usize..200, any::<u32>()),
        (
            prop::option::of(0u64..1 << 40),
            prop::option::of(prop::sample::select(Rate::ALL_BG.to_vec())),
            prop::option::of(any::<i8>()),
            any::<bool>(),
        ),
    )
        .prop_map(|((pick, len, ts_us), (tsft_us, rate, signal_dbm, fcs_included))| PacketSpec {
            pick,
            len,
            ts_us: u64::from(ts_us),
            tsft_us,
            rate,
            signal_dbm,
            fcs_included,
        })
}

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

fn rx_info(spec: &PacketSpec) -> RxInfo {
    RxInfo {
        tsft_us: spec.tsft_us,
        rate: spec.rate,
        signal_dbm: spec.signal_dbm,
        flags: if spec.fcs_included { RxFlags::FCS_INCLUDED } else { RxFlags::from_raw(0) },
        ..RxInfo::default()
    }
}

fn radiotap_packet(spec: &PacketSpec) -> Vec<u8> {
    let mut packet = rx_info(spec).to_radiotap();
    let bytes = mk_frame(spec.pick, spec.len).to_bytes();
    if spec.fcs_included {
        packet.extend_from_slice(&bytes);
    } else {
        packet.extend_from_slice(&bytes[..bytes.len() - 4]);
    }
    packet
}

fn prism_packet(spec: &PacketSpec) -> Vec<u8> {
    // Prism has no FCS flag; decode treats the body as FCS-stripped
    // unless RxInfo says otherwise, so always strip here for parity.
    let bytes = mk_frame(spec.pick, spec.len).to_bytes();
    let body = &bytes[..bytes.len() - 4];
    let mut packet = rx_info(&PacketSpec { fcs_included: false, ..spec.clone() })
        .to_prism(body.len() as u32);
    packet.extend_from_slice(body);
    packet
}

/// The owned reference path: materialize `RxInfo` + `Frame`, then build
/// the `CapturedFrame` exactly the way the pre-zero-copy decoder did.
fn owned_decode(packet: &[u8], fallback: Nanos, prism: bool) -> Result<CapturedFrame, DecodeError> {
    let (info, hdr_len) =
        if prism { RxInfo::from_prism(packet)? } else { RxInfo::from_radiotap(packet)? };
    let bytes = &packet[hdr_len..];
    let frame = if info.flags.contains(RxFlags::FCS_INCLUDED) {
        Frame::parse(bytes).map_err(DecodeError::Frame)?
    } else {
        Frame::parse_without_fcs(bytes).map_err(DecodeError::Frame)?
    };
    let rate = info.rate.unwrap_or(Rate::R1M);
    let t_end = info.tsft_us.map(Nanos::from_micros).unwrap_or(fallback);
    Ok(CapturedFrame::from_frame(&frame, rate, t_end, info.signal_dbm.unwrap_or(-70)))
}

/// Hand-built foreign-endian pcap file (the LE-only [`Writer`] cannot
/// produce one).
fn write_big_endian(link: LinkType, precision: TsPrecision, records: &[Record]) -> Vec<u8> {
    let magic = match precision {
        TsPrecision::Micros => 0xa1b2_c3d4u32,
        TsPrecision::Nanos => 0xa1b2_3c4du32,
    };
    let mut f = Vec::new();
    f.extend_from_slice(&magic.to_be_bytes());
    f.extend_from_slice(&2u16.to_be_bytes());
    f.extend_from_slice(&4u16.to_be_bytes());
    f.extend_from_slice(&0u32.to_be_bytes());
    f.extend_from_slice(&0u32.to_be_bytes());
    f.extend_from_slice(&65535u32.to_be_bytes());
    f.extend_from_slice(&link.to_raw().to_be_bytes());
    for rec in records {
        let frac = match precision {
            TsPrecision::Micros => rec.ts_nanos / 1000,
            TsPrecision::Nanos => rec.ts_nanos,
        };
        f.extend_from_slice(&rec.ts_sec.to_be_bytes());
        f.extend_from_slice(&frac.to_be_bytes());
        f.extend_from_slice(&(rec.data.len() as u32).to_be_bytes());
        f.extend_from_slice(&rec.orig_len.to_be_bytes());
        f.extend_from_slice(&rec.data);
    }
    f
}

fn write_little_endian(link: LinkType, precision: TsPrecision, records: &[Record]) -> Vec<u8> {
    let mut file = Vec::new();
    let mut w = Writer::with_precision(&mut file, link, precision).unwrap();
    for rec in records {
        w.write_record(rec).unwrap();
    }
    file
}

/// Replays `file` and checks every decoded frame against the owned path.
fn assert_parity(file: &[u8], specs: &[PacketSpec], packets: &[Vec<u8>], prism: bool) {
    let mut replay = Replay::from_slice(file).unwrap();
    for (spec, packet) in specs.iter().zip(packets) {
        let fallback = Nanos::from_micros(spec.ts_us);
        let expected = owned_decode(packet, fallback, prism).expect("generated packets are valid");
        let got = replay.next_frame().unwrap().expect("record per spec");
        assert_eq!(got, expected, "borrowed/owned divergence for {spec:?}");
    }
    assert!(replay.next_frame().unwrap().is_none());
    let stats = replay.stats();
    assert_eq!(stats.decoded, specs.len() as u64);
    assert_eq!(stats.decode_errors(), 0);
}

/// Everything one replay pass yields over a possibly corrupt capture:
/// the frames, the statistics, and how it ended — `Ok` at a clean end of
/// file, else the file error.
fn drain(mut replay: Replay<'_>) -> (Vec<CapturedFrame>, ReplayStats, Result<(), PcapError>) {
    let mut frames = Vec::new();
    let end = loop {
        match replay.next_frame() {
            Ok(Some(frame)) => frames.push(frame),
            Ok(None) => break Ok(()),
            Err(e) => break Err(e),
        }
    };
    (frames, replay.stats(), end)
}

proptest! {
    // Mutated captures: a writer-built capture of any replayable link
    // type (radiotap, Prism or raw 802.11), cut short and with random
    // bytes past the global header overwritten — record length fields
    // included — replays without a panic, and every record read is
    // either decoded (and yielded) or counted as a decode error.
    #[test]
    fn mutated_captures_replay_identically_on_both_paths(
        link in prop::sample::select(vec![
            LinkType::Ieee80211Radiotap,
            LinkType::Prism,
            LinkType::Ieee80211,
        ]),
        specs in prop::collection::vec(arb_spec(), 1..8),
        keep in 0.0f64..1.0,
        cut in any::<bool>(),
        bytes in prop::collection::vec((any::<u32>(), any::<u8>()), 0..12),
        lengths in prop::collection::vec((any::<u32>(), any::<u32>()), 0..3),
    ) {
        let packets: Vec<Vec<u8>> = specs
            .iter()
            .map(|s| match link {
                LinkType::Prism => prism_packet(s),
                LinkType::Ieee80211 => mk_frame(s.pick, s.len).to_bytes(),
                _ => radiotap_packet(s),
            })
            .collect();
        let records: Vec<Record> = specs
            .iter()
            .zip(&packets)
            .map(|(s, p)| Record::from_micros(s.ts_us, p.clone()))
            .collect();
        let mut file = write_little_endian(link, TsPrecision::Micros, &records);
        // Where each record header's incl_len field sits, before the cut.
        let mut len_fields = Vec::new();
        let mut at = 24;
        for p in &packets {
            len_fields.push(at + 8);
            at += 16 + p.len();
        }
        if cut {
            file.truncate(24 + ((file.len() - 24) as f64 * keep) as usize);
        }
        let body = file.len() - 24;
        if body > 0 {
            for &(pos, value) in &bytes {
                file[24 + pos as usize % body] = value;
            }
        }
        for &(pick, value) in &lengths {
            let field = len_fields[pick as usize % len_fields.len()];
            // Lies around the real lengths, the snaplen and u32::MAX.
            let lie = match value % 4 {
                0 => value % 512,
                1 => 65_535 + value % 3,
                2 => u32::MAX - value % 3,
                _ => value,
            };
            if field + 4 <= file.len() {
                file[field..field + 4].copy_from_slice(&lie.to_le_bytes());
            }
        }
        let (frames, stats, end) = drain(Replay::from_slice(&file).unwrap());
        if let Err(e) = end {
            prop_assert!(
                matches!(
                    e,
                    PcapError::TruncatedFile
                        | PcapError::RecordExceedsSnaplen { .. }
                        | PcapError::OversizedRecord { .. }
                ),
                "{:?}",
                e
            );
        }
        prop_assert_eq!(stats.decoded, frames.len() as u64);
        prop_assert_eq!(stats.records, stats.decoded + stats.decode_errors());
    }

    // Satellite: borrowed decode ≡ owned decode over writer round-trips,
    // little-endian files, both timestamp precisions.
    #[test]
    fn replay_parity_little_endian(
        specs in prop::collection::vec(arb_spec(), 1..12),
        nanos in any::<bool>(),
    ) {
        let precision = if nanos { TsPrecision::Nanos } else { TsPrecision::Micros };
        let packets: Vec<Vec<u8>> = specs.iter().map(radiotap_packet).collect();
        let records: Vec<Record> = specs
            .iter()
            .zip(&packets)
            .map(|(s, p)| Record::from_micros(s.ts_us, p.clone()))
            .collect();
        let file = write_little_endian(LinkType::Ieee80211Radiotap, precision, &records);
        assert_parity(&file, &specs, &packets, false);
    }

    // Same trace through a hand-built foreign-endian file.
    #[test]
    fn replay_parity_big_endian(
        specs in prop::collection::vec(arb_spec(), 1..12),
        nanos in any::<bool>(),
    ) {
        let precision = if nanos { TsPrecision::Nanos } else { TsPrecision::Micros };
        let packets: Vec<Vec<u8>> = specs.iter().map(radiotap_packet).collect();
        let records: Vec<Record> = specs
            .iter()
            .zip(&packets)
            .map(|(s, p)| Record::from_micros(s.ts_us, p.clone()))
            .collect();
        let file = write_big_endian(LinkType::Ieee80211Radiotap, precision, &records);
        let mut r = SliceReader::new(&file).unwrap();
        prop_assert!(r.is_swapped());
        prop_assert!(r.next_record().is_ok());
        assert_parity(&file, &specs, &packets, false);
    }

    // Prism (DLT 119) files take the same parity route.
    #[test]
    fn replay_parity_prism(specs in prop::collection::vec(arb_spec(), 1..8)) {
        let packets: Vec<Vec<u8>> = specs.iter().map(prism_packet).collect();
        let records: Vec<Record> = specs
            .iter()
            .zip(&packets)
            .map(|(s, p)| Record::from_micros(s.ts_us, p.clone()))
            .collect();
        let file = write_little_endian(LinkType::Prism, TsPrecision::Micros, &records);
        assert_parity(&file, &specs, &packets, true);
    }
}
