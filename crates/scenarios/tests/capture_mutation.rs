//! Mutation property test of the capture read path: a simulated office
//! trace, exported to radiotap pcap bytes in memory, is cut short,
//! bit-flipped and given lying record lengths, then replayed through
//! `Replay::from_slice`. Replay must never panic, must stop only on a
//! typed framing error, and must account for every record it read as
//! either decoded or a decode error. A second walk over the same bytes
//! with `SliceReader` decodes each record itself and checks that every
//! decode error is typed consistently and counted at its layer.

use std::sync::OnceLock;

use proptest::prelude::*;
use wifiprint_ieee80211::{FrameError, Nanos};
use wifiprint_pcap::{LinkType, PcapError, Replay, ReplayError, ReplayStats, SliceReader, Writer};
use wifiprint_radiotap::{CapturedFrame, DecodeError, HeaderError};
use wifiprint_scenarios::export::to_pcap_record;
use wifiprint_scenarios::OfficeScenario;

/// The exported capture and the byte offset of each record header in it.
fn capture() -> &'static (Vec<u8>, Vec<usize>) {
    static CAPTURE: OnceLock<(Vec<u8>, Vec<usize>)> = OnceLock::new();
    CAPTURE.get_or_init(|| {
        let trace = OfficeScenario::small(23, 2, 3).run_collect();
        let mut file = Vec::new();
        let mut writer = Writer::new(&mut file, LinkType::Ieee80211Radiotap).unwrap();
        let mut offsets = Vec::with_capacity(trace.frames.len());
        let mut at = 24;
        for cf in &trace.frames {
            let record = to_pcap_record(cf);
            offsets.push(at);
            at += 16 + record.data.len();
            writer.write_record(&record).unwrap();
        }
        (file, offsets)
    })
}

/// Walks `file` record by record, as the replay does, and decodes each
/// record itself: every `Truncated { needed, available }` error must
/// need more bytes than it had, and the header and frame failures must
/// be the ones `stats` counted.
fn check_decode_errors(file: &[u8], stats: &ReplayStats) {
    let mut reader = SliceReader::new(file).expect("the replay read this header");
    let (mut header_errors, mut frame_errors) = (0u64, 0u64);
    while let Ok(Some((meta, bytes))) = reader.next_record() {
        let fallback = Nanos::from_nanos(meta.timestamp_nanos());
        match CapturedFrame::from_radiotap_packet(bytes, fallback) {
            Ok(_) => {}
            Err(DecodeError::Header(e)) => {
                if let HeaderError::Truncated { needed, available } = e {
                    assert!(needed > available, "{e:?}");
                }
                header_errors += 1;
            }
            Err(DecodeError::Frame(e)) => {
                if let FrameError::Truncated { needed, available } = e {
                    assert!(needed > available, "{e:?}");
                }
                frame_errors += 1;
            }
        }
    }
    assert_eq!(header_errors, stats.header_errors);
    assert_eq!(frame_errors, stats.frame_errors);
}

/// The errors a corrupt record stream may end a replay with.
fn is_framing_error(e: &PcapError) -> bool {
    matches!(
        e,
        PcapError::TruncatedFile
            | PcapError::RecordExceedsSnaplen { .. }
            | PcapError::OversizedRecord { .. }
    )
}

proptest! {
    // Truncation at any offset (the global header included), bit flips
    // anywhere but the magic and link-type words, an optional snaplen of
    // 0 ("no limit", which moves the length check to the sanity bound),
    // and lies in one record's incl_len or orig_len.
    #[test]
    fn mutated_exports_replay_without_panic_and_reconcile(
        cut in prop::option::of(any::<u64>()),
        flips in prop::collection::vec((any::<u64>(), 0u32..8), 0..16),
        no_snaplen in any::<bool>(),
        lie in prop::option::of((any::<u64>(), any::<bool>(), 0u32..6, any::<u32>())),
    ) {
        let (clean, offsets) = capture();
        let mut file = clean.clone();
        if no_snaplen {
            file[16..20].copy_from_slice(&0u32.to_le_bytes());
        }
        if let Some((pick, incl, kind, value)) = lie {
            let at = offsets[(pick % offsets.len() as u64) as usize] + if incl { 8 } else { 12 };
            let real = u32::from_le_bytes(file[at..at + 4].try_into().unwrap());
            let lie = match kind {
                0 => value % 64,
                1 => real.wrapping_add(value % 33).wrapping_sub(16),
                2 => 65_535 + value % 3,
                3 => (256 << 20) - 1 + value % 3,
                4 => u32::MAX - value % 3,
                _ => value,
            };
            file[at..at + 4].copy_from_slice(&lie.to_le_bytes());
        }
        for &(pos, bit) in &flips {
            // Skip the magic (0..4) and the link type (20..24).
            let pos = (pos % (file.len() as u64 - 8)) as usize;
            let pos = if pos < 16 { pos + 4 } else { pos + 8 };
            file[pos] ^= 1 << bit;
        }
        if let Some(cut) = cut {
            file.truncate((cut % (file.len() as u64 + 1)) as usize);
        }

        let mut replay = match Replay::from_slice(&file) {
            Ok(replay) => replay,
            Err(ReplayError::Pcap(e)) => {
                prop_assert!(is_framing_error(&e), "{:?}", e);
                return;
            }
            Err(e) => panic!("unexpected replay error {e:?}"),
        };
        let mut frames = 0u64;
        loop {
            match replay.next_frame() {
                Ok(Some(_)) => frames += 1,
                Ok(None) => break,
                Err(e) => {
                    prop_assert!(is_framing_error(&e), "{:?}", e);
                    break;
                }
            }
        }
        let stats = replay.stats();
        prop_assert_eq!(stats.decoded, frames);
        prop_assert_eq!(stats.records, stats.decoded + stats.decode_errors());
        check_decode_errors(&file, &stats);
    }
}
