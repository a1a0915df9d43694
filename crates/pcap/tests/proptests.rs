//! Property tests: pcap files round-trip arbitrary record sequences.

use proptest::prelude::*;
use wifiprint_pcap::{LinkType, PcapError, Record, SliceReader, TsPrecision, Writer};

fn arb_record() -> impl Strategy<Value = Record> {
    (
        any::<u32>(),
        0u32..1_000_000,
        prop::collection::vec(any::<u8>(), 0..300),
    )
        .prop_map(|(sec, micros, data)| Record::new(sec, micros * 1000, data))
}

/// Every record of `file`, owned, up to the end of file or the first error.
fn read_all(file: &[u8]) -> Result<Vec<Record>, PcapError> {
    let mut reader = SliceReader::new(file)?;
    let mut records = Vec::new();
    while let Some((meta, data)) = reader.next_record()? {
        records.push(Record::truncated(meta.ts_sec, meta.ts_nanos, meta.orig_len, data.to_vec()));
    }
    Ok(records)
}

proptest! {
    #[test]
    fn round_trip_many_records(records in prop::collection::vec(arb_record(), 0..50)) {
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf, LinkType::Ieee80211Radiotap).unwrap();
        for r in &records {
            w.write_record(r).unwrap();
        }
        prop_assert_eq!(read_all(&buf).unwrap(), records);
    }

    #[test]
    fn nanos_round_trip(sec in any::<u32>(), nanos in 0u32..1_000_000_000, data in prop::collection::vec(any::<u8>(), 0..64)) {
        let rec = Record::new(sec, nanos, data);
        let mut buf = Vec::new();
        let mut w = Writer::with_precision(&mut buf, LinkType::Ieee80211, TsPrecision::Nanos).unwrap();
        w.write_record(&rec).unwrap();
        prop_assert_eq!(read_all(&buf).unwrap(), vec![rec]);
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = read_all(&bytes);
    }

    #[test]
    fn truncating_a_valid_file_errors_cleanly(records in prop::collection::vec(arb_record(), 1..5), cut_fraction in 0.0f64..1.0) {
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf, LinkType::Ieee80211).unwrap();
        for r in &records {
            w.write_record(r).unwrap();
        }
        let cut = 24 + ((buf.len() - 24) as f64 * cut_fraction) as usize;
        // Must either produce whole records or a clean error; never panic.
        match read_all(&buf[..cut]) {
            Ok(read) => prop_assert_eq!(&read[..], &records[..read.len()]),
            Err(e) => prop_assert!(matches!(e, PcapError::TruncatedFile), "{:?}", e),
        }
    }
}
