//! Borrowing pcap reader over an in-memory capture file.

use crate::format::{
    LinkType, PcapError, RecordMeta, TsPrecision, MAGIC_MICROS, MAGIC_NANOS, MAX_SANE_INCL_LEN,
};

/// A borrowed reader over an in-memory pcap file.
///
/// Handles both byte orders and both timestamp precisions transparently;
/// records always surface nanosecond fractions via
/// [`RecordMeta::ts_nanos`]. Records come out as subslices of the
/// original file bytes — no copy, no buffer, no allocation at all. A
/// capture on disk is read whole first (`std::fs::read`, or a memory
/// map); downstream borrowed decoding only ever touches the few header
/// bytes it needs, so record bodies are never read.
///
/// # Example
///
/// ```
/// use wifiprint_pcap::{LinkType, Record, SliceReader, Writer};
///
/// # fn main() -> Result<(), wifiprint_pcap::PcapError> {
/// let mut file = Vec::new();
/// let mut w = Writer::new(&mut file, LinkType::Ieee80211)?;
/// w.write_record(&Record::from_micros(7, vec![0xAA, 0xBB]))?;
///
/// let mut r = SliceReader::new(&file)?;
/// let (meta, bytes) = r.next_record()?.expect("one record");
/// assert_eq!(meta.timestamp_micros(), 7);
/// assert_eq!(bytes, &file[file.len() - 2..]); // borrowed, not copied
/// assert!(r.next_record()?.is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SliceReader<'a> {
    rest: &'a [u8],
    link_type: LinkType,
    precision: TsPrecision,
    swapped: bool,
    snaplen: u32,
}

impl<'a> SliceReader<'a> {
    /// Validates the global header and positions the reader at the first
    /// record.
    ///
    /// # Errors
    ///
    /// [`PcapError::BadMagic`] or [`PcapError::TruncatedFile`] for a
    /// malformed global header.
    pub fn new(file: &'a [u8]) -> Result<Self, PcapError> {
        let Some(header) = file.first_chunk::<24>() else {
            return Err(PcapError::TruncatedFile);
        };
        let (precision, swapped) = match u32_at(header, 0, false) {
            MAGIC_MICROS => (TsPrecision::Micros, false),
            MAGIC_NANOS => (TsPrecision::Nanos, false),
            m if m.swap_bytes() == MAGIC_MICROS => (TsPrecision::Micros, true),
            m if m.swap_bytes() == MAGIC_NANOS => (TsPrecision::Nanos, true),
            m => return Err(PcapError::BadMagic(m)),
        };
        Ok(SliceReader {
            rest: &file[24..],
            link_type: LinkType::from_raw(u32_at(header, 20, swapped)),
            precision,
            swapped,
            snaplen: u32_at(header, 16, swapped),
        })
    }

    /// The file's data-link type.
    #[must_use] 
    pub fn link_type(&self) -> LinkType {
        self.link_type
    }

    /// The file's declared snapshot length.
    #[must_use] 
    pub fn snaplen(&self) -> u32 {
        self.snaplen
    }

    /// The file's timestamp precision.
    #[must_use] 
    pub fn precision(&self) -> TsPrecision {
        self.precision
    }

    /// `true` if the file was written in the opposite byte order.
    #[must_use] 
    pub fn is_swapped(&self) -> bool {
        self.swapped
    }

    /// Returns the next record's header fields and its bytes, borrowed
    /// straight from the file; `Ok(None)` signals a clean end of file.
    ///
    /// # Errors
    ///
    /// [`PcapError::TruncatedFile`] if the file ends inside a record,
    /// [`PcapError::RecordExceedsSnaplen`] for a capture length above the
    /// file's snaplen, or [`PcapError::OversizedRecord`] for implausible
    /// capture lengths when the snaplen is 0.
    pub fn next_record(&mut self) -> Result<Option<(RecordMeta, &'a [u8])>, PcapError> {
        if self.rest.is_empty() {
            return Ok(None);
        }
        let Some(header) = self.rest.first_chunk::<16>() else {
            return Err(PcapError::TruncatedFile);
        };
        let field = |off| u32_at(header, off, self.swapped);
        let incl_len = field(8);
        // Checked before the length is trusted: no record may exceed the
        // file's own snaplen, or the sanity bound when it declares none.
        if self.snaplen != 0 && incl_len > self.snaplen {
            return Err(PcapError::RecordExceedsSnaplen { incl_len, snaplen: self.snaplen });
        }
        if incl_len > MAX_SANE_INCL_LEN {
            return Err(PcapError::OversizedRecord { incl_len });
        }
        let ts_nanos = match self.precision {
            TsPrecision::Micros => field(4).saturating_mul(1000),
            TsPrecision::Nanos => field(4),
        };
        let meta = RecordMeta { ts_sec: field(0), ts_nanos, orig_len: field(12) };
        let end = 16 + incl_len as usize;
        let Some(data) = self.rest.get(16..end) else {
            return Err(PcapError::TruncatedFile);
        };
        self.rest = &self.rest[end..];
        Ok(Some((meta, data)))
    }
}

/// The `u32` at byte `off` of a header, in the file's byte order.
fn u32_at<const N: usize>(header: &[u8; N], off: usize, swapped: bool) -> u32 {
    let v = u32::from_le_bytes(header[off..off + 4].try_into().expect("4 bytes"));
    if swapped {
        v.swap_bytes()
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a big-endian µs-precision file by hand.
    fn big_endian_file() -> Vec<u8> {
        let mut f = Vec::new();
        f.extend_from_slice(&MAGIC_MICROS.to_be_bytes());
        f.extend_from_slice(&2u16.to_be_bytes()); // major
        f.extend_from_slice(&4u16.to_be_bytes()); // minor
        f.extend_from_slice(&0u32.to_be_bytes()); // thiszone
        f.extend_from_slice(&0u32.to_be_bytes()); // sigfigs
        f.extend_from_slice(&65535u32.to_be_bytes()); // snaplen
        f.extend_from_slice(&105u32.to_be_bytes()); // network
        // one record
        f.extend_from_slice(&100u32.to_be_bytes()); // ts_sec
        f.extend_from_slice(&7u32.to_be_bytes()); // ts_usec
        f.extend_from_slice(&3u32.to_be_bytes()); // incl_len
        f.extend_from_slice(&3u32.to_be_bytes()); // orig_len
        f.extend_from_slice(&[0xAB, 0xCD, 0xEF]);
        f
    }

    #[test]
    fn reads_foreign_endian_files() {
        let file = big_endian_file();
        let mut reader = SliceReader::new(&file).unwrap();
        assert!(reader.is_swapped());
        assert_eq!(reader.link_type(), LinkType::Ieee80211);
        assert_eq!(reader.snaplen(), 65535);
        assert_eq!(reader.precision(), TsPrecision::Micros);
        let (meta, data) = reader.next_record().unwrap().unwrap();
        assert_eq!((meta.ts_sec, meta.ts_nanos, meta.orig_len), (100, 7000, 3));
        assert_eq!(data, &[0xAB, 0xCD, 0xEF]);
        assert!(reader.next_record().unwrap().is_none());
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(matches!(SliceReader::new(&[0u8; 24]), Err(PcapError::BadMagic(0))));
    }

    #[test]
    fn rejects_truncated_global_header() {
        let file = MAGIC_MICROS.to_le_bytes();
        assert!(matches!(SliceReader::new(&file), Err(PcapError::TruncatedFile)));
    }

    #[test]
    fn rejects_truncated_record_body() {
        let mut file = big_endian_file();
        file.truncate(file.len() - 1);
        let mut reader = SliceReader::new(&file).unwrap();
        assert!(matches!(reader.next_record(), Err(PcapError::TruncatedFile)));
    }

    #[test]
    fn rejects_truncated_record_header() {
        let mut file = big_endian_file();
        file.truncate(24 + 7);
        let mut reader = SliceReader::new(&file).unwrap();
        assert!(matches!(reader.next_record(), Err(PcapError::TruncatedFile)));
    }

    #[test]
    fn rejects_oversized_record() {
        let mut file = Vec::new();
        file.extend_from_slice(&MAGIC_MICROS.to_le_bytes());
        file.extend_from_slice(&[0u8; 16]);
        file.extend_from_slice(&127u32.to_le_bytes());
        // record header with incl_len = 1 GiB
        file.extend_from_slice(&0u32.to_le_bytes());
        file.extend_from_slice(&0u32.to_le_bytes());
        file.extend_from_slice(&(1u32 << 30).to_le_bytes());
        file.extend_from_slice(&(1u32 << 30).to_le_bytes());
        let mut reader = SliceReader::new(&file).unwrap();
        assert!(matches!(
            reader.next_record(),
            Err(PcapError::OversizedRecord { incl_len }) if incl_len == 1 << 30
        ));
    }

    #[test]
    fn rejects_record_longer_than_snaplen_in_both_readers() {
        // A 65 535-snaplen file whose only record claims 200 MiB: the
        // record reader and the frame replay over it both refuse it at
        // the header, before the length is trusted.
        let claimed: u32 = 200 * 1024 * 1024;
        let mut file = Vec::new();
        file.extend_from_slice(&MAGIC_MICROS.to_le_bytes());
        file.extend_from_slice(&[0u8; 12]);
        file.extend_from_slice(&65_535u32.to_le_bytes()); // snaplen
        file.extend_from_slice(&127u32.to_le_bytes());
        file.extend_from_slice(&[0u8; 8]); // ts_sec, ts_usec
        file.extend_from_slice(&claimed.to_le_bytes()); // incl_len
        file.extend_from_slice(&claimed.to_le_bytes()); // orig_len
        file.extend_from_slice(&[0u8; 64]);
        let want = |e| {
            matches!(e, PcapError::RecordExceedsSnaplen { incl_len, snaplen: 65_535 }
                if incl_len == claimed)
        };
        let sliced = SliceReader::new(&file).unwrap().next_record().unwrap_err();
        assert!(sliced.to_string().contains("snaplen 65535"), "{sliced}");
        assert!(want(sliced));
        let mut replay = crate::Replay::from_slice(&file).unwrap();
        assert!(want(replay.next_frame().unwrap_err()));
        assert_eq!(replay.stats().records, 0);
    }

    #[test]
    fn slice_reader_borrows_records_in_place() {
        let file = big_endian_file();
        let mut reader = SliceReader::new(&file).unwrap();
        let (_, data) = reader.next_record().unwrap().unwrap();
        // The record bytes alias the file, they are not a copy.
        assert_eq!(data.as_ptr(), file[file.len() - 3..].as_ptr());
        assert_eq!(data.len(), 3);
    }

    #[test]
    fn slice_reader_rejects_malformed_files() {
        assert!(matches!(SliceReader::new(&[]), Err(PcapError::TruncatedFile)));
        let file = big_endian_file();
        assert!(matches!(SliceReader::new(&file[..23]), Err(PcapError::TruncatedFile)));
        // A lone byte past the last record is a truncated record header.
        let mut file = big_endian_file();
        file.push(0);
        let mut reader = SliceReader::new(&file).unwrap();
        assert!(reader.next_record().unwrap().is_some());
        assert!(matches!(reader.next_record(), Err(PcapError::TruncatedFile)));
    }
}
