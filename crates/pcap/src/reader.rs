//! Streaming pcap reader.

use std::io::Read;

use crate::format::{
    LinkType, PcapError, Record, RecordMeta, TsPrecision, MAGIC_MICROS, MAGIC_NANOS,
    MAX_SANE_INCL_LEN,
};

/// A streaming reader over a classic pcap file.
///
/// Handles both byte orders and both timestamp precisions transparently;
/// records always surface nanosecond fractions via [`Record::ts_nanos`].
///
/// # Example
///
/// ```
/// use wifiprint_pcap::{LinkType, Reader, Record, Writer};
///
/// # fn main() -> Result<(), wifiprint_pcap::PcapError> {
/// let mut buf = Vec::new();
/// let mut w = Writer::new(&mut buf, LinkType::Ieee80211)?;
/// w.write_record(&Record::new(7, 0, vec![0xAA]))?;
///
/// let mut r = Reader::new(&buf[..])?;
/// let mut count = 0;
/// while let Some(_rec) = r.next_record()? {
///     count += 1;
/// }
/// assert_eq!(count, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Reader<R> {
    inner: R,
    link_type: LinkType,
    precision: TsPrecision,
    swapped: bool,
    snaplen: u32,
}

impl<R: Read> Reader<R> {
    /// Reads and validates the 24-byte global header.
    ///
    /// # Errors
    ///
    /// [`PcapError::BadMagic`] if the magic number is unknown,
    /// [`PcapError::TruncatedFile`] if the header is incomplete, or an I/O
    /// error from the underlying reader.
    pub fn new(mut inner: R) -> Result<Self, PcapError> {
        let mut header = [0u8; 24];
        read_exact_or_truncated(&mut inner, &mut header, true)?
            .ok_or(PcapError::TruncatedFile)?;
        let global = GlobalHeader::parse(&header)?;
        Ok(Reader {
            inner,
            link_type: global.link_type,
            precision: global.precision,
            swapped: global.swapped,
            snaplen: global.snaplen,
        })
    }

    /// The file's data-link type.
    pub fn link_type(&self) -> LinkType {
        self.link_type
    }

    /// The file's declared snapshot length.
    pub fn snaplen(&self) -> u32 {
        self.snaplen
    }

    /// The file's timestamp precision.
    pub fn precision(&self) -> TsPrecision {
        self.precision
    }

    /// `true` if the file was written in the opposite byte order.
    pub fn is_swapped(&self) -> bool {
        self.swapped
    }

    /// Reads the next record; `Ok(None)` signals a clean end of file.
    ///
    /// # Errors
    ///
    /// [`PcapError::TruncatedFile`] if the stream ends inside a record,
    /// [`PcapError::RecordExceedsSnaplen`] for a capture length above the
    /// file's snaplen, [`PcapError::OversizedRecord`] for implausible
    /// capture lengths when the snaplen is 0, or an I/O error.
    pub fn next_record(&mut self) -> Result<Option<Record>, PcapError> {
        let mut data = Vec::new();
        Ok(self.read_record_into(&mut data)?.map(|meta| Record {
            ts_sec: meta.ts_sec,
            ts_nanos: meta.ts_nanos,
            orig_len: meta.orig_len,
            data,
        }))
    }

    /// Reads the next record into a caller-owned buffer, returning its
    /// header fields; `Ok(None)` signals a clean end of file.
    ///
    /// `buf` is resized to the record's capture length but keeps its
    /// allocation between calls, so a loop that passes the same buffer
    /// performs **zero heap allocations per record** once the buffer has
    /// grown to the file's largest record — the hot path behind
    /// [`replay`](crate::replay).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Reader::next_record`].
    pub fn read_record_into(&mut self, buf: &mut Vec<u8>) -> Result<Option<RecordMeta>, PcapError> {
        let mut header = [0u8; 16];
        if read_exact_or_truncated(&mut self.inner, &mut header, true)?.is_none() { return Ok(None) }
        let (meta, incl_len) =
            parse_record_header(&header, self.swapped, self.precision, self.snaplen)?;
        buf.resize(incl_len as usize, 0);
        read_exact_or_truncated(&mut self.inner, buf, false)?.ok_or(PcapError::TruncatedFile)?;
        Ok(Some(meta))
    }

    /// Consumes the reader, returning the underlying stream.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Read> Iterator for Reader<R> {
    type Item = Result<Record, PcapError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

/// The parsed 24-byte pcap global header, shared by both readers.
#[derive(Debug, Clone, Copy)]
struct GlobalHeader {
    link_type: LinkType,
    precision: TsPrecision,
    swapped: bool,
    snaplen: u32,
}

impl GlobalHeader {
    fn parse(header: &[u8; 24]) -> Result<Self, PcapError> {
        let magic_raw = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
        let (precision, swapped) = match magic_raw {
            MAGIC_MICROS => (TsPrecision::Micros, false),
            MAGIC_NANOS => (TsPrecision::Nanos, false),
            m if m.swap_bytes() == MAGIC_MICROS => (TsPrecision::Micros, true),
            m if m.swap_bytes() == MAGIC_NANOS => (TsPrecision::Nanos, true),
            m => return Err(PcapError::BadMagic(m)),
        };
        let u32_at = |off: usize| {
            let v = u32::from_le_bytes(header[off..off + 4].try_into().expect("4 bytes"));
            if swapped {
                v.swap_bytes()
            } else {
                v
            }
        };
        Ok(GlobalHeader {
            link_type: LinkType::from_raw(u32_at(20)),
            precision,
            swapped,
            snaplen: u32_at(16),
        })
    }
}

/// Parses a 16-byte per-record header into its meta fields and capture
/// length, validating the length against the file's `snaplen` — or, when
/// the file declares none (0), against [`MAX_SANE_INCL_LEN`] — before any
/// caller sizes a buffer by it.
fn parse_record_header(
    header: &[u8; 16],
    swapped: bool,
    precision: TsPrecision,
    snaplen: u32,
) -> Result<(RecordMeta, u32), PcapError> {
    let field = |off: usize| {
        let v = u32::from_le_bytes(header[off..off + 4].try_into().expect("4 bytes"));
        if swapped {
            v.swap_bytes()
        } else {
            v
        }
    };
    let ts_sec = field(0);
    let ts_frac = field(4);
    let incl_len = field(8);
    let orig_len = field(12);
    if snaplen != 0 && incl_len > snaplen {
        return Err(PcapError::RecordExceedsSnaplen { incl_len, snaplen });
    }
    if incl_len > MAX_SANE_INCL_LEN {
        return Err(PcapError::OversizedRecord { incl_len });
    }
    let ts_nanos = match precision {
        TsPrecision::Micros => ts_frac.saturating_mul(1000),
        TsPrecision::Nanos => ts_frac,
    };
    Ok((RecordMeta { ts_sec, ts_nanos, orig_len }, incl_len))
}

/// A borrowed reader over an in-memory pcap file.
///
/// Where [`Reader`] copies each record into a caller buffer (the only
/// option over a generic [`Read`] stream), `SliceReader` hands out
/// records as subslices of the original file bytes — no copy, no buffer,
/// no allocation at all. This is the fastest ingest path for a capture
/// that is already in memory (read whole, or memory-mapped): downstream
/// borrowed decoding only ever touches the few header bytes it needs, so
/// record bodies are never read.
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
        let Some(header) = file.get(..24) else {
            return Err(PcapError::TruncatedFile);
        };
        let global = GlobalHeader::parse(header.try_into().expect("24 bytes"))?;
        Ok(SliceReader {
            rest: &file[24..],
            link_type: global.link_type,
            precision: global.precision,
            swapped: global.swapped,
            snaplen: global.snaplen,
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
        let Some(header) = self.rest.get(..16) else {
            return Err(PcapError::TruncatedFile);
        };
        let (meta, incl_len) = parse_record_header(
            header.try_into().expect("16 bytes"),
            self.swapped,
            self.precision,
            self.snaplen,
        )?;
        let end = 16 + incl_len as usize;
        let Some(data) = self.rest.get(16..end) else {
            return Err(PcapError::TruncatedFile);
        };
        self.rest = &self.rest[end..];
        Ok(Some((meta, data)))
    }
}

/// Reads exactly `buf.len()` bytes. Returns `Ok(None)` on clean EOF at the
/// first byte when `eof_ok_at_start`; `Err(TruncatedFile)` on EOF later.
fn read_exact_or_truncated<R: Read>(
    reader: &mut R,
    buf: &mut [u8],
    eof_ok_at_start: bool,
) -> Result<Option<()>, PcapError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 && eof_ok_at_start {
                    Ok(None)
                } else {
                    Err(PcapError::TruncatedFile)
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(PcapError::Io(e)),
        }
    }
    Ok(Some(()))
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
        let mut reader = Reader::new(&file[..]).unwrap();
        assert!(reader.is_swapped());
        assert_eq!(reader.link_type(), LinkType::Ieee80211);
        assert_eq!(reader.snaplen(), 65535);
        let rec = reader.next_record().unwrap().unwrap();
        assert_eq!(rec.ts_sec, 100);
        assert_eq!(rec.ts_nanos, 7000);
        assert_eq!(rec.data, vec![0xAB, 0xCD, 0xEF]);
        assert!(reader.next_record().unwrap().is_none());
    }

    #[test]
    fn rejects_bad_magic() {
        let file = [0u8; 24];
        assert!(matches!(Reader::new(&file[..]), Err(PcapError::BadMagic(0))));
    }

    #[test]
    fn rejects_truncated_global_header() {
        let file = MAGIC_MICROS.to_le_bytes();
        assert!(matches!(Reader::new(&file[..]), Err(PcapError::TruncatedFile)));
    }

    #[test]
    fn rejects_truncated_record_body() {
        let mut file = big_endian_file();
        file.truncate(file.len() - 1);
        let mut reader = Reader::new(&file[..]).unwrap();
        assert!(matches!(reader.next_record(), Err(PcapError::TruncatedFile)));
    }

    #[test]
    fn rejects_truncated_record_header() {
        let mut file = big_endian_file();
        file.truncate(24 + 7);
        let mut reader = Reader::new(&file[..]).unwrap();
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
        let mut reader = Reader::new(&file[..]).unwrap();
        assert!(matches!(reader.next_record(), Err(PcapError::OversizedRecord { .. })));
    }

    #[test]
    fn rejects_record_longer_than_snaplen_in_both_readers() {
        // A 65 535-snaplen file whose only record claims 200 MiB: the
        // header check must refuse it before any buffer is sized by it.
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
        let mut buf = Vec::new();
        let streaming = Reader::new(&file[..]).unwrap().read_record_into(&mut buf).unwrap_err();
        assert!(want(streaming));
        assert_eq!(buf.capacity(), 0, "no buffer sized by the corrupt length");
        let sliced = SliceReader::new(&file).unwrap().next_record().unwrap_err();
        assert!(sliced.to_string().contains("snaplen 65535"), "{sliced}");
        assert!(want(sliced));
    }

    #[test]
    fn slice_reader_borrows_records_in_place() {
        let file = big_endian_file();
        let mut reader = SliceReader::new(&file).unwrap();
        assert!(reader.is_swapped());
        assert_eq!(reader.link_type(), LinkType::Ieee80211);
        assert_eq!(reader.snaplen(), 65535);
        let (meta, data) = reader.next_record().unwrap().unwrap();
        assert_eq!(meta.ts_sec, 100);
        assert_eq!(meta.ts_nanos, 7000);
        assert_eq!(data, &[0xAB, 0xCD, 0xEF]);
        // The record bytes alias the file, they are not a copy.
        assert_eq!(data.as_ptr(), file[file.len() - 3..].as_ptr());
        assert!(reader.next_record().unwrap().is_none());
    }

    #[test]
    fn slice_reader_agrees_with_streaming_reader() {
        let file = big_endian_file();
        let mut streaming = Reader::new(&file[..]).unwrap();
        let mut sliced = SliceReader::new(&file).unwrap();
        while let Some(rec) = streaming.next_record().unwrap() {
            let (meta, data) = sliced.next_record().unwrap().unwrap();
            assert_eq!((meta.ts_sec, meta.ts_nanos, meta.orig_len), (rec.ts_sec, rec.ts_nanos, rec.orig_len));
            assert_eq!(data, &rec.data[..]);
        }
        assert!(sliced.next_record().unwrap().is_none());
    }

    #[test]
    fn slice_reader_rejects_malformed_files() {
        assert!(matches!(SliceReader::new(&[]), Err(PcapError::TruncatedFile)));
        assert!(matches!(SliceReader::new(&[0u8; 24]), Err(PcapError::BadMagic(0))));
        let mut file = big_endian_file();
        file.truncate(file.len() - 1);
        let mut reader = SliceReader::new(&file).unwrap();
        assert!(matches!(reader.next_record(), Err(PcapError::TruncatedFile)));
        let mut file = big_endian_file();
        file.truncate(24 + 7);
        let mut reader = SliceReader::new(&file).unwrap();
        assert!(matches!(reader.next_record(), Err(PcapError::TruncatedFile)));
    }

    #[test]
    fn iterator_interface() {
        let file = big_endian_file();
        let reader = Reader::new(&file[..]).unwrap();
        let records: Result<Vec<_>, _> = reader.collect();
        assert_eq!(records.unwrap().len(), 1);
    }
}
