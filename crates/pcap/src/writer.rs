//! Streaming pcap writer.

use std::io::Write;

use crate::format::{LinkType, PcapError, Record, TsPrecision, MAGIC_MICROS, MAGIC_NANOS};

/// Default snapshot length written to the global header.
pub const DEFAULT_SNAPLEN: u32 = 65_535;

/// A streaming writer producing a classic pcap file in native little-endian
/// byte order.
///
/// See [`Reader`](crate::Reader) for the matching read side and the crate
/// docs for a full round-trip example.
#[derive(Debug)]
pub struct Writer<W> {
    inner: W,
    precision: TsPrecision,
    records_written: u64,
}

impl<W: Write> Writer<W> {
    /// Creates a microsecond-precision writer and emits the global header.
    ///
    /// # Errors
    ///
    /// Any I/O error from writing the header.
    pub fn new(inner: W, link_type: LinkType) -> Result<Self, PcapError> {
        Self::with_precision(inner, link_type, TsPrecision::Micros)
    }

    /// Creates a writer with an explicit timestamp precision.
    ///
    /// # Errors
    ///
    /// Any I/O error from writing the header.
    pub fn with_precision(
        mut inner: W,
        link_type: LinkType,
        precision: TsPrecision,
    ) -> Result<Self, PcapError> {
        let magic = match precision {
            TsPrecision::Micros => MAGIC_MICROS,
            TsPrecision::Nanos => MAGIC_NANOS,
        };
        inner.write_all(&magic.to_le_bytes())?;
        inner.write_all(&2u16.to_le_bytes())?; // version major
        inner.write_all(&4u16.to_le_bytes())?; // version minor
        inner.write_all(&0i32.to_le_bytes())?; // thiszone
        inner.write_all(&0u32.to_le_bytes())?; // sigfigs
        inner.write_all(&DEFAULT_SNAPLEN.to_le_bytes())?;
        inner.write_all(&link_type.to_raw().to_le_bytes())?;
        Ok(Writer { inner, precision, records_written: 0 })
    }

    /// Appends one record.
    ///
    /// With microsecond precision the nanosecond fraction is truncated to
    /// whole microseconds, matching what libpcap itself would store.
    ///
    /// # Errors
    ///
    /// [`PcapError::RecordExceedsSnaplen`] for a record longer than the
    /// 65 535-byte snaplen the header declares — a reader rejects such a
    /// record, so nothing is written — and any I/O error from the
    /// underlying writer.
    pub fn write_record(&mut self, record: &Record) -> Result<(), PcapError> {
        let incl_len = u32::try_from(record.data.len()).unwrap_or(u32::MAX);
        if incl_len > DEFAULT_SNAPLEN {
            return Err(PcapError::RecordExceedsSnaplen { incl_len, snaplen: DEFAULT_SNAPLEN });
        }
        let ts_frac = match self.precision {
            TsPrecision::Micros => record.ts_nanos / 1000,
            TsPrecision::Nanos => record.ts_nanos,
        };
        self.inner.write_all(&record.ts_sec.to_le_bytes())?;
        self.inner.write_all(&ts_frac.to_le_bytes())?;
        self.inner.write_all(&incl_len.to_le_bytes())?;
        self.inner.write_all(&record.orig_len.to_le_bytes())?;
        self.inner.write_all(&record.data)?;
        self.records_written += 1;
        Ok(())
    }

    /// Number of records written so far.
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Flushes the underlying writer.
    ///
    /// # Errors
    ///
    /// Any I/O error from flushing.
    pub fn flush(&mut self) -> Result<(), PcapError> {
        self.inner.flush()?;
        Ok(())
    }

    /// Consumes the writer, returning the underlying stream (not flushed).
    pub fn into_inner(self) -> W {
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Reader, SliceReader};

    #[test]
    fn micros_round_trip_truncates_nanos() {
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf, LinkType::Ieee80211Radiotap).unwrap();
        w.write_record(&Record::new(5, 123_456_789, vec![9; 4])).unwrap();
        assert_eq!(w.records_written(), 1);
        w.flush().unwrap();

        let mut r = Reader::new(&buf[..]).unwrap();
        assert_eq!(r.precision(), TsPrecision::Micros);
        let rec = r.next_record().unwrap().unwrap();
        // nanos truncated to whole µs: 123_456_789 -> 123_456_000.
        assert_eq!(rec.ts_nanos, 123_456_000);
    }

    #[test]
    fn nanos_precision_preserves_fraction() {
        let mut buf = Vec::new();
        let mut w =
            Writer::with_precision(&mut buf, LinkType::Ieee80211, TsPrecision::Nanos).unwrap();
        w.write_record(&Record::new(5, 123_456_789, vec![])).unwrap();

        let mut r = Reader::new(&buf[..]).unwrap();
        assert_eq!(r.precision(), TsPrecision::Nanos);
        let rec = r.next_record().unwrap().unwrap();
        assert_eq!(rec.ts_nanos, 123_456_789);
    }

    #[test]
    fn truncated_records_keep_orig_len() {
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf, LinkType::Prism).unwrap();
        w.write_record(&Record::truncated(1, 0, 1500, vec![0; 64])).unwrap();
        let mut r = Reader::new(&buf[..]).unwrap();
        let rec = r.next_record().unwrap().unwrap();
        assert!(rec.is_truncated());
        assert_eq!(rec.orig_len, 1500);
        assert_eq!(rec.data.len(), 64);
    }

    #[test]
    fn records_longer_than_the_snaplen_are_refused_before_any_byte() {
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf, LinkType::Ieee80211).unwrap();
        let longest = vec![7u8; DEFAULT_SNAPLEN as usize];
        w.write_record(&Record::new(1, 0, longest.clone())).unwrap();
        let too_long = Record::new(2, 0, vec![7u8; DEFAULT_SNAPLEN as usize + 1]);
        match w.write_record(&too_long) {
            Err(PcapError::RecordExceedsSnaplen { incl_len: 65_536, snaplen: 65_535 }) => {}
            other => panic!("expected RecordExceedsSnaplen, got {other:?}"),
        }
        assert_eq!(w.records_written(), 1);
        let buf = w.into_inner();
        assert_eq!(buf.len(), 24 + 16 + longest.len(), "the refused record wrote nothing");

        let mut r = Reader::new(&buf[..]).unwrap();
        assert_eq!(r.next_record().unwrap().unwrap().data, longest);
        assert!(r.next_record().unwrap().is_none());
        let mut s = SliceReader::new(buf).unwrap();
        assert_eq!(s.next_record().unwrap().unwrap().1, &longest[..]);
        assert!(s.next_record().unwrap().is_none());
    }

    #[test]
    fn empty_file_has_just_header() {
        let mut buf = Vec::new();
        Writer::new(&mut buf, LinkType::Ieee80211).unwrap();
        assert_eq!(buf.len(), 24);
        let mut r = Reader::new(&buf[..]).unwrap();
        assert!(r.next_record().unwrap().is_none());
    }
}
