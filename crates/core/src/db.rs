//! Persistence of reference databases in a small line-oriented text
//! format, so learned signatures can be stored and reloaded across runs
//! (the paper's learning/detection phase split).
//!
//! The format stores *signatures*, not layout: the shard directory of
//! the in-memory store is runtime state, grown from the row count by
//! pruned sweeps, so a database saved from any layout reloads flat (a
//! bulk build) and scores identically. The same holds for the precision
//! tier ([`load_db`] packs `f32` rows; [`load_db_with`] takes the
//! [`MatchConfig`] precision): counts are persisted exactly (integers), so a database saved
//! from a quantized (`u8`) store reloads losslessly — quantization is a
//! pack-time layout choice
//! ([`RowPrecision`](crate::matching::RowPrecision)), never a
//! persistence one.
//!
//! Format (one item per line):
//!
//! ```text
//! wifiprint-db v1
//! parameter inter-arrival-time
//! bins uniform 0 25 100          # min width count  (or: bins categorical c1,c2,…)
//! device 02:00:00:00:00:01
//! hist data 0,4,17,…             # counts, one entry per bin
//! hist probe-req 1,0,3,…
//! device 02:00:00:00:00:02
//! …
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::io::{BufRead, Write};
use std::sync::Arc;

use wifiprint_ieee80211::{FrameKind, MacAddr};

use crate::histogram::{BinSpec, Histogram};
use crate::matching::{MatchConfig, ReferenceDb};
use crate::params::NetworkParameter;
use crate::signature::Signature;

/// Errors while encoding or decoding a persisted reference database.
#[derive(Debug)]
pub enum DbCodecError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based number and a description.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for DbCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbCodecError::Io(e) => write!(f, "i/o error: {e}"),
            DbCodecError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for DbCodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbCodecError::Io(e) => Some(e),
            DbCodecError::Parse { .. } => None,
        }
    }
}

impl From<std::io::Error> for DbCodecError {
    fn from(e: std::io::Error) -> Self {
        DbCodecError::Io(e)
    }
}

/// Writes a reference database (its parameter and bin spec included) to a
/// writer.
///
/// # Errors
///
/// I/O errors from the writer.
pub fn save_db<W: Write>(
    mut out: W,
    db: &ReferenceDb,
    parameter: NetworkParameter,
    bins: &BinSpec,
) -> Result<(), DbCodecError> {
    writeln!(out, "wifiprint-db v1")?;
    writeln!(out, "parameter {}", parameter.slug())?;
    match bins {
        BinSpec::Uniform { min, width, count } => {
            writeln!(out, "bins uniform {min} {width} {count}")?;
        }
        BinSpec::Categorical { centers } => {
            let list: Vec<String> = centers.iter().map(f64::to_string).collect();
            writeln!(out, "bins categorical {}", list.join(","))?;
        }
    }
    for (device, sig) in db.iter() {
        writeln!(out, "device {device}")?;
        for (kind, hist) in sig.iter() {
            writeln!(out, "hist {} {}", kind.label(), dense_counts(hist))?;
        }
    }
    Ok(())
}

/// A histogram's counts, one comma-separated entry per bin, zeros
/// included: the format stays dense whatever the in-memory store holds.
fn dense_counts(hist: &Histogram) -> String {
    let mut nonzero = hist.nonzero_counts().iter().peekable();
    let counts: Vec<String> = (0..hist.bin_count())
        .map(|bin| {
            nonzero.next_if(|&&(b, _)| b as usize == bin).map_or(0, |&(_, c)| c).to_string()
        })
        .collect();
    counts.join(",")
}

/// Reads a database previously written with [`save_db`], packing it
/// flat at the default precision ([`MatchConfig::default`]).
///
/// # Errors
///
/// I/O errors, or [`DbCodecError::Parse`] for malformed content,
/// including a device block without observations.
pub fn load_db<R: BufRead>(
    input: R,
) -> Result<(ReferenceDb, NetworkParameter, BinSpec), DbCodecError> {
    load_db_with(input, MatchConfig::default())
}

/// [`load_db`] at an explicit row precision for the reloaded store —
/// e.g. [`MatchConfig::quantized`] for a metropolis-scale deployment.
/// Its shards grow from the row count once a pruned sweep runs.
///
/// # Errors
///
/// I/O errors, or [`DbCodecError::Parse`] for malformed content,
/// including a device block without observations.
pub fn load_db_with<R: BufRead>(
    input: R,
    config: MatchConfig,
) -> Result<(ReferenceDb, NetworkParameter, BinSpec), DbCodecError> {
    let mut lines = input.lines().enumerate();
    let mut next_line = |expect: &str| -> Result<(usize, String), DbCodecError> {
        match lines.next() {
            Some((i, Ok(l))) => Ok((i + 1, l)),
            Some((i, Err(e))) => Err(DbCodecError::Parse {
                line: i + 1,
                message: format!("read failure: {e}"),
            }),
            None => Err(DbCodecError::Parse {
                line: 0,
                message: format!("unexpected end of file, expected {expect}"),
            }),
        }
    };

    let (ln, header) = next_line("header")?;
    if header.trim() != "wifiprint-db v1" {
        return Err(DbCodecError::Parse { line: ln, message: "bad header".into() });
    }
    let (ln, param_line) = next_line("parameter line")?;
    let parameter = param_line
        .strip_prefix("parameter ")
        .and_then(|s| s.trim().parse::<NetworkParameter>().ok())
        .ok_or_else(|| DbCodecError::Parse { line: ln, message: "bad parameter line".into() })?;
    let (ln, bins_line) = next_line("bins line")?;
    let bins = parse_bins(&bins_line)
        .ok_or_else(|| DbCodecError::Parse { line: ln, message: "bad bins line".into() })?;

    let shared_bins = Arc::new(bins.clone());
    let mut signatures: BTreeMap<MacAddr, Signature> = BTreeMap::new();
    let mut current: Option<DeviceBlock> = None;

    for (i, line) in lines {
        let ln = i + 1;
        let line = line.map_err(|e| DbCodecError::Parse {
            line: ln,
            message: format!("read failure: {e}"),
        })?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("device ") {
            let device: MacAddr = rest.trim().parse().map_err(|_| DbCodecError::Parse {
                line: ln,
                message: format!("bad device address {rest:?}"),
            })?;
            seal(current.take(), &mut signatures)?;
            current = Some((ln, device, BTreeMap::new()));
        } else if let Some(rest) = line.strip_prefix("hist ") {
            let (label, counts_str) =
                rest.split_once(' ').ok_or_else(|| DbCodecError::Parse {
                    line: ln,
                    message: "hist line missing counts".into(),
                })?;
            let kind = parse_kind_label(label).ok_or_else(|| DbCodecError::Parse {
                line: ln,
                message: format!("unknown frame kind {label:?}"),
            })?;
            let counts: Result<Vec<u64>, _> =
                counts_str.split(',').map(|c| c.trim().parse::<u64>()).collect();
            let counts = counts.map_err(|e| DbCodecError::Parse {
                line: ln,
                message: format!("bad count: {e}"),
            })?;
            if counts.len() != bins.bin_count() {
                return Err(DbCodecError::Parse {
                    line: ln,
                    message: format!(
                        "histogram has {} bins, spec expects {}",
                        counts.len(),
                        bins.bin_count()
                    ),
                });
            }
            let (_, _, hists) = current.as_mut().ok_or_else(|| DbCodecError::Parse {
                line: ln,
                message: "hist line before any device line".into(),
            })?;
            // Histograms and signatures sum their counts: the device's
            // total (without the kind this line replaces) must fit a u64.
            let others: u64 =
                hists.iter().filter(|&(&k, _)| k != kind).map(|(_, h)| h.total()).sum();
            if counts.iter().try_fold(others, |sum, &c| sum.checked_add(c)).is_none() {
                return Err(DbCodecError::Parse { line: ln, message: "counts overflow".into() });
            }
            hists.insert(kind, Histogram::from_counts(Arc::clone(&shared_bins), counts));
        } else {
            return Err(DbCodecError::Parse {
                line: ln,
                message: format!("unrecognised line {line:?}"),
            });
        }
    }
    seal(current, &mut signatures)?;
    Ok((ReferenceDb::from_signatures_with(signatures, config), parameter, bins))
}

/// A device block being read: its line number, address and histograms.
type DeviceBlock = (usize, MacAddr, BTreeMap<FrameKind, Histogram>);

/// Adds a finished device block to `signatures`. A device without
/// observations is rejected at its line, as [`ReferenceDb::insert`]
/// rejects its empty signature.
fn seal(
    block: Option<DeviceBlock>,
    signatures: &mut BTreeMap<MacAddr, Signature>,
) -> Result<(), DbCodecError> {
    if let Some((line, device, hists)) = block {
        let sig = Signature::from_histograms(hists);
        if sig.observation_count() == 0 {
            return Err(DbCodecError::Parse {
                line,
                message: format!("device {device} has no observations"),
            });
        }
        signatures.insert(device, sig);
    }
    Ok(())
}

fn parse_bins(line: &str) -> Option<BinSpec> {
    let rest = line.strip_prefix("bins ")?;
    if let Some(spec) = rest.strip_prefix("uniform ") {
        let mut it = spec.split_whitespace();
        let min: f64 = it.next()?.parse().ok()?;
        let width: f64 = it.next()?.parse().ok()?;
        let count: usize = it.next()?.parse().ok()?;
        // The overflow bin makes `count + 1` bins, which must fit.
        if it.next().is_some()
            || !min.is_finite()
            || !width.is_finite()
            || width <= 0.0
            || count.checked_add(1).is_none()
        {
            return None;
        }
        Some(BinSpec::Uniform { min, width, count })
    } else if let Some(spec) = rest.strip_prefix("categorical ") {
        let centers: Result<Vec<f64>, _> = spec.split(',').map(|c| c.trim().parse()).collect();
        let centers = centers.ok()?;
        if centers.is_empty() || !centers.iter().all(|c| c.is_finite()) {
            return None;
        }
        Some(BinSpec::Categorical { centers })
    } else {
        None
    }
}

fn parse_kind_label(label: &str) -> Option<FrameKind> {
    if let Some(rest) = label.strip_prefix("reserved-") {
        let (t, s) = rest.split_once('-')?;
        return Some(FrameKind::Reserved {
            type_bits: t.parse().ok()?,
            subtype: s.parse().ok()?,
        });
    }
    FrameKind::ALL_NAMED.into_iter().find(|k| k.label() == label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EvalConfig;
    use proptest::prelude::*;

    fn sample_db() -> (ReferenceDb, NetworkParameter, BinSpec) {
        let param = NetworkParameter::InterArrivalTime;
        let cfg = EvalConfig::for_parameter(param).with_bins(BinSpec::uniform_to(100.0, 10.0));
        let mut db = ReferenceDb::new();
        for idx in 1..=3u64 {
            let mut sig = Signature::new();
            for i in 0..60 {
                sig.record(FrameKind::Data, (idx * 10 + i % 7) as f64, &cfg);
            }
            for _ in 0..5 {
                sig.record(FrameKind::ProbeReq, 95.0, &cfg);
            }
            db.insert(MacAddr::from_index(idx), sig).unwrap();
        }
        (db, param, (*cfg.bins).clone())
    }

    #[test]
    fn save_load_round_trip() {
        let (db, param, bins) = sample_db();
        let mut buf = Vec::new();
        save_db(&mut buf, &db, param, &bins).unwrap();
        let (loaded, lparam, lbins) = load_db(&buf[..]).unwrap();
        assert_eq!(lparam, param);
        assert_eq!(lbins, bins);
        assert_eq!(loaded.len(), db.len());
        for (device, sig) in db.iter() {
            let lsig = loaded.get(&device).expect("device present");
            assert_eq!(lsig, sig, "{device}");
        }
    }

    #[test]
    fn saved_text_is_pinned() {
        // The persisted format is dense: one count per bin, zeros
        // included, whatever the in-memory histogram stores.
        const GOLDEN: &str = "\
        wifiprint-db v1\n\
        parameter inter-arrival-time\n\
        bins uniform 0 10 10\n\
        device 02:00:00:00:00:01\n\
        hist probe-req 0,0,0,0,0,0,0,0,0,5,0\n\
        hist data 0,60,0,0,0,0,0,0,0,0,0\n\
        device 02:00:00:00:00:02\n\
        hist probe-req 0,0,0,0,0,0,0,0,0,5,0\n\
        hist data 0,0,60,0,0,0,0,0,0,0,0\n\
        device 02:00:00:00:00:03\n\
        hist probe-req 0,0,0,0,0,0,0,0,0,5,0\n\
        hist data 0,0,0,60,0,0,0,0,0,0,0\n";
        let (db, param, bins) = sample_db();
        let mut buf = Vec::new();
        save_db(&mut buf, &db, param, &bins).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), GOLDEN);
        let (loaded, lparam, lbins) = load_db(GOLDEN.as_bytes()).unwrap();
        assert_eq!((lparam, &lbins), (param, &bins));
        assert_eq!(loaded.iter().collect::<Vec<_>>(), db.iter().collect::<Vec<_>>());
    }

    #[test]
    fn categorical_bins_round_trip() {
        let param = NetworkParameter::TransmissionRate;
        let cfg = EvalConfig::for_parameter(param);
        let mut db = ReferenceDb::new();
        let mut sig = Signature::new();
        for _ in 0..50 {
            sig.record(FrameKind::QosData, 54.0, &cfg);
        }
        db.insert(MacAddr::from_index(1), sig).unwrap();
        let mut buf = Vec::new();
        save_db(&mut buf, &db, param, &cfg.bins).unwrap();
        let (loaded, _, lbins) = load_db(&buf[..]).unwrap();
        assert_eq!(lbins, *cfg.bins);
        assert_eq!(loaded.len(), 1);
    }

    #[test]
    fn layouts_reload_and_score_identically() {
        // The persisted format carries no layout: a sharded store
        // reloads flat and scores identically.
        let (mut sharded, param, bins) = sample_db();
        sharded.reshard(7);
        let mut buf = Vec::new();
        save_db(&mut buf, &sharded, param, &bins).unwrap();
        let (flat, _, _) = load_db(&buf[..]).unwrap();
        assert_eq!(flat.shard_count(), 1);
        assert_eq!(flat.len(), sharded.len());
        let cand = [sharded.iter().next().unwrap().1.clone()];
        let mut scratch = crate::MatchScratch::new();
        let measure = crate::SimilarityMeasure::Cosine;
        let a = flat.match_tile(&cand, measure, &mut scratch).candidate(0).to_outcome();
        let b = sharded.match_tile(&cand, measure, &mut scratch).candidate(0);
        assert_eq!(a.similarities().collect::<Vec<_>>(), b.similarities().collect::<Vec<_>>());
    }

    #[test]
    fn reserved_kind_labels_round_trip() {
        assert_eq!(
            parse_kind_label("reserved-3-5"),
            Some(FrameKind::Reserved { type_bits: 3, subtype: 5 })
        );
        assert_eq!(parse_kind_label("qos-data"), Some(FrameKind::QosData));
        assert_eq!(parse_kind_label("nonsense"), None);
    }

    #[test]
    fn rejects_malformed_inputs() {
        let cases: &[(&str, &str)] = &[
            ("", "unexpected end"),
            ("not-a-db", "bad header"),
            ("wifiprint-db v1\nparameter bogus\nbins uniform 0 1 2", "bad parameter"),
            ("wifiprint-db v1\nparameter frame-size\nbins nonsense", "bad bins"),
            (
                "wifiprint-db v1\nparameter frame-size\nbins uniform 0 1 2\nhist data 1,2,3",
                "before any device",
            ),
            (
                "wifiprint-db v1\nparameter frame-size\nbins uniform 0 1 2\ndevice zz:zz",
                "bad device",
            ),
            (
                "wifiprint-db v1\nparameter frame-size\nbins uniform 0 1 2\ndevice 02:00:00:00:00:01\nhist data 1,2",
                "bins",
            ),
            (
                "wifiprint-db v1\nparameter frame-size\nbins uniform 0 1 2\nwhat is this",
                "unrecognised",
            ),
            (
                "wifiprint-db v1\nparameter frame-size\nbins uniform 0 1 18446744073709551615\ndevice 02:00:00:00:00:01\nhist data 1",
                "bad bins",
            ),
            ("wifiprint-db v1\nparameter frame-size\nbins uniform 0 NaN 2", "bad bins"),
            ("wifiprint-db v1\nparameter frame-size\nbins categorical NaN,inf", "bad bins"),
            (
                "wifiprint-db v1\nparameter frame-size\nbins uniform 0 1 1\ndevice 02:00:00:00:00:01\nhist data 18446744073709551615,1",
                "counts overflow",
            ),
            (
                "wifiprint-db v1\nparameter frame-size\nbins uniform 0 1 0\ndevice 02:00:00:00:00:01\nhist data 18446744073709551615\nhist beacon 1",
                "counts overflow",
            ),
        ];
        for (input, needle) in cases {
            let err = load_db(input.as_bytes()).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(needle), "input {input:?}: got {msg:?}");
        }
    }

    proptest! {
        // Save → load is the identity over arbitrary signatures and both
        // bin kinds, and every prefix of the saved text loads or fails
        // with a typed parse error — never a panic.
        #[test]
        fn save_load_round_trips_and_truncations_never_panic(
            uniform in any::<bool>(),
            min in -50.0f64..50.0,
            width in 0.5f64..40.0,
            bins in 1usize..12,
            devices in prop::collection::vec(
                prop::collection::vec((0usize..4, -60.0f64..500.0), 1..20), 1..5),
        ) {
            let spec = if uniform {
                BinSpec::Uniform { min, width, count: bins }
            } else {
                BinSpec::Categorical {
                    centers: (0..bins).map(|i| min + width * i as f64).collect(),
                }
            };
            let kinds = [
                FrameKind::Data,
                FrameKind::ProbeReq,
                FrameKind::Beacon,
                FrameKind::Reserved { type_bits: 3, subtype: 5 },
            ];
            let mut signatures = BTreeMap::new();
            for (d, values) in devices.iter().enumerate() {
                let mut hists: BTreeMap<FrameKind, Histogram> = BTreeMap::new();
                for &(k, v) in values {
                    hists.entry(kinds[k]).or_insert_with(|| Histogram::new(spec.clone())).add(v);
                }
                signatures
                    .insert(MacAddr::from_index(d as u64 + 1), Signature::from_histograms(hists));
            }
            let db = ReferenceDb::from_signatures(signatures);
            let mut buf = Vec::new();
            save_db(&mut buf, &db, NetworkParameter::FrameSize, &spec).unwrap();
            let (loaded, param, lbins) = load_db(&buf[..]).unwrap();
            prop_assert_eq!(param, NetworkParameter::FrameSize);
            prop_assert_eq!(&lbins, &spec);
            prop_assert_eq!(loaded.iter().collect::<Vec<_>>(), db.iter().collect::<Vec<_>>());
            for cut in 0..buf.len() {
                match load_db(&buf[..cut]) {
                    Ok(_) | Err(DbCodecError::Parse { .. }) => {}
                    Err(e) => panic!("cut at byte {cut}: {e}"),
                }
            }
        }
    }

    #[test]
    fn rejects_a_device_without_observations() {
        // No hist line, or only all-zero counts: either way the device
        // has an empty signature, which the store would never match.
        let head = "wifiprint-db v1\nparameter frame-size\nbins uniform 0 1 2\n";
        let ok = "device 02:00:00:00:00:01\nhist data 1,0,0\n";
        for (body, line) in [
            (format!("{ok}device 02:00:00:00:00:02\ndevice 02:00:00:00:00:03\nhist data 1,0,0"), 6),
            (format!("{ok}device 02:00:00:00:00:02\nhist data 0,0,0\nhist beacon 0,0,0"), 6),
            (format!("{ok}device 02:00:00:00:00:02"), 6),
        ] {
            let input = format!("{head}{body}");
            match load_db_with(input.as_bytes(), MatchConfig::default()) {
                Err(DbCodecError::Parse { line: l, message }) => {
                    assert_eq!(l, line, "{input:?}");
                    assert!(message.contains("no observations"), "{message:?}");
                }
                other => panic!("{input:?}: got {other:?}"),
            }
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let (db, param, bins) = sample_db();
        let mut buf = Vec::new();
        save_db(&mut buf, &db, param, &bins).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text = text.replace("device 02:00:00:00:00:02", "# comment\n\ndevice 02:00:00:00:00:02");
        let (loaded, _, _) = load_db(text.as_bytes()).unwrap();
        assert_eq!(loaded.len(), 3);
    }
}
