//! Replays a pcap capture through the zero-copy ingest path into a
//! fused [`MultiEngine`] and prints the per-file decode statistics.
//!
//! With a path argument it reads that file whole; without one it
//! synthesises a small two-device radiotap capture in memory so the
//! example runs self-contained:
//!
//! ```text
//! cargo run --release -p wifiprint-bench --example pcap_replay [capture.pcap]
//! ```

use wifiprint_core::{FusionSpec, MultiConfig, MultiEngine, MultiEvent};
use wifiprint_ieee80211::{Frame, MacAddr, Nanos, Rate};
use wifiprint_pcap::{LinkType, Record, Replay, Writer};
use wifiprint_radiotap::{RxFlags, RxInfo};

/// Two stations talking to one AP with different packet cadences, so the
/// engine has something to enroll.
fn synthetic_capture() -> Vec<u8> {
    let ap = MacAddr::from_index(0xA0);
    let stations = [MacAddr::from_index(1), MacAddr::from_index(2)];
    let mut file = Vec::new();
    let mut writer = Writer::new(&mut file, LinkType::Ieee80211Radiotap)
        .expect("writing to a Vec cannot fail");
    for i in 0..2_000u64 {
        let sta = stations[(i % 2) as usize];
        let frame = Frame::data_to_ds(sta, ap, ap, 200 + (i % 2) as usize * 600);
        let ts_us = 2_000 * (i + 1);
        let info = RxInfo {
            tsft_us: Some(ts_us),
            rate: Some(Rate::R54M),
            signal_dbm: Some(if i % 2 == 0 { -48 } else { -61 }),
            flags: RxFlags::FCS_INCLUDED,
            ..RxInfo::default()
        };
        let mut packet = info.to_radiotap();
        packet.extend_from_slice(&frame.to_bytes());
        writer
            .write_record(&Record::from_micros(ts_us, packet))
            .expect("writing to a Vec cannot fail");
    }
    file
}

fn run(file: &[u8]) -> Result<(), Box<dyn std::error::Error>> {
    let mut replay = Replay::from_slice(file)?;
    println!("link type: {:?}", replay.link_type());

    let mut cfg = MultiConfig::default().with_min_observations(20);
    cfg.window = Nanos::from_secs(1);
    let mut engine = MultiEngine::builder()
        .spec(FusionSpec::all_equal())
        .config(cfg)
        .train_for(Nanos::from_secs(2))
        .build()?;

    let mut events = Vec::new();
    while let Some(f) = replay.next_frame()? {
        events.extend(engine.observe(&f)?);
    }
    events.extend(engine.finish()?);
    let stats = replay.stats();

    println!(
        "records: {} decoded, {} header errors, {} frame errors",
        stats.decoded, stats.header_errors, stats.frame_errors
    );
    println!(
        "defaulted fields: rate {}, signal {}, timestamp {}",
        stats.defaulted_rate, stats.defaulted_signal, stats.defaulted_timestamp
    );
    let enrolled: Vec<MacAddr> = events
        .iter()
        .filter_map(|e| match e {
            MultiEvent::Enrolled { device, .. } => Some(*device),
            _ => None,
        })
        .collect();
    println!("events: {} total, {} devices enrolled", events.len(), enrolled.len());
    for device in enrolled {
        println!("  enrolled {device}");
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let file = match std::env::args().nth(1) {
        Some(path) => {
            println!("replaying {path}");
            std::fs::read(path)?
        }
        None => {
            println!("no capture given; replaying a synthetic two-station trace");
            synthetic_capture()
        }
    };
    run(&file)
}
