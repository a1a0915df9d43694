//! Proves the acceptance criterion of the zero-copy ingest work: replaying
//! an in-memory capture performs **zero heap allocations**. A counting
//! global allocator wraps `System`; building the replay and decoding
//! thousands of records must not allocate at all.
//!
//! The count is per thread: the test harness runs the tests in parallel,
//! and a process-wide counter would charge each test with the other's
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wifiprint_ieee80211::{Frame, MacAddr, Rate};
use wifiprint_pcap::{LinkType, Record, Replay, Writer};
use wifiprint_radiotap::{RxFlags, RxInfo};

struct CountingAllocator;

thread_local! {
    // Const-initialised, so counting never allocates (and never re-enters
    // the allocator).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocations made on the calling thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// An in-memory radiotap capture: `n` frames of mixed kinds and sizes.
fn build_capture(n: u64) -> Vec<u8> {
    let sta = MacAddr::from_index(1);
    let ap = MacAddr::from_index(2);
    let mut file = Vec::new();
    let mut writer = Writer::new(&mut file, LinkType::Ieee80211Radiotap).unwrap();
    for i in 0..n {
        let frame = match i % 3 {
            0 => Frame::data_to_ds(sta, ap, ap, 1400 - (i as usize % 700)),
            1 => Frame::ack(ap),
            _ => Frame::beacon(ap, vec![7; 80]),
        };
        let info = RxInfo {
            tsft_us: Some(25 * (i + 1)),
            rate: Some(Rate::R54M),
            signal_dbm: Some(-50),
            flags: RxFlags::FCS_INCLUDED,
            ..RxInfo::default()
        };
        let mut packet = info.to_radiotap();
        packet.extend_from_slice(&frame.to_bytes());
        writer.write_record(&Record::from_micros(25 * (i + 1), packet)).unwrap();
    }
    file
}

#[test]
fn slice_replay_allocates_nothing_at_all() {
    const TOTAL: u64 = 4096;
    let file = build_capture(TOTAL);

    // No warm-up: the replay borrows every record and has no buffer to
    // grow, so the entire pass — construction included — must not
    // allocate.
    let before = allocations();
    let mut replay = Replay::from_slice(&file).unwrap();
    let mut decoded = 0u64;
    let mut size_sum = 0usize;
    while let Some(frame) = replay.next_frame().unwrap() {
        decoded += 1;
        size_sum += frame.size;
    }
    let after = allocations();

    assert_eq!(decoded, TOTAL);
    assert!(size_sum > 0);
    assert_eq!(
        after - before,
        0,
        "slice replay of {decoded} records allocated {} times",
        after - before
    );
    assert_eq!(replay.stats().decoded, TOTAL);
}
