//! Tiled execution with per-worker scratch state the caller owns.
//!
//! A [`MultiEngine`](crate::MultiEngine) window close scores its
//! candidates in tiles, each tile against every parameter's reference,
//! and offline evaluation scores thousands of candidate windows against
//! one [`ReferenceDb`](crate::ReferenceDb). Each sweep needs a
//! [`MatchScratch`](crate::MatchScratch), but the tiles are independent.
//! [`map_tiles_with_scratch`] captures that shape once: the tiles are
//! split into contiguous chunks, one per worker, each with `&mut` access
//! to its tiles and to its own scratch in a vector the caller keeps, and
//! the outputs are joined back in input order. The calling thread is the
//! first worker: it runs the first chunk itself while `std::thread::scope`
//! threads run the others, so a fan-out of `n` spawns `n − 1` threads and
//! the caller never idles in `join` while work is left. The width is the
//! CPU count (`WIFIPRINT_THREADS` overrides it) capped at the number of
//! tiles. One worker runs every tile on the calling thread and spawns
//! nothing; that is the route 1-CPU hosts and `WIFIPRINT_THREADS=1` take.

/// Maps `items` through `f` one **tile** (contiguous chunk of at most
/// `tile` items) at a time, flattening the per-tile outputs back into
/// item order.
///
/// This is the fan-out shape of the tiled matching engine
/// ([`ReferenceDb::match_tile`](crate::ReferenceDb::match_tile)): a tile
/// of candidate windows shares one pass over the reference rows, and
/// tiles are independent, so tiles are what gets spread across workers,
/// down to one tile per worker. A `MultiEngine` window close hands it
/// tiles of [`MATCH_TILE`](crate::MATCH_TILE) candidates, and each worker
/// sweeps, fuses and emits the events of its tiles. `f` must return
/// exactly one output per input item for the flattened order to line up
/// (all callers in this workspace do); its writes to a tile reach the
/// caller. `scratches` grows (never shrinks) to the worker count picked,
/// worker `w` using `scratches[w]`, so a caller keeps them warm.
pub fn map_tiles_with_scratch<T, S, U, F>(
    items: &mut [T],
    tile: usize,
    scratches: &mut Vec<S>,
    f: F,
) -> Vec<U>
where
    T: Send,
    S: Default + Send,
    U: Send,
    F: Fn(&mut S, &mut [T]) -> Vec<U> + Sync,
{
    let tile = tile.max(1);
    let workers = worker_count(items.len().div_ceil(tile));
    map_with_workers(items, tile, scratches, f, workers)
}

/// [`map_tiles_with_scratch`] over `workers` contiguous chunks of whole
/// tiles. The calling thread runs the first chunk and scoped threads run
/// the rest, so one worker (or an empty batch) spawns nothing.
fn map_with_workers<T, S, U, F>(
    items: &mut [T],
    tile: usize,
    scratches: &mut Vec<S>,
    f: F,
    workers: usize,
) -> Vec<U>
where
    T: Send,
    S: Default + Send,
    U: Send,
    F: Fn(&mut S, &mut [T]) -> Vec<U> + Sync,
{
    if scratches.len() < workers {
        scratches.resize_with(workers, S::default);
    }
    let len = items.len();
    let run = |scratch: &mut S, chunk: &mut [T]| {
        chunk.chunks_mut(tile).flat_map(|tile| f(scratch, tile)).collect::<Vec<U>>()
    };
    let per_worker = len.div_ceil(tile).div_ceil(workers).max(1) * tile;
    let mut chunks = items.chunks_mut(per_worker).zip(scratches.iter_mut());
    let Some((first, first_scratch)) = chunks.next() else { return Vec::new() };
    std::thread::scope(|scope| {
        let handles: Vec<_> =
            chunks.map(|(chunk, scratch)| scope.spawn(|| run(scratch, chunk))).collect();
        let mut out = run(first_scratch, first);
        out.reserve(len - out.len());
        for handle in handles {
            out.extend(handle.join().expect("batch worker panicked"));
        }
        out
    })
}

/// Worker count for `units` independent work units: the CPU count
/// (overridable with `WIFIPRINT_THREADS`), capped at the unit count.
fn worker_count(units: usize) -> usize {
    let cpus = std::env::var("WIFIPRINT_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get));
    cpus.min(units).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Doubles each item of a tile; no scratch.
    fn double((): &mut (), tile: &mut [u64]) -> Vec<u64> {
        tile.iter().map(|x| x * 2).collect()
    }

    /// Counts the tiles its scratch has seen, reporting the count per item.
    fn count(scratch: &mut usize, tile: &mut [()]) -> Vec<usize> {
        *scratch += 1;
        vec![*scratch; tile.len()]
    }

    #[test]
    fn preserves_order() {
        // Every worker width, including more workers than items.
        let mut items: Vec<u64> = (0..1000).collect();
        let want: Vec<u64> = items.iter().map(|x| x * 2).collect();
        for workers in [1, 2, 3, 7, 1000, 2000] {
            for tile in [1, 8] {
                let out = map_with_workers(&mut items, tile, &mut Vec::new(), double, workers);
                assert_eq!(out, want, "{workers} workers, tile {tile}");
            }
        }
    }

    #[test]
    fn threaded_path_preserves_order_even_on_one_cpu() {
        // Force multiple workers regardless of the host's CPU count so
        // the chunked join path is exercised deterministically.
        let mut items: Vec<u64> = (0..257).collect();
        let out = map_with_workers(&mut items, 3, &mut Vec::new(), double, 4);
        assert_eq!(out, (0..257).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batch() {
        for workers in [1, 4] {
            assert!(map_with_workers(&mut [], 1, &mut Vec::new(), double, workers).is_empty());
        }
        for tile in [0, 1, 8] {
            let out = map_tiles_with_scratch(&mut [], tile, &mut Vec::new(), double);
            assert!(out.is_empty(), "tile {tile}");
        }
    }

    #[test]
    fn tiled_map_flattens_in_order() {
        let mut items: Vec<u64> = (0..23).collect();
        for tile in [1, 4, 8, 23, 100] {
            let mut scratches = Vec::new();
            let out = map_tiles_with_scratch(&mut items, tile, &mut scratches, |seen, chunk| {
                *seen += 1usize; // scratch survives across a worker's tiles
                assert!(chunk.len() <= tile);
                chunk.iter().map(|&x| x * 3).collect()
            });
            assert_eq!(out, (0..23).map(|x| x * 3).collect::<Vec<_>>(), "tile {tile}");
            // One scratch per worker the call picked, and every tile seen.
            assert_eq!(scratches.len(), worker_count(23usize.div_ceil(tile)), "tile {tile}");
            assert_eq!(scratches.iter().sum::<usize>(), 23usize.div_ceil(tile), "tile {tile}");
        }
    }

    #[test]
    fn the_caller_runs_the_first_chunk() {
        // Eight items over four workers: chunks of two. The first runs on
        // the calling thread, the other three each on a spawned one.
        let caller = std::thread::current().id();
        let ids = map_with_workers(
            &mut [(); 8],
            1,
            &mut Vec::new(),
            |(): &mut (), tile| vec![std::thread::current().id(); tile.len()],
            4,
        );
        assert!(ids[..2].iter().all(|&id| id == caller), "chunk 0 runs on the caller");
        assert!(ids[2..].iter().all(|&id| id != caller), "chunks 1.. run on spawned threads");
        let spawned: std::collections::HashSet<_> = ids[2..].iter().collect();
        assert_eq!(spawned.len(), 3, "one spawned thread per remaining chunk");
    }

    #[test]
    fn scratch_is_reused_within_a_worker() {
        // One worker: one scratch counts every tile, and the caller's
        // vector carries its count into the next call.
        let mut scratches = Vec::new();
        assert_eq!(map_with_workers(&mut [(); 3], 1, &mut scratches, count, 1), [1, 2, 3]);
        assert_eq!(scratches, [3]);
        assert_eq!(map_with_workers(&mut [(); 2], 1, &mut scratches, count, 1), [4, 5]);
        // Two workers over chunks of 4 and 3 tiles: the vector grows to
        // two scratches; the first keeps counting, the second starts
        // fresh.
        let out = map_with_workers(&mut [(); 7], 1, &mut scratches, count, 2);
        assert_eq!(out, [6, 7, 8, 9, 1, 2, 3]);
        assert_eq!(scratches, [9, 3]);
        // A narrower call leaves the second scratch warm for later.
        assert_eq!(map_with_workers(&mut [(); 1], 1, &mut scratches, count, 1), [10]);
        assert_eq!(scratches, [10, 3]);
    }

    #[test]
    fn workers_write_through_their_tiles() {
        for workers in [1, 3] {
            let mut items: Vec<Option<u64>> = (0..10).map(Some).collect();
            let taken = map_with_workers(
                &mut items,
                4,
                &mut Vec::new(),
                |(): &mut (), tile| tile.iter_mut().map(Option::take).collect(),
                workers,
            );
            assert_eq!(taken, (0..10).map(Some).collect::<Vec<_>>(), "{workers} workers");
            assert!(items.iter().all(Option::is_none), "{workers} workers: {items:?}");
        }
    }

    #[test]
    fn one_worker_equals_many() {
        // Each item reports the first item of its tile and is rewritten in
        // place: the tiles, the outputs and the writes agree at any width.
        let run = |workers| {
            let mut items: Vec<u64> = (0..29).collect();
            let out = map_with_workers(
                &mut items,
                4,
                &mut Vec::new(),
                |(): &mut (), tile: &mut [u64]| {
                    let head = tile[0];
                    tile.iter_mut()
                        .map(|x| {
                            *x += 100;
                            (head, *x)
                        })
                        .collect::<Vec<_>>()
                },
                workers,
            );
            (out, items)
        };
        let serial = run(1);
        for workers in [2, 3, 5, 8, 13] {
            assert_eq!(run(workers), serial, "{workers} workers");
        }
    }
}
