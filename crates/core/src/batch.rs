//! Tiled execution with per-worker scratch state.
//!
//! A [`MultiEngine`](crate::MultiEngine) window close scores its
//! candidates in tiles, each tile against every parameter's reference,
//! and offline evaluation scores thousands of candidate windows against
//! one [`ReferenceDb`](crate::ReferenceDb). Each sweep needs a
//! [`MatchScratch`](crate::MatchScratch), but the tiles are independent.
//! [`map_tiles_with_scratch`] captures that shape once: the tiles are
//! split into contiguous chunks, one per worker, each with its own
//! scratch, and the outputs are joined back in input order. The calling
//! thread is the first worker: it runs the first chunk itself while
//! `std::thread::scope` threads run the others, so a fan-out of `n`
//! spawns `n − 1` threads and the caller never idles in `join` while work
//! is left. The width is the CPU count (`WIFIPRINT_THREADS` overrides it)
//! capped at the number of tiles. One worker runs every tile on the
//! calling thread and spawns nothing; that is the route 1-CPU hosts and
//! `WIFIPRINT_THREADS=1` take.

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
/// sweeps and fuses its tiles across every parameter. `f` must return
/// exactly one output per input item for the flattened order to line up
/// (all callers in this workspace do).
pub fn map_tiles_with_scratch<T, S, U, I, F>(
    items: &[T],
    tile: usize,
    init: I,
    f: F,
) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &[T]) -> Vec<U> + Sync,
{
    let tiles: Vec<&[T]> = items.chunks(tile.max(1)).collect();
    let workers = worker_count(tiles.len());
    map_with_workers(&tiles, init, |scratch, chunk| f(scratch, chunk), workers)
        .into_iter()
        .flatten()
        .collect()
}

/// Maps `items` through `f` in order over `workers` contiguous chunks,
/// each with its own scratch value from `init`. The calling thread runs
/// the first chunk and scoped threads run the rest, so one worker (or an
/// empty batch) spawns nothing.
fn map_with_workers<T, S, U, I, F>(items: &[T], init: I, f: F, workers: usize) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> U + Sync,
{
    let run = |chunk: &[T]| {
        let mut scratch = init();
        chunk.iter().map(|item| f(&mut scratch, item)).collect::<Vec<U>>()
    };
    if workers <= 1 || items.is_empty() {
        return run(items);
    }
    let mut chunks = items.chunks(items.len().div_ceil(workers));
    let first = chunks.next().expect("a non-empty batch has a first chunk");
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks.map(|chunk| scope.spawn(|| run(chunk))).collect();
        let mut out = run(first);
        out.reserve(items.len() - out.len());
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

    #[test]
    fn preserves_order() {
        // Every worker width, including more workers than items.
        let items: Vec<u64> = (0..1000).collect();
        for workers in [1, 2, 3, 7, 1000, 2000] {
            let out = map_with_workers(&items, || (), |(), &x| x * 2, workers);
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>(), "{workers} workers");
        }
    }

    #[test]
    fn threaded_path_preserves_order_even_on_one_cpu() {
        // Force multiple workers regardless of the host's CPU count so
        // the chunked join path is exercised deterministically.
        let items: Vec<u64> = (0..257).collect();
        let out = map_with_workers(&items, || (), |(), &x| x + 1, 4);
        assert_eq!(out, items.iter().map(|x| x + 1).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batch() {
        for workers in [1, 4] {
            assert!(map_with_workers(&[] as &[u8], || (), |(), _| 1u8, workers).is_empty());
        }
        for tile in [1, 8] {
            let out = map_tiles_with_scratch(&[] as &[u8], tile, || (), |(), c| vec![0u8; c.len()]);
            assert!(out.is_empty(), "tile {tile}");
        }
    }

    #[test]
    fn tiled_map_flattens_in_order() {
        let items: Vec<u32> = (0..23).collect();
        for tile in [1, 4, 8, 23, 100] {
            let out = map_tiles_with_scratch(&items, tile, || 0u32, |scratch, chunk| {
                *scratch += 1; // scratch survives across a worker's tiles
                assert!(chunk.len() <= tile);
                chunk.iter().map(|&x| x * 3).collect()
            });
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>(), "tile {tile}");
        }
        let empty = map_tiles_with_scratch(&[] as &[u8], 0, || (), |(), c| vec![0u8; c.len()]);
        assert!(empty.is_empty());
    }

    #[test]
    fn the_caller_runs_the_first_chunk() {
        // Eight items over four workers: chunks of two. The first runs on
        // the calling thread, the other three each on a spawned one.
        let caller = std::thread::current().id();
        let ids = map_with_workers(&[(); 8], || (), |(), ()| std::thread::current().id(), 4);
        assert!(ids[..2].iter().all(|&id| id == caller), "chunk 0 runs on the caller");
        assert!(ids[2..].iter().all(|&id| id != caller), "chunks 1.. run on spawned threads");
        let spawned: std::collections::HashSet<_> = ids[2..].iter().collect();
        assert_eq!(spawned.len(), 3, "one spawned thread per remaining chunk");
    }

    #[test]
    fn scratch_is_reused_within_a_worker() {
        // One worker: one scratch counts every item.
        let out = map_with_workers(&[(); 7], || 0usize, |scratch, ()| {
            *scratch += 1;
            *scratch
        }, 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6, 7]);
        // Two workers over chunks of 4 and 3: each chunk starts a fresh
        // scratch.
        let out = map_with_workers(&[(); 7], || 0usize, |scratch, ()| {
            *scratch += 1;
            *scratch
        }, 2);
        assert_eq!(out, vec![1, 2, 3, 4, 1, 2, 3]);
    }
}
