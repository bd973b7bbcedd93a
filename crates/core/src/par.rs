//! Deterministic fan-out over coarse work items.
//!
//! A program compiles on one thread. The only fan-out is across whole
//! simulations: the points of the Fig 6.3–6.6 sweeps and the candidate
//! trials of one tuner round. Each item is at least a full simulation,
//! so the spawn cost is small next to the work.
//!
//! Determinism is by construction: items are split into contiguous chunks
//! in input order, each result depends only on its item, and results land
//! at the item's original index. The output is therefore identical to the
//! serial loop at any thread count (pinned by
//! `experiments::tests::sweep_rows_identical_serial_vs_parallel`).

/// Threads to use by default: one per available core, capped.
pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(16)
}

/// Map every element through `f`, preserving order, fanned out over
/// `threads` OS threads. `threads <= 1` (or tiny inputs) maps serially.
pub(crate) fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (chunk_idx, (slice_in, slice_out)) in
            items.chunks(chunk).zip(out.chunks_mut(chunk)).enumerate()
        {
            let base = chunk_idx * chunk;
            let f = &f;
            scope.spawn(move || {
                for (off, (item, slot)) in slice_in.iter().zip(slice_out.iter_mut()).enumerate() {
                    *slot = Some(f(base + off, item));
                }
            });
        }
    });
    out.into_iter().map(|r| r.expect("par_map slot filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_and_indices() {
        let items: Vec<u32> = (0..53).collect();
        let serial: Vec<(usize, u32)> =
            items.iter().enumerate().map(|(i, &x)| (i, x * 3)).collect();
        let parallel = par_map(&items, 4, |i, &x| (i, x * 3));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn degenerate_sizes() {
        let empty: Vec<u8> = vec![];
        assert!(par_map(&empty, 4, |_, x: &u8| *x).is_empty());
        let one = vec![7u8];
        assert_eq!(par_map(&one, 4, |i, x| (i, *x)), vec![(0, 7)]);
    }

    #[test]
    fn zst_items_do_not_divide_by_zero() {
        let items = vec![(), (), ()];
        assert_eq!(par_map(&items, 2, |i, _| i), vec![0, 1, 2]);
    }
}
