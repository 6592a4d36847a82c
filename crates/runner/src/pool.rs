//! A shared-queue worker pool over `std::thread` with panic isolation.
//!
//! Workers pull items off a mutex-guarded queue until it drains, so a
//! slow job never blocks the others behind a static partition. Each item
//! runs under `catch_unwind`: a panicking job is reported as an error
//! string while the worker moves on to the next item, so one crashing
//! simulation cannot take down a sweep.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::channel;
use std::sync::Mutex;
use std::thread;

/// Renders a `catch_unwind` payload as a message.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Runs `work` over `items` on `workers` threads, handing each item's
/// index and result to `on_finish` on the calling thread as it finishes.
/// `Err` holds the panic message if the item's closure panicked.
///
/// `on_finish` runs on the caller's thread, so it may do I/O (journal
/// writes, progress printing) without synchronization.
pub fn run<T, R, F, E>(items: Vec<T>, workers: usize, work: F, mut on_finish: E)
where
    T: Send,
    R: Send,
    F: Fn(&T) -> R + Sync,
    E: FnMut(usize, Result<R, String>),
{
    let workers = workers.max(1).min(items.len().max(1));
    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let (tx, rx) = channel::<(usize, Result<R, String>)>();

    thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let queue = &queue;
            let work = &work;
            s.spawn(move || loop {
                let item = queue.lock().expect("queue poisoned").pop_front();
                let Some((index, item)) = item else { break };
                let result = catch_unwind(AssertUnwindSafe(|| work(&item))).map_err(panic_message);
                if tx.send((index, result)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (index, result) in rx {
            on_finish(index, result);
        }
    });
}

/// Applies `work` to every item on `workers` threads and returns results
/// in input order. A panicking item yields `Err(message)`.
pub fn parallel_map<T, R, F>(items: Vec<T>, workers: usize, work: F) -> Vec<Result<R, String>>
where
    T: Send,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut results: Vec<Option<Result<R, String>>> = Vec::new();
    results.resize_with(items.len(), || None);
    run(items, workers, work, |index, result| {
        results[index] = Some(result)
    });
    results
        .into_iter()
        .map(|r| r.expect("pool finished every item"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_input_order_across_workers() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(items, 8, |&x| x * x);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(r.as_ref().unwrap(), &((i as u64) * (i as u64)));
        }
    }

    #[test]
    fn panics_are_isolated_per_item() {
        let out = parallel_map(vec![1u32, 2, 3, 4], 2, |&x| {
            assert!(x != 3, "item three exploded");
            x * 10
        });
        assert_eq!(out[0].as_ref().unwrap(), &10);
        assert_eq!(out[1].as_ref().unwrap(), &20);
        let err = out[2].as_ref().unwrap_err();
        assert!(err.contains("item three exploded"), "got {err:?}");
        assert_eq!(out[3].as_ref().unwrap(), &40);
    }

    #[test]
    fn run_finishes_every_item_once() {
        let mut finished = [0u32; 10];
        run(
            (0..10u32).collect(),
            3,
            |&x| x,
            |index, result| {
                assert_eq!(result.unwrap() as usize, index);
                finished[index] += 1;
            },
        );
        assert!(finished.iter().all(|&f| f == 1), "{finished:?}");
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let out = parallel_map(vec![5u8], 0, |&x| x + 1);
        assert_eq!(out[0].as_ref().unwrap(), &6);
    }
}
