//! Robustness of the persistent kernel pool: every test here fails or
//! hangs on a pool that deadlocks, loses or repeats chunks, or stays
//! broken after a panic.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rayon::prelude::*;
use rayon::with_num_threads;

/// `data[k] = k` written chunk by chunk.
fn fill_indices(data: &mut [usize], chunk: usize) {
    data.par_chunks_mut(chunk).enumerate().for_each(|(i, c)| {
        for (k, v) in c.iter_mut().enumerate() {
            *v = i * chunk + k;
        }
    });
}

fn is_indices(data: &[usize]) -> bool {
    data.iter().enumerate().all(|(k, &v)| v == k)
}

#[test]
fn nested_call_inside_a_chunk_completes() {
    with_num_threads(2, || {
        let mut outer = vec![vec![0usize; 37]; 8];
        outer.par_chunks_mut(1).for_each(|row| {
            // A kernel called from inside a chunk finds the pool busy and
            // runs inline; it must neither deadlock nor skip chunks.
            with_num_threads(2, || fill_indices(&mut row[0], 5));
        });
        assert!(outer.iter().all(|row| is_indices(row)));
        let sums: Vec<usize> = (0..8usize)
            .into_par_iter()
            .map(|i| {
                let inner: Vec<usize> = (0..i).into_par_iter().map(|j| j + 1).collect();
                inner.iter().sum()
            })
            .collect();
        assert_eq!(sums, (0..8).map(|i| i * (i + 1) / 2).collect::<Vec<_>>());
    });
}

#[test]
fn concurrent_callers_each_get_correct_results() {
    std::thread::scope(|s| {
        for t in 0..4usize {
            s.spawn(move || {
                with_num_threads(2, || {
                    for rep in 0..500 {
                        let mut data = vec![0usize; 97 + t + rep % 7];
                        fill_indices(&mut data, 4 + t);
                        assert!(is_indices(&data), "caller {t} rep {rep}");
                        let v: Vec<usize> = (0..50 + t).into_par_iter().map(|i| i * t).collect();
                        assert!(v.iter().enumerate().all(|(i, &x)| x == i * t));
                    }
                });
            });
        }
    });
}

#[test]
fn panicking_chunk_reaches_caller_and_pool_recovers() {
    for workers in [2, 3] {
        for bad in [0usize, 5, 9] {
            let result = std::panic::catch_unwind(|| {
                with_num_threads(workers, || {
                    let mut data = [0u8; 100];
                    data.par_chunks_mut(10).enumerate().for_each(|(i, _)| {
                        if i == bad {
                            std::panic::panic_any(i);
                        }
                    });
                })
            });
            let payload = result.expect_err("a chunk panic must propagate to the caller");
            assert_eq!(
                payload.downcast_ref::<usize>(),
                Some(&bad),
                "original payload re-raised"
            );
            // The next call on the same pool succeeds.
            let mut data = vec![0usize; 1000];
            with_num_threads(workers, || fill_indices(&mut data, 16));
            assert!(is_indices(&data));
        }
    }
    // A panic on a helper thread (not just on the caller) is re-raised on
    // the caller: the caller's chunks hold briefly so a helper can take
    // one. A call that finds the pool busy with another test runs inline
    // with no helper, so retry until a helper has run.
    let started = Instant::now();
    let payload = loop {
        let caller = std::thread::current().id();
        let helper_ran = AtomicBool::new(false);
        let result = std::panic::catch_unwind(|| {
            with_num_threads(2, || {
                let mut data = [0u8; 4];
                data.par_chunks_mut(1).for_each(|_| {
                    if std::thread::current().id() != caller {
                        helper_ran.store(true, Ordering::SeqCst);
                        std::panic::panic_any("helper chunk");
                    }
                    let wait = Instant::now();
                    while !helper_ran.load(Ordering::SeqCst)
                        && wait.elapsed() < Duration::from_millis(100)
                    {
                        std::thread::yield_now();
                    }
                });
            })
        });
        match result {
            Err(payload) => break payload,
            Ok(()) => assert!(!helper_ran.into_inner(), "a helper's panic was lost"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "no helper ever ran a chunk"
        );
    };
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper chunk"));
    let map_panic = std::panic::catch_unwind(|| {
        with_num_threads(2, || {
            let _: Vec<usize> = (0..10usize)
                .into_par_iter()
                .map(|i| if i == 7 { panic!("map panic") } else { i })
                .collect();
        })
    });
    assert!(map_panic.is_err());
    let v: Vec<usize> = with_num_threads(2, || (0..10usize).into_par_iter().map(|i| i).collect());
    assert_eq!(v, (0..10).collect::<Vec<_>>());
}

#[test]
fn every_chunk_visited_exactly_once_over_repeated_calls() {
    const CHUNKS: usize = 13;
    for workers in [1, 2, 5] {
        let visits: Vec<AtomicUsize> = (0..CHUNKS).map(|_| AtomicUsize::new(0)).collect();
        let mut data = vec![0usize; CHUNKS * 3 - 1];
        with_num_threads(workers, || {
            for _ in 0..10_000 {
                data.par_chunks_mut(3).enumerate().for_each(|(i, c)| {
                    visits[i].fetch_add(1, Ordering::Relaxed);
                    for v in c.iter_mut() {
                        *v += 1;
                    }
                });
            }
        });
        for (i, v) in visits.iter().enumerate() {
            assert_eq!(
                v.load(Ordering::Relaxed),
                10_000,
                "chunk {i} at {workers} workers"
            );
        }
        assert!(data.iter().all(|&v| v == 10_000), "{workers} workers");
    }
}

#[test]
fn more_workers_than_cores_finishes_correctly() {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut data = vec![0usize; 4096];
    with_num_threads(cores + 3, || {
        for _ in 0..200 {
            data.fill(0);
            fill_indices(&mut data, 7);
            assert!(is_indices(&data));
        }
    });
}
