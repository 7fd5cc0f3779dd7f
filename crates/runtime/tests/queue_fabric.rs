//! Property + stress tests for the SPSC ring, the engine's only queue.
//!
//! The ring must keep the contract the engine depends on: FIFO order, a
//! hard capacity bound (back-pressure), and close/drain semantics (pushes
//! fail after close, queued items still pop). The properties replay
//! randomized push/pop interleavings against a `VecDeque` model; the
//! stress test moves 100k tuples across a real producer/consumer thread
//! pair.

use brisk_runtime::{PushError, SpscQueue};
use proptest::prelude::*;
use std::sync::Arc;

/// Apply a randomized op sequence to a ring and a `VecDeque` model,
/// checking they agree step by step. Ops: even = `try_push` (a full ring
/// refuses instead of blocking), odd = pop.
fn check_against_model(capacity: usize, ops: &[u8]) -> Result<(), TestCaseError> {
    let q: SpscQueue<u64> = SpscQueue::new(capacity);
    let mut model = std::collections::VecDeque::new();
    let mut next_value = 0u64;
    for &op in ops {
        if op % 2 == 0 {
            let full = model.len() == capacity;
            let outcome = q.try_push(next_value);
            prop_assert!(
                matches!(outcome, Err(PushError::Full(_))) == full,
                "push at len {} (capacity {}) returned {:?}",
                model.len(),
                capacity,
                outcome
            );
            if !full {
                model.push_back(next_value);
                next_value += 1;
            }
        } else {
            prop_assert_eq!(q.try_pop(), model.pop_front());
        }
        prop_assert_eq!(q.len(), model.len());
        prop_assert_eq!(q.is_empty(), model.is_empty());
        prop_assert!(q.len() <= capacity, "capacity bound violated");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// FIFO order + exact capacity bound under random interleavings.
    #[test]
    fn fifo_and_capacity_match_model(
        capacity in 1usize..20,
        ops in prop::collection::vec(0u8..4, 1..200),
    ) {
        check_against_model(capacity, &ops)?;
    }

    /// Batch `pop_n` preserves FIFO order and counts every item once.
    #[test]
    fn pop_n_matches_item_order(
        capacity in 1usize..16,
        chunks in prop::collection::vec(1usize..12, 1..20),
    ) {
        let q: SpscQueue<u64> = SpscQueue::new(capacity);
        let mut next = 0u64;
        let mut popped = Vec::new();
        for &chunk in &chunks {
            // Stay within the free space so every push succeeds.
            let n = chunk.min(capacity - q.len());
            for _ in 0..n {
                prop_assert!(q.try_push(next).is_ok());
                next += 1;
            }
            q.pop_n(&mut popped, chunk / 2 + 1);
        }
        while q.pop_n(&mut popped, 8) > 0 {}
        // FIFO end to end: popped must be exactly 0..next in order.
        let expect: Vec<u64> = (0..next).collect();
        prop_assert_eq!(popped, expect);
        prop_assert!(q.is_empty());
    }

    /// Close/drain semantics: after close, pushes fail and every item
    /// enqueued before close still pops, in order.
    #[test]
    fn close_preserves_drain(
        capacity in 1usize..16,
        pre_close in 0usize..16,
        pop_before_close in 0usize..8,
    ) {
        let q: SpscQueue<u64> = SpscQueue::new(capacity);
        let pushed = pre_close.min(capacity);
        for i in 0..pushed {
            prop_assert!(q.try_push(i as u64).is_ok());
        }
        let expect = pushed as u64;
        let mut seen = 0u64;
        for _ in 0..pop_before_close.min(pushed) {
            prop_assert_eq!(q.try_pop(), Some(seen));
            seen += 1;
        }
        q.close();
        prop_assert!(q.is_closed());
        prop_assert!(
            matches!(q.try_push(999), Err(PushError::Closed(999))),
            "push after close must fail"
        );
        prop_assert!(q.push_tracked(999).is_err(), "blocking push after close must fail");
        while let Some(v) = q.try_pop() {
            prop_assert_eq!(v, seen);
            seen += 1;
        }
        prop_assert!(seen == expect, "drain lost or invented items: {seen} != {expect}");
    }
}

/// 2-thread stress: exactly-once, in-order delivery of 100k tuples through
/// a small ring, with blocking back-pressure on the producer side and
/// batch pops on the consumer side.
#[test]
fn two_thread_stress_exactly_once_100k() {
    const N: u64 = 100_000;
    let q: Arc<SpscQueue<u64>> = Arc::new(SpscQueue::new(32));
    let producer = {
        let q = Arc::clone(&q);
        std::thread::spawn(move || {
            let mut stalls = 0u64;
            for i in 0..N {
                stalls += u64::from(q.push_tracked(i).expect("open"));
            }
            stalls
        })
    };
    let consumer = {
        let q = Arc::clone(&q);
        std::thread::spawn(move || {
            let mut got: Vec<u64> = Vec::with_capacity(N as usize);
            let mut idle = 0u32;
            while (got.len() as u64) < N {
                if q.pop_n(&mut got, 8) == 0 {
                    idle += 1;
                    if idle % 64 == 0 {
                        std::thread::yield_now();
                    }
                } else {
                    idle = 0;
                }
            }
            got
        })
    };
    let stalls = producer.join().expect("producer ok");
    let got = consumer.join().expect("consumer ok");
    assert!(stalls <= N);
    assert_eq!(got.len() as u64, N, "exactly-once count");
    for (i, v) in got.iter().enumerate() {
        assert_eq!(*v, i as u64, "order violated at {i}");
    }
    assert!(q.is_empty(), "ring should be fully drained");
}
