//! Adversarial tests of the communicator: out-of-order delivery, zero-row
//! and empty-rank payloads, and — most importantly — failure semantics: a
//! rank panicking mid-collective must tear the group down with a typed
//! error on the caller, never deadlock the peers, and must propagate the
//! *original* panic payload. Also the rank-scope regression guard: thread
//! overrides installed by the caller must reach every rank thread and
//! must not leak back out.

use std::panic::catch_unwind;

use dgnn_sim::{run_ranks, try_run_ranks, Payload};
use dgnn_tensor::{pool, Dense};

#[test]
fn out_of_order_sends_resolve_on_both_transports() {
    let results = run_ranks(3, |comm| {
        let me = comm.rank();
        // Every rank sends three tagged messages to every peer in
        // ascending tag order; receivers consume them descending, from
        // peers in reverse rank order, with a collective wedged in
        // between — so delivery order never matches consumption order.
        for q in 0..3 {
            if q != me {
                for tag in [1u64, 2, 3] {
                    comm.send_tagged(
                        q,
                        tag,
                        Payload::Floats(vec![(me * 10 + tag as usize) as f32]),
                    );
                }
            }
        }
        comm.barrier();
        let mut got = Vec::new();
        for q in (0..3).rev() {
            if q != me {
                for tag in [3u64, 2, 1] {
                    match comm.recv_tagged(q, tag) {
                        Payload::Floats(f) => got.push(f[0]),
                        other => panic!("expected floats, got {other:?}"),
                    }
                }
            }
        }
        got
    });
    for (me, got) in results.iter().enumerate() {
        let expect: Vec<f32> = (0..3)
            .rev()
            .filter(|&q| q != me)
            .flat_map(|q| [3u64, 2, 1].map(|tag| (q * 10 + tag as usize) as f32))
            .collect();
        assert_eq!(got, &expect, "rank {me} mis-ordered");
    }
}

#[test]
fn empty_ranks_and_zero_row_payloads() {
    run_ranks(4, |comm| {
        let me = comm.rank();
        // Rank 0 contributes nothing but sync markers; rank 1 sends
        // zero-row (but shaped) matrices; ranks 2 and 3 send data.
        let parts: Vec<Payload> = (0..4)
            .map(|_| match me {
                0 => Payload::Empty,
                1 => Payload::Dense(Dense::zeros(0, 3)),
                _ => Payload::Dense(Dense::full(2, 3, me as f32)),
            })
            .collect();
        let got = comm.all_to_all(parts);
        for (src, p) in got.iter().enumerate() {
            match (src, p) {
                (0, Payload::Empty) => {}
                (1, Payload::Dense(d)) => assert_eq!(d.shape(), (0, 3)),
                (_, Payload::Dense(d)) => {
                    assert_eq!(d.shape(), (2, 3));
                    assert!(d.data().iter().all(|&v| v == src as f32));
                }
                (src, other) => panic!("rank {src} sent unexpected {other:?}"),
            }
        }
        // An all-gather of nothing still synchronises.
        let gathered = comm.all_gather(Payload::Empty);
        assert_eq!(gathered.len(), 4);
        assert!(matches!(gathered[me], Payload::Empty));
    });
}

#[test]
fn rank_panic_mid_collective_is_a_typed_error_not_a_deadlock() {
    let err = try_run_ranks(4, |comm| {
        let _threads = pool::scoped_threads(Some(2));
        if comm.rank() == 2 {
            // Panic after the peers have committed to the collective
            // but before contributing to it.
            panic!("rank 2 gave up mid-collective");
        }
        let mut data = vec![1.0f32; 8];
        comm.all_reduce_sum(&mut data);
        data
    })
    .expect_err("a rank panicked; the group run must fail");
    assert_eq!(err.rank(), 2, "wrong origin rank");
    assert_eq!(
        err.message(),
        "rank 2 gave up mid-collective",
        "original payload must survive teardown"
    );
}

#[test]
fn panic_while_peer_blocks_on_p2p_receive_unblocks_it() {
    let err = try_run_ranks(2, |comm| {
        if comm.rank() == 0 {
            panic!("sender died before sending");
        }
        // Blocks on a message that will never arrive; the poison flag
        // must wake this rank instead of hanging the join forever.
        comm.recv_tagged(0, 42)
    })
    .expect_err("must fail");
    assert_eq!(err.rank(), 0);
    assert_eq!(err.message(), "sender died before sending");
}

/// A non-string panic payload: `run_ranks` must re-raise it with the type
/// intact so callers can downcast, as a plain thread join would.
#[derive(Debug, PartialEq)]
struct TypedFailure(u32);

#[test]
fn custom_panic_payloads_propagate_identically() {
    let caught = catch_unwind(|| {
        run_ranks(3, |comm| {
            if comm.rank() == 1 {
                std::panic::panic_any(TypedFailure(7));
            }
            comm.barrier();
        })
    })
    .expect_err("panic must propagate through run_ranks");
    let failure = caught
        .downcast_ref::<TypedFailure>()
        .expect("payload type lost in transit");
    assert_eq!(failure, &TypedFailure(7));
}

#[test]
fn thread_overrides_propagate_and_do_not_leak_on_either_transport() {
    // Regression guard for the rank-scope class of bug: the caller's
    // override must reach every rank thread, and the rank-side installs
    // must not survive into the caller.
    let _outer = pool::scoped_threads(Some(5));
    let seen = run_ranks(2, |_comm| pool::effective_threads());
    assert_eq!(seen, vec![5, 5], "override lost");
    assert_eq!(pool::effective_threads(), 5, "override leaked");
}

#[test]
fn interleaved_pools_and_collectives_survive_a_late_panic() {
    // Live intra-rank pools + collectives + a panic in a later round:
    // earlier rounds complete normally, the failing round tears down.
    let err = try_run_ranks(3, |comm| {
        let _threads = pool::scoped_threads(Some(2));
        let me = comm.rank();
        let mut acc = 0.0f32;
        for round in 0..4 {
            // Pool-engaging local work between collectives.
            let x = Dense::from_fn(64, 32, |r, c| ((r + c + round) % 7) as f32);
            let y = Dense::from_fn(32, 16, |r, c| ((r * c + round) % 5) as f32);
            let z = x.matmul(&y);
            if round == 2 && me == 0 {
                panic!("round 2 failure");
            }
            let mut buf = vec![z.sum()];
            comm.all_reduce_sum(&mut buf);
            acc += buf[0];
        }
        acc
    })
    .expect_err("rank 0 panics in round 2");
    assert_eq!(err.rank(), 0);
    assert_eq!(err.message(), "round 2 failure");
}
