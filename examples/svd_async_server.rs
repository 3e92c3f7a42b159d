//! An asynchronous SVD server: clients fire requests through
//! [`SvdService::submit`] and get a [`Ticket`] back immediately; a
//! drainer thread coalesces same-shape submissions from *different*
//! clients into one batched execute over the plan's lanes.
//!
//! ```text
//! cargo run --release --example svd_async_server
//! ```
//!
//! Three things the blocking `svd_server` example cannot show:
//!
//! * **fire-and-forget** — a client submits its whole burst before
//!   waiting on anything, so its requests overlap each other *and*
//!   every other client's;
//! * **cross-caller micro-batching** — the coalescing window groups a
//!   shape's submissions from all clients into one plan checkout and
//!   one batch fan-out ([`QueueStats`] shows how many rode along);
//! * **typed backpressure** — a service with a tiny queue refuses the
//!   overflow with [`ServiceError::QueueFull`] instead of stalling the
//!   caller or dropping work silently.

use rand::{rngs::StdRng, SeedableRng};
use std::time::Duration;
use unisvd::{hw, Matrix, ServiceError, SvDistribution, SvdConfig, SvdService};

const CLIENTS: usize = 6;
const BURST: usize = 8;
const SHAPES: [usize; 3] = [32, 48, 64];

fn request(n: usize, seed: u64) -> Matrix<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    unisvd::testmat::test_matrix::<f32, _>(n, SvDistribution::Logarithmic, false, &mut rng).0
}

fn main() {
    let cfg = SvdConfig::default();
    // Hold each batch open a little longer than the default so every
    // client's burst lands inside one window.
    let service = SvdService::builder(&hw::h100())
        .coalesce_window(Duration::from_millis(5))
        .build();
    println!(
        "svd_async_server: {CLIENTS} clients x {BURST} submissions, shapes {SHAPES:?}, \
         one shared service on {}",
        service.hw().name
    );

    // Every client submits its full burst (one shape per client round,
    // shared across clients), then waits all its tickets. Submissions
    // return immediately; solving happens on the drainer.
    let t0 = std::time::Instant::now();
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let service = &service;
            let cfg = &cfg;
            s.spawn(move || {
                let tickets: Vec<_> = (0..BURST)
                    .map(|r| {
                        let n = SHAPES[r % SHAPES.len()];
                        let a = request(n, (client * 131 + r) as u64);
                        (n, service.submit(a, cfg).expect("queue has room"))
                    })
                    .collect();
                for (n, ticket) in tickets {
                    let out = ticket.wait().expect("solve succeeds");
                    assert_eq!(out.values.len(), n);
                }
            });
        }
    });
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let stats = service.stats();
    println!("\nafter the async burst ({wall_ms:.1} ms wall):");
    println!("  {}", stats.queue);
    println!("  {}", stats.cache);
    println!(
        "  {} submissions served by {} plan checkouts — {} rode along in a \
         batch opened by another caller",
        stats.queue.submitted,
        stats.cache.hits + stats.cache.misses,
        stats.queue.coalesced
    );

    // Backpressure: a deliberately tiny queue with a long window keeps
    // the first submission parked, so the second bounces with a typed
    // error the client can retry on.
    let tiny = SvdService::builder(&hw::h100())
        .queue_depth(1)
        .coalesce_window(Duration::from_secs(1))
        .build();
    let parked = tiny
        .submit(request(32, 9001), &cfg)
        .expect("first submission fits");
    match tiny.submit(request(32, 9002), &cfg) {
        Err(ServiceError::QueueFull { depth }) => {
            println!("\nbackpressure: second submission refused, queue depth {depth}");
        }
        other => panic!("expected QueueFull, got {other:?}"),
    }
    // Shutdown (here: dropping the service) closes the window early and
    // still resolves every accepted submission — tickets outlive the
    // service handle.
    drop(tiny);
    let out = parked.wait().expect("parked request still completes");
    println!(
        "parked request resolved through shutdown: σ₁ = {:.6}",
        out.values[0]
    );
}
