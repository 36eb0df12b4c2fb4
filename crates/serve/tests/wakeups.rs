//! Cross-shard handoffs wake the receiving shard. A request whose
//! session lives on another shard than its connection crosses threads
//! twice: the decoding shard pushes it to the home shard's run queue,
//! and the home shard completes the reply into the decoding shard's
//! outbox. Each handoff wakes its receiver, so such a round trip waits
//! out one idle park, as a request served on the connection's own shard
//! does, and not one per hop.

use small_serve::{start, Client, Reply, Request, Role, ServeConfig, ServerParams};
use std::time::{Duration, Instant};

/// Half of the shards' 150 µs idle park: a cross-shard round trip that
/// waited out even one more park would exceed the direct one by more.
const SLACK: Duration = Duration::from_micros(75);

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

#[test]
fn cross_shard_round_trips_skip_the_idle_sleeps() {
    let params = ServerParams {
        shards: 2,
        ..ServerParams::default()
    };
    let handle = start("127.0.0.1:0", ServeConfig::default(), params).unwrap();
    // The acceptor deals the first connection to shard 0.
    let mut c = Client::connect(handle.addr(), Role::Client).unwrap();
    let direct = c.open().unwrap();
    let cross = c.open().unwrap();
    assert_eq!((direct % 2, cross % 2), (0, 1), "homed on shards 0 and 1");
    let mut eval = |id: u64| {
        let t0 = Instant::now();
        let reply = c
            .request(&Request::Eval {
                id,
                seq: None,
                src: "(add 1 2)".to_string(),
            })
            .unwrap();
        let took = t0.elapsed();
        assert_eq!(
            reply,
            Reply::Value {
                text: "3".to_string()
            }
        );
        took
    };
    // Interleaved, so drift on the host weighs on both alike.
    let (mut direct_rt, mut cross_rt) = (Vec::new(), Vec::new());
    for _ in 0..200 {
        direct_rt.push(eval(direct));
        cross_rt.push(eval(cross));
    }
    let (direct_rt, cross_rt) = (median(direct_rt), median(cross_rt));
    handle.shutdown();
    assert!(
        cross_rt < direct_rt + SLACK,
        "median round trip: cross-shard {cross_rt:?}, direct {direct_rt:?}"
    );
}
