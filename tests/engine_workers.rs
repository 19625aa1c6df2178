//! Engine sizing: the decode queue is derived from the compute-worker
//! count, so a pool larger than the old fixed queue could hold cannot
//! stall. Kept in its own test binary: hundreds of worker threads would
//! otherwise share the CPU with the timing-sensitive engine tests.

use mimonet_io::client::LinkClient;
use mimonet_io::engine::{EngineConfig, EngineServer};
use mimonet_io::session::corrupted_frames;
use mimonet_io::wire::SessionConfig;
use std::time::Duration;

#[test]
fn more_than_128_compute_workers_complete_concurrent_sessions() {
    // The decode queue is sized from the worker count: with a fixed
    // 1024-slot queue, 129+ workers could all sit in generation turns
    // pushing into a full queue with none left to decode. One session
    // per worker, each longer than a generation turn, gives every worker
    // a turn to start at once.
    let server = EngineServer::bind_with(
        "127.0.0.1:0",
        EngineConfig {
            compute_workers: 160,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let n_clients = 160u64;
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    for i in 0..n_clients {
        let done_tx = done_tx.clone();
        std::thread::spawn(move || {
            let c = SessionConfig {
                mcs: 0,
                payload_len: 16,
                n_frames: 12,
                snr_db: 30.0,
                seed: 7000 + i,
                ..SessionConfig::default()
            };
            let mut client = LinkClient::connect(addr).unwrap();
            let served = client.run_session(&c).unwrap();
            client.close().unwrap();
            done_tx.send((c, served)).unwrap();
        });
    }
    for _ in 0..n_clients {
        let (c, served) = done_rx
            .recv_timeout(Duration::from_secs(90))
            .expect("every session completes: the engine must not stall");
        assert_eq!(served.frames.len(), c.n_frames as usize, "seed {}", c.seed);
        assert_eq!(corrupted_frames(&c, &served.frames), 0, "seed {}", c.seed);
    }
    let stats = server.shutdown();
    assert_eq!(stats.sessions_ok(), n_clients);
}
