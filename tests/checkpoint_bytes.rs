//! Golden checkpoint bytes. Checkpoints are an on-disk and on-the-wire
//! format under `CHECKPOINT_VERSION` 1, so the encoder and its CRC-32
//! may get faster but must never change a byte. Each test pins the
//! length and the FNV-1a-64 digest of one encoding: a serving
//! session's suspend blob, and the simulator's final durable-run
//! checkpoint.

use small_repro::persist::{digest_bytes, CrashStore, DIGEST_SEED};
use small_repro::serve::{ServeConfig, Session};
use small_repro::simulator::{run_sim_resumable, SimParams};
use small_repro::workloads::synthetic;

fn fingerprint(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), digest_bytes(DIGEST_SEED, bytes))
}

#[test]
fn session_suspend_blob_is_pinned() {
    let cfg = ServeConfig::default();
    let mut s = Session::new(3, &cfg);
    for src in [
        "(setq acc (cons 1 (cons 2 (cons 3 nil))))",
        "(setq n 5)",
        "(setq tag (quote done))",
        "(setq acc (cons n acc))",
        "(car 5)",
    ] {
        s.eval(src);
    }
    s.eval_seq(0, "(setq m (cons n nil))");
    s.eval_seq(1, "(add n 1)");
    assert_eq!(fingerprint(&s.suspend()), (279_375, 0x461d_3042_b6d3_8f55));
}

#[test]
fn simulator_checkpoint_is_pinned() {
    let mut p = synthetic::table_5_1("slang");
    p.primitives = 400;
    p.functions = 100;
    let trace = synthetic::generate(&p);
    let params = SimParams {
        heap_cells: 1 << 12,
        ..SimParams::default()
    }
    .with_table(128);
    let mut store = CrashStore::new();
    let r = run_sim_resumable(&trace, params, &mut store).expect("durable run");
    assert!(!r.true_overflow && r.failure.is_none());
    let ckpt = store.checkpoint().expect("final checkpoint");
    assert_eq!(fingerprint(ckpt), (70_826, 0x0b8d_16e9_179b_6977));
}
