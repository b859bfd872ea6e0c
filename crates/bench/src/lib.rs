//! Shared helpers for the benchmark harness: every table and figure of the
//! paper's evaluation section has a regeneration binary in `src/bin/`, and
//! the kernel-level Criterion benches live in `benches/`.
//!
//! | Paper artifact | Binary |
//! |---|---|
//! | Table I (model settings)            | `table1` |
//! | Table II (sub-graph statistics)     | `table2` |
//! | Fig. 6 left (loss vs R)             | `fig6_left` |
//! | Fig. 6 right (training curves)      | `fig6_right` |
//! | Fig. 7 (weak scaling)               | `fig7` |
//! | Fig. 8 (relative throughput)        | `fig8` |

use cgnn_core::config::EnvKnob;
use cgnn_mesh::TaylorGreen;
use cgnn_session::Session;

/// Evaluate the consistent loss of a seeded, randomly initialized GNN with
/// the input as target (the paper's Fig. 6 demonstration protocol), for
/// the session's configuration. Sessions carrying a snapshot dataset are
/// scored as the mean over the whole stream; plain sessions fall back to
/// the single `t = 0` Taylor-Green snapshot. Identical on every rank.
pub fn demo_loss(session: &Session) -> f64 {
    if session.dataset().is_some() {
        session.eval_dataset()
    } else {
        session.initial_loss(&TaylorGreen::new(0.01), 0.0)
    }
}

/// Parse a registered env knob override with a binary-specific default
/// (used by the figure binaries to switch between quick and paper-scale
/// runs). Taking an [`EnvKnob`] rather than a bare name means every
/// override a binary honors is declared in the central registry
/// (`cgnn_core::config`) and therefore documented in the README table.
pub fn env_usize(knob: &EnvKnob, default: usize) -> usize {
    knob.usize_or(default)
}

/// Write a serializable result as pretty JSON under `results/`.
pub fn write_json<T: serde::Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize");
    std::fs::write(&path, json).expect("write results file");
    println!("\n[wrote {}]", path.display());
}

/// serde bridge: serde is re-exported through serde_json's dependency; the
/// bound above needs the real crate.
pub use serde;
pub use serde_json;

/// Pre-PR single-rank training-step throughput at the `hotpath` bench's
/// default size (6^3 elements, p = 2, small model), measured on the
/// tracking machine as the best of five 10-step runs at commit `2c6dbcf`
/// (before the parallel-kernel / tape-workspace / overlap work). Recorded
/// into `BENCH_hotpath.json` so the speedup the hot-path overhaul claims
/// stays auditable against a fixed reference.
pub const BASELINE_STEPS_PER_SEC: f64 = 9.56;

/// Core count of the host [`BASELINE_STEPS_PER_SEC`] was measured on. A
/// run on a host with a different core count has different kernel
/// parallelism, so its speedup against that baseline means nothing.
pub const BASELINE_CORES: usize = 1;
