//! The reproduction harness (`repro`), the ablation studies (`ablations`)
//! and the open-loop serve load generator (`serve_bench`) live in src/bin/.
