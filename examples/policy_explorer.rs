//! Frame-replacement policy explorer (experiment E4).
//!
//! Prints the E4 sweep: the paper's LRU policy against FIFO, LFU,
//! random and the Belady next-use oracle across workload shapes and
//! device sizes, with hit rate and mean service time per cell. The
//! paper evicts the algorithm with the oldest access timestamp; the
//! tables show where that choice wins and where it does not
//! (round-robin at capacity defeats LRU, FIFO and LFU alike).
//! EXPERIMENTS.md (E4) discusses the results.
//!
//! Run with: `cargo run --example policy_explorer`

use aaod_bench::e4::E4;

fn main() {
    print!("{}", E4::run().tables());
}
