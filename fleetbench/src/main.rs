//! The benchmark for the end-to-end runs (`--trace 0`): no counting
//! allocator, so the timed fleet runs pay nothing for allocation
//! accounting.

fn main() {
    std::process::exit(fleetbench::main_with(false));
}
