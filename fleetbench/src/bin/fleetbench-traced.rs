//! The benchmark for the traced runs (`--trace 1`): installs the
//! counting allocator so the ledger can attribute allocations to each
//! layer call.

#[global_allocator]
static ALLOC: fiat_probe::CountingAllocator = fiat_probe::CountingAllocator;

fn main() {
    std::process::exit(fleetbench::main_with(true));
}
