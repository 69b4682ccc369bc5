// Heap-allocation counters fed by the benchmark's replacement of the
// global operator new (alloc_count.cpp), for the alloc.* metrics.
#pragma once

#include <cstdint>

namespace globe::e2e {

/// Allocations and bytes requested since process start.
[[nodiscard]] std::uint64_t allocations();
[[nodiscard]] std::uint64_t allocated_bytes();

}  // namespace globe::e2e
