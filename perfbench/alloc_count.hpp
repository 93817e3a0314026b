// Process-wide heap counters fed by the counting global operator new/delete
// in alloc_count.cpp. The simulator is single-threaded, so plain integers
// suffice; the counters are read around each traced event and at phase
// boundaries.
#pragma once

#include <cstdint>

namespace perfbench {

// operator new calls (every form) since process start.
[[nodiscard]] std::uint64_t alloc_count();
// Bytes currently allocated through operator new, as requested.
[[nodiscard]] std::int64_t live_heap_bytes();

} // namespace perfbench
