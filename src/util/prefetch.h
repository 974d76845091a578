// Cache prefetch hint for an object that the caller will touch a little
// later (typically one simulated event later).
#pragma once

#include <cstddef>
#include <cstdint>

namespace silo {

/// Start loading the cache line(s) holding `bytes` bytes at address `p`
/// for writing, without waiting for them. Objects of up to 128 bytes span
/// at most two lines: the first and the last byte cover both. `p` need not
/// be valid (a prefetch never faults), so callers can skip bounds checks.
///
/// GCC 12 at -O2 deletes a __builtin_prefetch that is the only effect of a
/// branch (a bounds-checked prefetch and a switch over event kinds both
/// compiled to nothing). The empty volatile asm gives the branch an effect
/// the optimizer must keep; it emits no instruction.
inline void prefetch_object(std::uintptr_t p, std::size_t bytes) {
  __builtin_prefetch(reinterpret_cast<const void*>(p), 1);
  __builtin_prefetch(reinterpret_cast<const void*>(p + bytes - 1), 1);
  asm volatile("");
}

}  // namespace silo
