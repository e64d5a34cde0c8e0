/**
 * @file
 * DRAM traffic classification.
 *
 * Every byte moved to or from DRAM is attributed to one of these
 * classes so the benches can reproduce the paper's traffic breakdowns
 * (Figs. 18/19) and the effective-bandwidth analysis (Fig. 6).
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace grow::mem {

/** Category of a DRAM transfer. */
enum class TrafficClass : uint8_t {
    SparseStream = 0, ///< compressed LHS matrix (CSR/CSC non-zeros)
    DenseRow,         ///< RHS dense matrix rows (XW or W)
    OutputWrite,      ///< output matrix rows/tiles
    HdnPreload,       ///< HDN ID lists + pinned rows at cluster start
    Metadata,         ///< pointers, tile descriptors, merge metadata
    NumClasses
};

inline constexpr size_t kNumTrafficClasses =
    static_cast<size_t>(TrafficClass::NumClasses);

} // namespace grow::mem
