/**
 * @file
 * Halo-exchange planning: which features cross which link.
 *
 * Before a layer's aggregation can run on chip d, the combination
 * outputs of every *boundary vertex* -- a vertex owned by another chip
 * s that some row of d's adjacency slice references -- must arrive
 * over s's egress link. The HaloPlan enumerates those boundary-vertex
 * sets once per shard plan (they are a pure function of the adjacency
 * structure); each layer then moves |boundary(d, s)| * outDim *
 * kValueBytes bytes over link s -> d, each remote row fetched exactly
 * once per layer (the chip-local halo buffer deduplicates the
 * cut-edge endpoints, mirroring how the HDN cache deduplicates
 * on-chip row reuse).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "scaleout/shard.hpp"
#include "sim/types.hpp"

namespace grow::scaleout {

/** Boundary-vertex sets of one shard plan. */
struct HaloPlan
{
    uint32_t chips = 1;
    /**
     * boundary[dst][src] = sorted distinct (relabeled) vertices owned
     * by chip src that chip dst's adjacency rows reference
     * (boundary[d][d] is always empty).
     */
    std::vector<std::vector<std::vector<NodeId>>> boundary;

    /** Boundary vertices pulled by @p dst from @p src. */
    uint64_t boundaryVertices(uint32_t dst, uint32_t src) const
    {
        return boundary[dst][src].size();
    }

    /** Bytes link src -> dst carries for one layer of @p rhs_cols
     *  features. */
    Bytes pairPhaseBytes(uint32_t dst, uint32_t src,
                         uint32_t rhs_cols) const
    {
        return boundaryVertices(dst, src) *
               static_cast<Bytes>(rhs_cols) * kValueBytes;
    }
};

/**
 * Enumerate the boundary-vertex sets of @p shard over @p adjacency
 * (the relabeled operand the aggregation streams). Deterministic and
 * independent of thread count.
 */
HaloPlan buildHaloPlan(const sparse::CsrMatrix &adjacency,
                       const ChipShardPlan &shard);

} // namespace grow::scaleout
