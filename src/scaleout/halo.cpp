#include "scaleout/halo.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace grow::scaleout {

HaloPlan
buildHaloPlan(const sparse::CsrMatrix &adjacency,
              const ChipShardPlan &shard)
{
    GROW_ASSERT(shard.nodeToChip.size() == adjacency.rows(),
                "shard plan does not cover the adjacency rows");
    HaloPlan plan;
    plan.chips = shard.chips;
    plan.boundary.assign(shard.chips,
                         std::vector<std::vector<NodeId>>(shard.chips));
    for (uint32_t v = 0; v < adjacency.rows(); ++v) {
        const uint32_t dst = shard.nodeToChip[v];
        for (NodeId nb : adjacency.rowCols(v)) {
            const uint32_t src = shard.nodeToChip[nb];
            if (src != dst)
                plan.boundary[dst][src].push_back(nb);
        }
    }
    for (auto &perSrc : plan.boundary) {
        for (auto &verts : perSrc) {
            std::sort(verts.begin(), verts.end());
            verts.erase(std::unique(verts.begin(), verts.end()),
                        verts.end());
        }
    }
    return plan;
}

} // namespace grow::scaleout
