#include "accel/accelerator.hpp"

namespace grow::accel {

double
PhaseResult::sparseBandwidthUtil() const
{
    if (fetchedSparseBytes == 0)
        return 1.0;
    return static_cast<double>(effectualSparseBytes) /
           static_cast<double>(fetchedSparseBytes);
}

} // namespace grow::accel
