#include "mapping/mapping.hpp"

#include "util/logging.hpp"

namespace grow::mapping {

Bytes
MappingSpec::bufferCapacity(BufferRole role) const
{
    for (const BufferLevel &b : buffers) {
        if (b.role == role)
            return b.capacityBytes;
    }
    return 0;
}

void
validate(const MappingSpec &spec)
{
    GROW_ASSERT(spec.spatialLanes >= 1, "spatialLanes must be >= 1");
    GROW_ASSERT(spec.missConcurrency >= 1,
                "missConcurrency must be >= 1");
    if (spec.rhsResident()) {
        GROW_ASSERT(spec.denseReuse == DenseReuse::Resident ||
                        spec.denseReuse == DenseReuse::LruCache ||
                        spec.denseReuse == DenseReuse::Tiled ||
                        spec.denseReuse == DenseReuse::None,
                    "dense-resident phase with a pinned reuse cache");
    }
}

void
validate(const EngineMapping &mapping)
{
    GROW_ASSERT(mapping.combination.phaseClass ==
                    PhaseClass::DenseResident,
                "combination spec must be dense-resident");
    GROW_ASSERT(mapping.aggregation.phaseClass ==
                    PhaseClass::SparseStreaming,
                "aggregation spec must be sparse-streaming");
    GROW_ASSERT(mapping.dramBytesPerCycle > 0.0,
                "mapping needs a positive DRAM bandwidth");
    GROW_ASSERT(mapping.numPes >= 1, "mapping needs >= 1 PE");
    validate(mapping.combination);
    validate(mapping.aggregation);
}

const EngineMapping &
genericMapping()
{
    static const EngineMapping generic = [] {
        EngineMapping em;
        em.combination.phaseClass = PhaseClass::DenseResident;
        em.combination.denseReuse = DenseReuse::Resident;
        em.aggregation.phaseClass = PhaseClass::SparseStreaming;
        em.aggregation.denseReuse = DenseReuse::None;
        validate(em);
        return em;
    }();
    return generic;
}

} // namespace grow::mapping
