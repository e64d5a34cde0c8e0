#include "serve/request.hpp"

#include <sstream>

#include "util/logging.hpp"

namespace grow::serve {

RequestStatus
rejectionStatus(Admission a)
{
    switch (a) {
    case Admission::QueueFull:
        return RequestStatus::RejectedQueueFull;
    case Admission::OverByteBudget:
        return RequestStatus::RejectedBytes;
    case Admission::Admitted:
        break;
    }
    panic("rejectionStatus() called on an admitted request");
}

std::string
digestLine(const ServeRequest &req, const InferenceDigest &digest)
{
    std::ostringstream os;
    os << "tenant=" << req.tenant << " id=" << req.id
       << " dataset=" << req.dataset << " model=" << req.model
       << " engine=" << req.engine << " scale=" << graph::tierName(req.tier)
       << " depth=" << req.depth << " seed=" << req.seed
       << " cycles=" << digest.cycles << " dram_bytes=" << digest.dramBytes
       << " mac_ops=" << digest.macOps << " cache_hits=" << digest.cacheHits
       << " cache_misses=" << digest.cacheMisses;
    return os.str();
}

} // namespace grow::serve
