/**
 * @file
 * On-chip SRAM buffer accounting.
 *
 * The engines access SRAM at full pipeline rate, so these buffers carry
 * no timing state and do not track occupancy: read() and write() never
 * check capacity. They count accesses for the energy model (Fig. 22's
 * "SRAM (dynamic)" component scales with per-access energy, which
 * itself scales with the buffer's capacity).
 */
#pragma once

#include <cstdint>
#include <string>

#include "sim/types.hpp"

namespace grow::mem {

/** A named on-chip SRAM with capacity and access counters. */
class SramBuffer
{
  public:
    SramBuffer(std::string name, Bytes capacity);

    const std::string &name() const { return name_; }
    Bytes capacity() const { return capacity_; }

    /** Record @p count reads of @p bytes each. Inline: this sits on
     *  the row engines' per-non-zero (aggregation) and per-row
     *  (combination) paths. */
    void
    read(Bytes bytes, uint64_t count = 1)
    {
        readAccesses_ += count;
        bytesRead_ += bytes * count;
    }

    /** Record @p count writes of @p bytes each. */
    void
    write(Bytes bytes, uint64_t count = 1)
    {
        writeAccesses_ += count;
        bytesWritten_ += bytes * count;
    }

    uint64_t readAccesses() const { return readAccesses_; }
    uint64_t writeAccesses() const { return writeAccesses_; }
    Bytes bytesRead() const { return bytesRead_; }
    Bytes bytesWritten() const { return bytesWritten_; }
    uint64_t accesses() const { return readAccesses_ + writeAccesses_; }

    void clearStats();

  private:
    std::string name_;
    Bytes capacity_;
    uint64_t readAccesses_ = 0;
    uint64_t writeAccesses_ = 0;
    Bytes bytesRead_ = 0;
    Bytes bytesWritten_ = 0;
};

} // namespace grow::mem
