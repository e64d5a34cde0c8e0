/**
 * @file
 * Off-chip memory models.
 *
 * Two fidelity levels are provided behind one interface:
 *
 *  - SimpleDram: a bandwidth-serialized channel with a fixed access
 *    latency and 64 B line granularity. This matches the abstraction
 *    the paper's evaluation uses ("same ... off-chip memory bandwidth",
 *    Table III: 128 GB/sec) and is the default for all benches.
 *
 *  - BankedDram: a Ramulator-flavoured bank/row-buffer model (row hits
 *    vs row conflicts, per-bank timing, shared data bus) for fidelity
 *    studies; the qualitative results are insensitive to the choice,
 *    which tests/mem/dram_test.cpp demonstrates.
 *
 * All transfers round up to whole lines; the caller separately tracks
 * how many of those bytes were effectual (Fig. 6's metric).
 */
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/traffic.hpp"
#include "sim/types.hpp"

namespace grow::mem {

/** Common DRAM configuration. */
struct DramConfig
{
    /** Peak bandwidth in GB/s (Table III default: 128). */
    double bandwidthGBps = 128.0;
    /** Accelerator clock in GHz (Sec. VI: 1 GHz). */
    double clockGHz = 1.0;
    /** Idle access latency in accelerator cycles. */
    Cycle accessLatency = 100;
    /** Minimum access granularity (Sec. IV-B: 64 bytes). */
    Bytes lineBytes = kDramLineBytes;

    /** Peak transfer rate in bytes per accelerator cycle. */
    double bytesPerCycle() const { return bandwidthGBps / clockGHz; }
};

/** Per-class transfer accounting. */
struct DramTraffic
{
    std::array<Bytes, kNumTrafficClasses> readBytes{};
    std::array<Bytes, kNumTrafficClasses> writeBytes{};

    Bytes totalRead() const;
    Bytes totalWrite() const;
    Bytes total() const { return totalRead() + totalWrite(); }

    /** Element-wise accumulate @p o's classified traffic. */
    DramTraffic &operator+=(const DramTraffic &o);
};

/**
 * Abstract DRAM device shared by all engines (and all PEs of a
 * multi-PE configuration).
 */
class DramModel
{
  public:
    explicit DramModel(DramConfig config) : config_(config) {}
    virtual ~DramModel() = default;

    const DramConfig &config() const { return config_; }

    /**
     * Issue a read of @p bytes at @p addr at time @p now.
     * @return cycle at which the data is available on-chip.
     */
    virtual Cycle read(Cycle now, uint64_t addr, Bytes bytes,
                       TrafficClass cls) = 0;

    /**
     * Issue a write of @p bytes at @p addr at time @p now.
     * @return cycle at which the write has drained.
     */
    virtual Cycle write(Cycle now, uint64_t addr, Bytes bytes,
                        TrafficClass cls) = 0;

    const DramTraffic &traffic() const { return traffic_; }

    /** Cycles the channel spent transferring data. */
    Cycle busyCycles() const { return busyCycles_; }

    /** Reset all accounting (not the timing state). */
    void clearTraffic() { traffic_ = DramTraffic{}; }

  protected:
    /** Round a request to line granularity. */
    Bytes lineAligned(Bytes bytes) const;

    void
    recordRead(TrafficClass cls, Bytes bytes)
    {
        traffic_.readBytes[static_cast<size_t>(cls)] += bytes;
    }

    void
    recordWrite(TrafficClass cls, Bytes bytes)
    {
        traffic_.writeBytes[static_cast<size_t>(cls)] += bytes;
    }

    DramConfig config_;
    DramTraffic traffic_;
    Cycle busyCycles_ = 0;
};

/**
 * Bandwidth-serialized single-channel model with fixed latency. A copy
 * carries the full timing state (channel occupancy and fractional-cycle
 * residual) and answers later requests exactly as the original would;
 * the scale-out link arbiter snapshots links this way.
 */
class SimpleDram : public DramModel
{
  public:
    explicit SimpleDram(DramConfig config);

    Cycle read(Cycle now, uint64_t addr, Bytes bytes,
               TrafficClass cls) override;
    Cycle write(Cycle now, uint64_t addr, Bytes bytes,
                TrafficClass cls) override;

  private:
    /**
     * Serialize @p bytes on the channel starting no earlier than now.
     * Returns the completion cycle (>= 1 cycle after issue); channel
     * occupancy accounting stays exact via the fractional residual, so
     * busyCycles() converges to totalBytes / bytesPerCycle even for
     * streams of sub-cycle transfers.
     */
    Cycle serialize(Cycle now, Bytes line_bytes);

    Cycle channelFree_ = 0;
    /** Fractional-cycle accumulator (in [0,1)) so bandwidth is exact. */
    double residual_ = 0.0;
};

/** Bank/row-buffer timing parameters (in accelerator cycles @1 GHz). */
struct BankTiming
{
    Cycle tCas = 14;       ///< column access (row already open)
    Cycle tRcd = 14;       ///< activate-to-access
    Cycle tRp = 14;        ///< precharge
    uint32_t banks = 16;
    Bytes rowBytes = 2048; ///< row-buffer size
};

/**
 * Banked DRAM with open-row policy and a shared data bus.
 */
class BankedDram : public DramModel
{
  public:
    BankedDram(DramConfig config, BankTiming timing);

    Cycle read(Cycle now, uint64_t addr, Bytes bytes,
               TrafficClass cls) override;
    Cycle write(Cycle now, uint64_t addr, Bytes bytes,
                TrafficClass cls) override;

    /** Fraction of line accesses that hit an open row. */
    double rowHitRate() const;

  private:
    Cycle access(Cycle now, uint64_t addr, Bytes bytes);

    BankTiming timing_;
    std::vector<Cycle> bankFree_;
    std::vector<uint64_t> openRow_;
    Cycle busFree_ = 0;
    uint64_t rowHits_ = 0;
    uint64_t rowAccesses_ = 0;
};

/** Factory: "simple" or "banked". */
std::unique_ptr<DramModel> makeDram(const std::string &kind,
                                    DramConfig config);

} // namespace grow::mem
