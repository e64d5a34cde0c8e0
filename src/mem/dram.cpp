#include "mem/dram.hpp"

#include <algorithm>
#include <cmath>

#include "util/bitutil.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"

namespace grow::mem {

Bytes
DramTraffic::totalRead() const
{
    Bytes total = 0;
    for (Bytes b : readBytes)
        total += b;
    return total;
}

Bytes
DramTraffic::totalWrite() const
{
    Bytes total = 0;
    for (Bytes b : writeBytes)
        total += b;
    return total;
}

DramTraffic &
DramTraffic::operator+=(const DramTraffic &o)
{
    for (size_t i = 0; i < kNumTrafficClasses; ++i) {
        readBytes[i] += o.readBytes[i];
        writeBytes[i] += o.writeBytes[i];
    }
    return *this;
}

Bytes
DramModel::lineAligned(Bytes bytes) const
{
    return roundUp(std::max<Bytes>(bytes, 1), config_.lineBytes);
}

SimpleDram::SimpleDram(DramConfig config) : DramModel(config)
{
    GROW_ASSERT(config.bandwidthGBps > 0, "bandwidth must be positive");
}

Cycle
SimpleDram::serialize(Cycle now, Bytes line_bytes)
{
    Cycle start = std::max(now, channelFree_);
    double cycles = static_cast<double>(line_bytes) /
                    config_.bytesPerCycle() + residual_;
    // Charge whole cycles only and carry the fraction (always in
    // [0, 1)) into the next transfer: long-run channel occupancy is
    // exactly totalBytes / bytesPerCycle. A sub-cycle transfer may
    // occupy the channel for 0 cycles -- its cost is borne by the
    // transfer that tips the accumulator over -- but its *completion*
    // is still reported at least one cycle after issue below, so no
    // transfer ever appears instantaneous to the engine.
    Cycle whole = static_cast<Cycle>(cycles);
    residual_ = cycles - static_cast<double>(whole);
    channelFree_ = start + whole;
    busyCycles_ += whole;
    return std::max(channelFree_, start + 1);
}

Cycle
SimpleDram::read(Cycle now, uint64_t addr, Bytes bytes, TrafficClass cls)
{
    (void)addr;
    Bytes tx = lineAligned(bytes);
    recordRead(cls, tx);
    return serialize(now, tx) + config_.accessLatency;
}

Cycle
SimpleDram::write(Cycle now, uint64_t addr, Bytes bytes, TrafficClass cls)
{
    (void)addr;
    Bytes tx = lineAligned(bytes);
    recordWrite(cls, tx);
    // Writes are posted: they occupy the channel but the engine does not
    // wait for the array update.
    return serialize(now, tx);
}

BankedDram::BankedDram(DramConfig config, BankTiming timing)
    : DramModel(config), timing_(timing)
{
    GROW_ASSERT(timing_.banks > 0, "need at least one bank");
    bankFree_.assign(timing_.banks, 0);
    openRow_.assign(timing_.banks, ~0ULL);
}

Cycle
BankedDram::access(Cycle now, uint64_t addr, Bytes bytes)
{
    // Line-interleaved bank mapping.
    const Bytes line = config_.lineBytes;
    const double busCyclesPerLine =
        static_cast<double>(line) / config_.bytesPerCycle();
    uint64_t firstLine = addr / line;
    uint64_t numLines = ceilDiv(bytes, line);
    Cycle done = now;
    double busCarry = 0.0;
    for (uint64_t l = 0; l < numLines; ++l) {
        uint64_t lineAddr = firstLine + l;
        uint32_t bank = static_cast<uint32_t>(lineAddr % timing_.banks);
        uint64_t row = (lineAddr / timing_.banks) /
                       std::max<uint64_t>(1, timing_.rowBytes / line);
        Cycle ready = std::max(now, bankFree_[bank]);
        Cycle lat;
        ++rowAccesses_;
        if (openRow_[bank] == row) {
            lat = timing_.tCas;
            ++rowHits_;
        } else {
            lat = timing_.tRp + timing_.tRcd + timing_.tCas;
            openRow_[bank] = row;
        }
        Cycle dataReady = ready + lat;
        // Shared bus serialization.
        double busCycles = busCyclesPerLine + busCarry;
        Cycle busWhole = std::max<Cycle>(1, static_cast<Cycle>(busCycles));
        busCarry = busCycles - static_cast<double>(busWhole);
        if (busCarry < 0)
            busCarry = 0;
        Cycle busStart = std::max(dataReady, busFree_);
        busFree_ = busStart + busWhole;
        busyCycles_ += busWhole;
        bankFree_[bank] = busFree_;
        done = std::max(done, busFree_);
    }
    return done;
}

Cycle
BankedDram::read(Cycle now, uint64_t addr, Bytes bytes, TrafficClass cls)
{
    Bytes tx = lineAligned(bytes);
    recordRead(cls, tx);
    return access(now, addr, tx) + config_.accessLatency;
}

Cycle
BankedDram::write(Cycle now, uint64_t addr, Bytes bytes, TrafficClass cls)
{
    Bytes tx = lineAligned(bytes);
    recordWrite(cls, tx);
    return access(now, addr, tx);
}

double
BankedDram::rowHitRate() const
{
    return rowAccesses_ == 0
               ? 0.0
               : static_cast<double>(rowHits_) /
                     static_cast<double>(rowAccesses_);
}

std::unique_ptr<DramModel>
makeDram(const std::string &kind, DramConfig config)
{
    std::string k = toLower(kind);
    if (k == "simple")
        return std::make_unique<SimpleDram>(config);
    if (k == "banked")
        return std::make_unique<BankedDram>(config, BankTiming{});
    fatal("unknown DRAM model: " + kind);
}

} // namespace grow::mem
