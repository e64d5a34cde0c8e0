/**
 * @file
 * GROW accelerator configuration (Table III defaults).
 */
#pragma once

#include <cstdint>
#include <string>

#include "mem/dram.hpp"
#include "mem/hdn_cache.hpp"
#include "sim/types.hpp"

namespace grow::core {

/**
 * HDN cache replacement policy (Sec. VIII, "Pinned vs demand-based
 * cache replacement policy"). The paper's design statically pins the
 * per-cluster top-N high-degree nodes; the LRU alternative demand-fills
 * the same capacity and lets low-degree nodes evict hubs.
 */
enum class HdnPolicy { Pinned, Lru };

/** Full configuration of a GROW instance. */
struct GrowConfig
{
    /** MAC lanes per processing engine (Table III: 16 x 64-bit). */
    uint32_t numMacs = 16;

    /** Processing engines; clusters are interleaved across PEs and the
     *  DRAM bandwidth scales proportionally (Sec. VII-F). */
    uint32_t numPes = 1;

    /** Multi-row stationary window / runahead degree (Table III: 16). */
    uint32_t runaheadDegree = 16;

    /** LDN table entries M (Sec. V-D: 16). */
    uint32_t ldnEntries = 16;

    /** LHS ID table entries N (Sec. V-D: 64). */
    uint32_t lhsIdEntries = 64;

    /** I-BUF_sparse capacity (Table III: 12 KB). */
    Bytes iBufSparseBytes = 12 * 1024;

    /** O-BUF_dense capacity (Table III: 2 KB). */
    Bytes oBufDenseBytes = 2 * 1024;

    /** HDN cache + ID list (Table III: 512 KB + 12 KB / 4096 IDs). */
    mem::HdnCacheConfig hdn;

    /** Whether the HDN cache participates at all (Fig. 19 ablation). */
    bool hdnCacheEnabled = true;

    /** Replacement policy of the HDN cache (Sec. VIII study). */
    HdnPolicy hdnPolicy = HdnPolicy::Pinned;

    /** Off-chip memory (Table III: 128 GB/s). */
    mem::DramConfig dram;

    /** DMA streaming chunk for CSR/preload transfers. */
    Bytes dmaChunkBytes = 256;

    /** Total per-PE on-chip SRAM (for leakage/area accounting). */
    Bytes
    onChipSramBytes() const
    {
        return iBufSparseBytes + oBufDenseBytes + hdn.capacityBytes +
               static_cast<Bytes>(hdn.camEntries) * kHdnIdBytes;
    }
};

} // namespace grow::core
