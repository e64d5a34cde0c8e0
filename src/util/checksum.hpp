/**
 * @file
 * FNV-1a content checksums: the payload trailer of both on-disk
 * formats (util/binfile.hpp), and the digests the pin tests fold
 * modelled outputs into. The streaming form lets a writer checksum a
 * payload piece by piece instead of buffering it.
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace grow::util {

/** FNV-1a 64-bit offset basis. */
inline constexpr uint64_t kFnv1aSeed = 0xcbf29ce484222325ULL;

/** FNV-1a 64-bit prime. */
inline constexpr uint64_t kFnv1aPrime = 0x100000001b3ULL;

/**
 * One-shot FNV-1a 64-bit over a byte range; cheap, order-sensitive,
 * and resumable by passing a previous digest as @p seed.
 */
inline uint64_t
fnv1a(const void *data, size_t size, uint64_t seed = kFnv1aSeed)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    uint64_t h = seed;
    for (size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= kFnv1aPrime;
    }
    return h;
}

/**
 * Streaming FNV-1a accumulator for writers that produce their payload
 * in pieces (a .growcsr export streams multi-GB neighbor arrays
 * without ever holding them in one buffer).
 */
class Fnv1a
{
  public:
    /** Fold @p size bytes at @p data into the digest. */
    void update(const void *data, size_t size)
    {
        digest_ = fnv1a(data, size, digest_);
    }

    /** Digest of everything folded in so far. */
    uint64_t digest() const { return digest_; }

  private:
    uint64_t digest_ = kFnv1aSeed;
};

} // namespace grow::util
