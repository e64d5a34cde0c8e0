/**
 * @file
 * The one binary container both on-disk formats use: the WorkloadCache
 * artefact files (.growart) and the graph_convert CSR files (.growcsr).
 *
 * A container is
 *
 *   char[8]  magic
 *   u32      format version
 *   zero pad (header_pad bytes; .growcsr keeps one reserved u32)
 *   payload  (checksummed)
 *   u64      FNV-1a of the payload bytes (util/checksum.hpp)
 *
 * with every field in host byte order: both formats are interchange
 * formats between runs on one machine. writeBinFile() publishes a
 * container atomically (temp file, then rename), so a crashed writer
 * never leaves a torn file under the final name; checkBinFile() checks
 * the size, magic, version and checksum and hands back the payload
 * range. BinWriter and BinReader encode and decode the payload's
 * fields; the reader is bounds-checked, so a corrupt length degrades
 * to a failed decode, never an out-of-bounds read.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "util/checksum.hpp"

namespace grow::util {

/** Append-only encoder of a payload into a byte string. */
class BinWriter
{
  public:
    template <typename T>
    void
    pod(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        buf_.append(reinterpret_cast<const char *>(&v), sizeof(T));
    }

    /** u32 length, then the characters. */
    void
    str(const std::string &s)
    {
        pod(static_cast<uint32_t>(s.size()));
        buf_.append(s);
    }

    /** u64 element count, then the elements. */
    template <typename T>
    void
    vec(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        pod(static_cast<uint64_t>(v.size()));
        buf_.append(reinterpret_cast<const char *>(v.data()),
                    v.size() * sizeof(T));
    }

    const std::string &bytes() const { return buf_; }

  private:
    std::string buf_;
};

/**
 * Bounds-checked decoder over [begin, end) of a borrowed buffer (no
 * copy of the payload). Every accessor returns false on underrun.
 */
class BinReader
{
  public:
    BinReader(const char *data, size_t begin, size_t end)
        : data_(data), pos_(begin), end_(end)
    {
    }

    template <typename T>
    bool
    pod(T &out)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        if (sizeof(T) > end_ - pos_)
            return false;
        std::memcpy(&out, data_ + pos_, sizeof(T));
        pos_ += sizeof(T);
        return true;
    }

    bool
    str(std::string &out)
    {
        uint32_t len = 0;
        if (!pod(len) || len > end_ - pos_)
            return false;
        out.assign(data_ + pos_, len);
        pos_ += len;
        return true;
    }

    template <typename T>
    bool
    vec(std::vector<T> &out)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        uint64_t n = 0;
        if (!pod(n))
            return false;
        // Reject sizes the remaining bytes cannot possibly hold before
        // allocating (a corrupt length must not trigger a bad_alloc).
        if (n > (end_ - pos_) / sizeof(T))
            return false;
        out.resize(n);
        std::memcpy(out.data(), data_ + pos_, n * sizeof(T));
        pos_ += n * sizeof(T);
        return true;
    }

    bool
    skip(size_t n)
    {
        if (n > end_ - pos_)
            return false;
        pos_ += n;
        return true;
    }

    /** Offset of the next unread byte in the buffer. */
    size_t pos() const { return pos_; }

    /** Whether every byte of the range has been read. */
    bool done() const { return pos_ == end_; }

  private:
    const char *data_;
    size_t pos_;
    size_t end_;
};

/**
 * Checksumming payload sink handed to writeBinFile()'s callback: every
 * byte put is written to the file and folded into the trailer.
 */
class PayloadSink
{
  public:
    PayloadSink(std::ofstream &out, size_t header_bytes)
        : out_(out), headerBytes_(header_bytes)
    {
    }

    void
    put(const void *data, size_t size)
    {
        out_.write(static_cast<const char *>(data),
                   static_cast<std::streamsize>(size));
        sum_.update(data, size);
        written_ += size;
    }

    /** Zero-pad so the next byte lands on an 8-aligned file offset
     *  (arrays used in place through mmap). */
    void
    padTo8()
    {
        static const char zeros[8] = {};
        const size_t mis = (headerBytes_ + written_) % 8;
        if (mis != 0)
            put(zeros, 8 - mis);
    }

    uint64_t digest() const { return sum_.digest(); }

  private:
    std::ofstream &out_;
    size_t headerBytes_;
    Fnv1a sum_;
    uint64_t written_ = 0;
};

/**
 * Write a container to @p path: @p magic, @p version, @p header_pad
 * zero bytes, the payload @p write_payload puts into the sink, and the
 * FNV-1a trailer, into `<path>.tmp`, then rename it into place
 * (creating the parent directories). Returns false, after logging a
 * warning with the reason, when any step fails.
 */
bool writeBinFile(const std::string &path, const char (&magic)[8],
                  uint32_t version, size_t header_pad,
                  const std::function<void(PayloadSink &)> &write_payload);

/** The payload of a container that passed checkBinFile(). */
struct BinPayload
{
    size_t begin = 0;      ///< offset of the first payload byte
    size_t end = 0;        ///< offset one past the last payload byte
    uint64_t checksum = 0; ///< the verified FNV-1a trailer
};

/**
 * Check the @p size container bytes at @p data: long enough for the
 * header and trailer, @p magic, @p version (a stale version is never
 * reinterpreted) and the payload checksum. The header pad is skipped
 * unread. Returns the payload range, or nullopt on any mismatch.
 */
std::optional<BinPayload> checkBinFile(const char *data, size_t size,
                                       const char (&magic)[8],
                                       uint32_t version,
                                       size_t header_pad);

} // namespace grow::util
