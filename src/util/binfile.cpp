#include "util/binfile.hpp"

#include <filesystem>
#include <stdexcept>

#include "util/logging.hpp"

namespace grow::util {

namespace fs = std::filesystem;

bool
writeBinFile(const std::string &path, const char (&magic)[8],
             uint32_t version, size_t header_pad,
             const std::function<void(PayloadSink &)> &write_payload)
{
    const fs::path target(path);
    fs::path tmp = target;
    tmp += ".tmp";
    try {
        if (target.has_parent_path())
            fs::create_directories(target.parent_path());
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            throw std::runtime_error("cannot create " + tmp.string());
        out.write(magic, sizeof(magic));
        out.write(reinterpret_cast<const char *>(&version),
                  sizeof(version));
        const std::string pad(header_pad, '\0');
        out.write(pad.data(), static_cast<std::streamsize>(pad.size()));

        PayloadSink sink(out, sizeof(magic) + sizeof(version) + header_pad);
        write_payload(sink);
        const uint64_t sum = sink.digest();
        out.write(reinterpret_cast<const char *>(&sum), sizeof(sum));
        out.close();
        if (!out)
            throw std::runtime_error("write failed for " + tmp.string());
        fs::rename(tmp, target);
        return true;
    } catch (const std::exception &e) {
        logWarn("cannot write " + path + ": " + e.what());
        std::error_code ec;
        fs::remove(tmp, ec);
        return false;
    }
}

std::optional<BinPayload>
checkBinFile(const char *data, size_t size, const char (&magic)[8],
             uint32_t version, size_t header_pad)
{
    const size_t header = sizeof(magic) + sizeof(version) + header_pad;
    uint64_t stored = 0;
    if (size < header + sizeof(stored))
        return std::nullopt;
    if (std::memcmp(data, magic, sizeof(magic)) != 0)
        return std::nullopt;
    uint32_t found = 0;
    std::memcpy(&found, data + sizeof(magic), sizeof(found));
    if (found != version)
        return std::nullopt; // stale format: rebuild, don't guess
    const size_t end = size - sizeof(stored);
    std::memcpy(&stored, data + end, sizeof(stored));
    if (fnv1a(data + header, end - header) != stored)
        return std::nullopt;
    return BinPayload{header, end, stored};
}

} // namespace grow::util
