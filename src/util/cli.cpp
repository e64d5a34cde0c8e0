#include "util/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>

#include "util/logging.hpp"
#include "util/string_util.hpp"

namespace grow {

CliArgs::CliArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        // Tolerate google-benchmark style flags so mixed binaries work.
        if (arg.rfind("--", 0) == 0)
            continue;
        auto pos = arg.find('=');
        if (pos == std::string::npos) {
            fatal("unrecognized argument '" + arg +
                  "' (expected key=value)");
        }
        kv_[trim(arg.substr(0, pos))] = trim(arg.substr(pos + 1));
    }
}

bool
CliArgs::has(const std::string &key) const
{
    return kv_.count(key) > 0;
}

std::string
CliArgs::get(const std::string &key, const std::string &def) const
{
    auto it = kv_.find(key);
    return it == kv_.end() ? def : it->second;
}

int64_t
CliArgs::getInt(const std::string &key, int64_t def, int64_t lo,
                int64_t hi) const
{
    auto it = kv_.find(key);
    if (it == kv_.end())
        return def;
    const char *text = it->second.c_str();
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE)
        fatal(key + "= takes an integer, got '" + it->second + "'");
    if (v < lo || v > hi)
        fatal(key + "=" + it->second + " is out of range [" +
              std::to_string(lo) + ", " + std::to_string(hi) + "]");
    return v;
}

double
CliArgs::getDouble(const std::string &key, double def) const
{
    auto it = kv_.find(key);
    if (it == kv_.end())
        return def;
    const char *text = it->second.c_str();
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE ||
        !std::isfinite(v))
        fatal(key + "= takes a finite number, got '" + it->second + "'");
    return v;
}

bool
CliArgs::getBool(const std::string &key, bool def) const
{
    auto it = kv_.find(key);
    if (it == kv_.end())
        return def;
    std::string v = toLower(it->second);
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    fatal("invalid boolean value for " + key + ": " + it->second);
}

std::map<std::string, std::string>
CliArgs::withPrefix(const std::string &prefix) const
{
    std::map<std::string, std::string> out;
    for (const auto &[key, value] : kv_) {
        if (key.size() > prefix.size() && key.rfind(prefix, 0) == 0)
            out.emplace(key.substr(prefix.size()), value);
    }
    return out;
}

void
CliArgs::requireKnown(const std::vector<std::string> &known,
                      const std::vector<std::string> &known_prefixes) const
{
    std::vector<std::string> sorted = known;
    std::sort(sorted.begin(), sorted.end());
    auto prefixed = [&known_prefixes](const std::string &key) {
        for (const auto &p : known_prefixes)
            if (key.size() > p.size() && key.rfind(p, 0) == 0)
                return true;
        return false;
    };
    std::string unknown;
    for (const auto &[key, value] : kv_) {
        if (std::find(sorted.begin(), sorted.end(), key) != sorted.end())
            continue;
        if (prefixed(key))
            continue;
        if (!unknown.empty())
            unknown += ", ";
        unknown += key;
    }
    if (unknown.empty())
        return;
    std::string accepted;
    for (const auto &key : sorted) {
        if (!accepted.empty())
            accepted += ", ";
        accepted += key;
    }
    for (const auto &p : known_prefixes) {
        if (!accepted.empty())
            accepted += ", ";
        accepted += p + "<name>";
    }
    fatal("unknown argument(s): " + unknown + " (accepted keys: " +
          accepted + ")");
}

std::vector<std::string>
CliArgs::getList(const std::string &key,
                 const std::vector<std::string> &def) const
{
    auto it = kv_.find(key);
    if (it == kv_.end())
        return def;
    std::vector<std::string> out;
    for (auto &piece : split(it->second, ','))
        if (!trim(piece).empty())
            out.push_back(trim(piece));
    return out;
}

int
runMain(int argc, char **argv, int (*body)(int, char **), int error_exit)
{
    const std::string binary =
        argc > 0 ? std::filesystem::path(argv[0]).filename().string()
                 : "grow";
    try {
        return body(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << binary << ": " << e.what() << "\n";
        return error_exit;
    }
}

} // namespace grow
