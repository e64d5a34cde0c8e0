/**
 * @file
 * Byte pins of both on-disk formats: one FNV-1a digest of the whole
 * written file per case, for .growcsr graphs (a writeCsrFile export of
 * two Table I graphs, and convertEdgeListFile over messy text) and for
 * .growart artefact bundles (cora with and without partitioning, and a
 * file-backed bundle). Files cached by an earlier build must keep
 * loading, so any drift here is a format change that needs a version
 * bump, never noise.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>

#include "driver/workload_cache.hpp"
#include "graph/file_graph.hpp"
#include "util/checksum.hpp"

namespace grow::driver {
namespace {

namespace fs = std::filesystem;

/** Fresh per-test scratch directory, removed on destruction. */
struct ScratchDir
{
    fs::path dir;

    ScratchDir()
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir = fs::temp_directory_path() /
              (std::string("grow_format_pin_") + info->name());
        fs::remove_all(dir);
        fs::create_directories(dir);
    }
    ~ScratchDir() { fs::remove_all(dir); }

    std::string path(const std::string &name) const
    {
        return (dir / name).string();
    }
};

/** FNV-1a of every byte of the file at @p path. */
uint64_t
fileDigest(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    const std::string bytes((std::istreambuf_iterator<char>(in)), {});
    return util::fnv1a(bytes.data(), bytes.size());
}

std::string
hex(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llxULL",
                  static_cast<unsigned long long>(v));
    return buf;
}

TEST(FileFormatPin, GrowcsrExportBytesAreExact)
{
    ScratchDir scratch;
    const std::pair<const char *, uint64_t> pins[] = {
        {"cora", 0xcce6377771fd91ddULL},
        {"citeseer", 0x4ee80d705b86c870ULL},
    };
    for (const auto &[name, pin] : pins) {
        const auto &spec = graph::datasetByName(name);
        auto inst = graph::buildDataset(spec, graph::ScaleTier::Unit);
        const std::string path = scratch.path(std::string(name) +
                                              ".growcsr");
        ASSERT_TRUE(graph::writeCsrFile(path, spec, graph::ScaleTier::Unit,
                                        inst.graph.view()));
        const uint64_t got = fileDigest(path);
        EXPECT_EQ(got, pin) << name << ": " << hex(got);
    }
}

TEST(FileFormatPin, EdgeListConversionBytesAreExact)
{
    ScratchDir scratch;
    // Comments, a blank line, duplicates in both orders, self loops, a
    // weight column, and a node hint above the largest id; the template
    // carries a Table I spec so every spec field is non-default.
    const std::string messy = scratch.path("messy.txt");
    {
        std::ofstream out(messy);
        out << "# comment\n% another comment\n\n"
            << "0 1\n1 0\n2 2\n1 2 3.5\n3 0\n0 3\n4 1\n6 6\n5 2 0.25\n";
    }
    // A larger soup: many rows lose duplicates, so kept prefixes move.
    const std::string soup = scratch.path("soup.txt");
    {
        std::mt19937 rng(123);
        std::ofstream out(soup);
        for (int i = 0; i < 4000; ++i) {
            const uint32_t u = rng() % 500, v = rng() % 500;
            out << u << ' ' << v << '\n';
        }
    }
    graph::DatasetSpec tmpl = graph::datasetByName("cora");
    tmpl.name = "pintest_messy";
    const std::string a = scratch.path("messy.growcsr");
    const auto sa = graph::convertEdgeListFile(messy, a, tmpl,
                                               graph::ScaleTier::Tiny, 9);
    EXPECT_EQ(sa.nodes, 9u);
    EXPECT_EQ(sa.selfLoops, 2u);
    const uint64_t gotA = fileDigest(a);
    EXPECT_EQ(gotA, 0x6001bfc694113da7ULL) << "messy: " << hex(gotA);

    tmpl.name = "pintest_soup";
    const std::string b = scratch.path("soup.growcsr");
    graph::convertEdgeListFile(soup, b, tmpl, graph::ScaleTier::Full);
    const uint64_t gotB = fileDigest(b);
    EXPECT_EQ(gotB, 0x4be3c6fe71358300ULL) << "soup: " << hex(gotB);
}

TEST(FileFormatPin, GrowartBytesAreExact)
{
    ScratchDir scratch;
    const auto &spec = graph::datasetByName("cora");
    gcn::PartitionPlan flat;
    flat.buildPartitioning = false;
    const std::pair<gcn::PartitionPlan, uint64_t> pins[] = {
        {gcn::PartitionPlan{}, 0xb1d556452afd9cd8ULL},
        {flat, 0xa07caeefbda6a1e3ULL},
    };
    for (const auto &[plan, pin] : pins) {
        auto built =
            gcn::buildGraphArtifacts(spec, graph::ScaleTier::Unit, plan);
        const std::string path = scratch.path("cora.growart");
        ASSERT_TRUE(saveArtifacts(path, *built));
        const uint64_t got = fileDigest(path);
        EXPECT_EQ(got, pin) << "partitioning=" << plan.buildPartitioning
                            << ": " << hex(got);
    }
}

TEST(FileFormatPin, FileBackedGrowartBytesAreExact)
{
    ScratchDir scratch;
    graph::DatasetSpec label = graph::datasetByName("cora");
    label.name = "pintest_cora_file";
    auto inst = graph::buildDataset(graph::datasetByName("cora"),
                                    graph::ScaleTier::Unit);
    const std::string csr = scratch.path("cora.growcsr");
    ASSERT_TRUE(graph::writeCsrFile(csr, label, graph::ScaleTier::Unit,
                                    inst.graph.view()));
    const auto &spec = graph::registerFileDataset(csr);
    auto built = gcn::buildGraphArtifacts(spec, graph::ScaleTier::Unit);
    ASSERT_TRUE(built->fileBacked());
    const std::string path = scratch.path("cora_file.growart");
    ASSERT_TRUE(saveArtifacts(path, *built));
    const uint64_t got = fileDigest(path);
    EXPECT_EQ(got, 0xb8ec8fddef65c08cULL) << "file-backed: " << hex(got);
}

} // namespace
} // namespace grow::driver
