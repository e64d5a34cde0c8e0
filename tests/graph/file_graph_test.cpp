#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>

#include "graph/datasets.hpp"
#include "graph/file_graph.hpp"

namespace grow::graph {
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
              (std::string("grow_file_graph_") + info->name());
        fs::remove_all(dir);
        fs::create_directories(dir);
    }
    ~ScratchDir() { fs::remove_all(dir); }

    std::string path(const std::string &name) const
    {
        return (dir / name).string();
    }
};

void
expectSameGraph(const CsrView &a, const CsrView &b)
{
    ASSERT_EQ(a.numNodes(), b.numNodes());
    ASSERT_EQ(a.numArcs(), b.numArcs());
    for (size_t i = 0; i < a.offsets.size(); ++i)
        ASSERT_EQ(a.offsets[i], b.offsets[i]) << "offset " << i;
    for (size_t i = 0; i < a.adjacency.size(); ++i)
        ASSERT_EQ(a.adjacency[i], b.adjacency[i]) << "arc " << i;
}

TEST(FileGraph, RoundTripBitIdenticalOnEveryTableOneDataset)
{
    ScratchDir scratch;
    for (const auto &spec : allDatasets()) {
        auto inst = buildDataset(spec, ScaleTier::Unit);
        const std::string path = scratch.path(spec.name + ".growcsr");
        ASSERT_TRUE(writeCsrFile(path, spec, ScaleTier::Unit,
                                 inst.graph.view()));
        auto mapped = MappedCsrGraph::open(path);
        ASSERT_NE(mapped, nullptr) << spec.name;
        expectSameGraph(inst.graph.view(), mapped->view());
        EXPECT_EQ(mapped->spec().name, spec.name);
        EXPECT_EQ(mapped->spec().seed, spec.seed);
        EXPECT_EQ(mapped->spec().gcn.hidden, spec.gcn.hidden);
        EXPECT_EQ(mapped->tier(), ScaleTier::Unit);
        EXPECT_TRUE(mapped->spec().isFileBacked());
        EXPECT_EQ(mapped->spec().sourceChecksum, mapped->checksum());
        EXPECT_TRUE(mapped->validateStructure());
    }
}

TEST(FileGraph, WriteIsDeterministic)
{
    ScratchDir scratch;
    const auto &spec = datasetByName("cora");
    auto inst = buildDataset(spec, ScaleTier::Unit);
    const std::string a = scratch.path("a.growcsr");
    const std::string b = scratch.path("b.growcsr");
    ASSERT_TRUE(writeCsrFile(a, spec, ScaleTier::Unit, inst.graph.view()));
    ASSERT_TRUE(writeCsrFile(b, spec, ScaleTier::Unit, inst.graph.view()));
    std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
    std::string ba((std::istreambuf_iterator<char>(fa)), {});
    std::string bb((std::istreambuf_iterator<char>(fb)), {});
    EXPECT_EQ(ba, bb);
}

TEST(FileGraph, ConvertMatchesFromEdges)
{
    ScratchDir scratch;
    // A messy text file: comments, blanks, duplicates (both orders),
    // self loops, an ignored weight column, and an isolated node via
    // the hint.
    const std::string text = scratch.path("edges.txt");
    {
        std::ofstream out(text);
        out << "# comment\n% another comment\n\n"
            << "0 1\n1 0\n"   // duplicate in both orders
            << "2 2\n"        // self loop
            << "1 2 3.5\n"    // weighted line
            << "3 0\n0 3\n"   // duplicate again
            << "4 1\n";
    }
    DatasetSpec tmpl;
    tmpl.name = "messy";
    const std::string bin = scratch.path("messy.growcsr");
    auto stats =
        convertEdgeListFile(text, bin, tmpl, ScaleTier::Full, 7);

    EXPECT_EQ(stats.textEdges, 7u);
    EXPECT_EQ(stats.selfLoops, 1u);
    EXPECT_EQ(stats.nodes, 7u); // hint exceeds max id 4 + 1

    auto mapped = MappedCsrGraph::open(bin);
    ASSERT_NE(mapped, nullptr);
    auto reference = Graph::fromEdges(
        7, {{0, 1}, {1, 0}, {2, 2}, {1, 2}, {3, 0}, {0, 3}, {4, 1}});
    expectSameGraph(reference.view(), mapped->view());
    EXPECT_TRUE(mapped->validateStructure());
    EXPECT_EQ(mapped->numArcs(), stats.arcs);
}

TEST(FileGraph, ConvertLargerGraphMatchesFromEdges)
{
    ScratchDir scratch;
    // Deterministic pseudo-random edge soup, large enough to span many
    // rows with duplicates and self loops sprinkled in.
    std::mt19937 rng(123);
    const uint32_t n = 500;
    std::vector<std::pair<NodeId, NodeId>> edges;
    const std::string text = scratch.path("rand.txt");
    {
        std::ofstream out(text);
        for (int i = 0; i < 4000; ++i) {
            NodeId u = rng() % n, v = rng() % n;
            edges.push_back({u, v});
            out << u << ' ' << v << '\n';
        }
    }
    DatasetSpec tmpl;
    tmpl.name = "rand";
    const std::string bin = scratch.path("rand.growcsr");
    convertEdgeListFile(text, bin, tmpl, ScaleTier::Full, n);
    auto mapped = MappedCsrGraph::open(bin);
    ASSERT_NE(mapped, nullptr);
    expectSameGraph(Graph::fromEdges(n, edges).view(), mapped->view());
}

TEST(FileGraph, RejectsMissingTruncatedAndCorruptFiles)
{
    ScratchDir scratch;
    EXPECT_EQ(MappedCsrGraph::open(scratch.path("nope.growcsr")),
              nullptr);

    const auto &spec = datasetByName("cora");
    auto inst = buildDataset(spec, ScaleTier::Unit);
    const std::string good = scratch.path("good.growcsr");
    ASSERT_TRUE(writeCsrFile(good, spec, ScaleTier::Unit,
                             inst.graph.view()));
    std::ifstream in(good, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)), {});
    in.close();

    auto writeBytes = [&](const std::string &name,
                          const std::string &content) {
        const std::string p = scratch.path(name);
        std::ofstream out(p, std::ios::binary);
        out.write(content.data(),
                  static_cast<std::streamsize>(content.size()));
        out.close();
        return p;
    };

    // Truncated at every interesting boundary.
    for (size_t keep :
         {size_t{0}, size_t{4}, size_t{15}, bytes.size() / 2,
          bytes.size() - 1}) {
        auto p = writeBytes("trunc.growcsr", bytes.substr(0, keep));
        EXPECT_EQ(MappedCsrGraph::open(p), nullptr)
            << "kept " << keep << " bytes";
    }

    // Single flipped payload byte: checksum must catch it.
    {
        std::string bad = bytes;
        bad[bytes.size() / 2] ^= 0x40;
        EXPECT_EQ(MappedCsrGraph::open(
                      writeBytes("corrupt.growcsr", bad)),
                  nullptr);
    }

    // Wrong magic.
    {
        std::string bad = bytes;
        bad[0] = 'X';
        EXPECT_EQ(MappedCsrGraph::open(writeBytes("magic.growcsr", bad)),
                  nullptr);
    }

    // Stale format version (header is not checksummed, so this tests
    // the version gate, not the checksum).
    {
        std::string bad = bytes;
        bad[8] = static_cast<char>(kCsrFileFormatVersion + 1);
        EXPECT_EQ(
            MappedCsrGraph::open(writeBytes("version.growcsr", bad)),
            nullptr);
    }

    // The pristine file still opens (the helpers above copied it).
    EXPECT_NE(MappedCsrGraph::open(good), nullptr);
}

TEST(FileGraph, RejectsMalformedRows)
{
    // Checksum-valid 4-node files, each with one malformed row: a node
    // id past the last node would reach every build stage as an index
    // into a per-node array, and the build relies on sorted rows.
    ScratchDir scratch;
    DatasetSpec spec = datasetByName("cora");
    int fileNo = 0;
    auto write = [&](std::vector<uint64_t> offsets,
                     std::vector<NodeId> adjacency) {
        spec.name = "malformed" + std::to_string(fileNo++);
        const std::string path = scratch.path(spec.name + ".growcsr");
        EXPECT_TRUE(writeCsrFile(path, spec, ScaleTier::Unit,
                                 {offsets, adjacency}));
        return path;
    };
    const std::pair<const char *, std::string> cases[] = {
        {"id = nodes", write({0, 1, 1, 1, 1}, {4})},
        {"id 1000000", write({0, 1, 1, 1, 1}, {1000000})},
        {"id 2^32 - 1", write({0, 1, 1, 1, 1}, {kInvalidNode})},
        {"unsorted row", write({0, 2, 3, 4, 4}, {2, 1, 0, 0})},
        {"duplicate arc", write({0, 2, 4, 4, 4}, {1, 1, 0, 0})},
        {"self loop", write({0, 1, 1, 2, 2}, {0, 2})},
    };
    for (const auto &[what, path] : cases) {
        EXPECT_EQ(MappedCsrGraph::open(path), nullptr) << what;
        try {
            registerFileDataset(path);
            ADD_FAILURE() << "registered a file with: " << what;
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
                << e.what();
        }
    }
    // Sorted in-range rows open; only the full structural check sees
    // that the arc 0 -> 3 has no reverse.
    auto mapped = MappedCsrGraph::open(write({0, 1, 1, 1, 1}, {3}));
    ASSERT_NE(mapped, nullptr);
    EXPECT_FALSE(mapped->validateStructure());
}

TEST(FileGraph, RegisteredFileResolvesByNameAndIsIdempotent)
{
    ScratchDir scratch;
    // A renamed copy of citeseer: registering under the real name
    // would shadow the builtin for every later test in this binary.
    // Synthesis only reads the structural fields, so the builtin spec
    // produces the graph and the renamed spec labels the file.
    DatasetSpec custom = datasetByName("citeseer");
    custom.name = "filetest_citeseer";
    auto inst = buildDataset(datasetByName("citeseer"), ScaleTier::Unit);
    const std::string path = scratch.path("filetest.growcsr");
    ASSERT_TRUE(writeCsrFile(path, custom, ScaleTier::Unit,
                             inst.graph.view()));

    const auto &spec = registerFileDataset(path);
    EXPECT_TRUE(spec.isFileBacked());
    EXPECT_EQ(spec.name, "filetest_citeseer");
    EXPECT_EQ(spec.sourceTier, ScaleTier::Unit);
    // The registry lookup resolves the file-backed spec by name.
    EXPECT_TRUE(datasetByName("filetest_citeseer").isFileBacked());
    // Idempotent: same content registers fine and keeps one entry.
    const auto &again = registerFileDataset(path);
    EXPECT_EQ(again.sourceChecksum, spec.sourceChecksum);

    auto mapped = fileDatasetGraph(spec);
    ASSERT_NE(mapped, nullptr);
    expectSameGraph(inst.graph.view(), mapped->view());
    // Synthesized specs have no mapped graph.
    EXPECT_EQ(fileDatasetGraph(datasetByName("cora")), nullptr);
}

TEST(FileGraph, RejectsSpecFieldsNoWorkloadCanUse)
{
    // Header fields a checksum cannot vouch for: a file whose spec has
    // a density outside [0, 1] or a zero width opens, but registering
    // it fails with a message naming the field.
    ScratchDir scratch;
    auto inst = buildDataset(datasetByName("cora"), ScaleTier::Unit);
    struct Case
    {
        const char *field;
        void (*patch)(DatasetSpec &);
    };
    const Case cases[] = {
        {"x0Density", [](DatasetSpec &s) { s.x0Density = std::nan(""); }},
        {"x0Density", [](DatasetSpec &s) { s.x0Density = 1.5; }},
        {"x1Density", [](DatasetSpec &s) { s.x1Density = -0.25; }},
        {"paperDensityA",
         [](DatasetSpec &s) { s.paperDensityA = HUGE_VAL; }},
        {"gcn.inFeatures", [](DatasetSpec &s) { s.gcn.inFeatures = 0; }},
        {"gcn.hidden", [](DatasetSpec &s) { s.gcn.hidden = 0; }},
        {"gcn.classes", [](DatasetSpec &s) { s.gcn.classes = 0; }},
        {"miniNodeDiv", [](DatasetSpec &s) { s.miniNodeDiv = 0; }},
        {"tinyNodeDiv", [](DatasetSpec &s) { s.tinyNodeDiv = 0; }},
    };
    int i = 0;
    for (const Case &c : cases) {
        SCOPED_TRACE(c.field);
        DatasetSpec spec = datasetByName("cora");
        spec.name = "badspec_" + std::to_string(i);
        c.patch(spec);
        const std::string path =
            scratch.path("bad" + std::to_string(i++) + ".growcsr");
        ASSERT_TRUE(writeCsrFile(path, spec, ScaleTier::Unit,
                                 inst.graph.view()));
        auto mapped = MappedCsrGraph::open(path);
        ASSERT_NE(mapped, nullptr);
        EXPECT_NE(specFieldError(mapped->spec()).find(c.field),
                  std::string::npos);
        try {
            registerFileDataset(path);
            ADD_FAILURE() << "registered a file with a bad " << c.field;
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(c.field),
                      std::string::npos)
                << e.what();
        }
    }
    // Every builtin spec passes, at the bounds too.
    for (const auto &spec : allDatasets())
        EXPECT_EQ(specFieldError(spec), "") << spec.name;
    DatasetSpec edge = datasetByName("cora");
    edge.x0Density = 0.0;
    edge.x1Density = 1.0;
    EXPECT_EQ(specFieldError(edge), "");
}

} // namespace
} // namespace grow::graph
