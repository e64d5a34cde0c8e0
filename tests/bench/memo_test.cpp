/**
 * @file
 * The process-scope bench memo: which BenchContexts share work and
 * which must not.
 *
 * Every context here runs with profile=1 under an active
 * ReportCollector, so a test reads what a context did from its own
 * report: an artefact build lands in `build_phase`, a layer-data build
 * in `layer_data`, a simulation in `sim_speed`, and a memo hit only in
 * `host_ledger`. The memo lives as long as the test binary, so each
 * test works on a (dataset, scale, model) that no other test touches.
 * The last tests cover the sweep entry point every simulation runs
 * through, and the (dataset, engine) pair its rows carry.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "common.hpp"
#include "graph/file_graph.hpp"

namespace grow::bench {
namespace {

namespace fs = std::filesystem;

class BenchMemo : public ::testing::Test
{
  protected:
    void SetUp() override { report::setActiveCollector(&collector_); }
    void TearDown() override { report::setActiveCollector(nullptr); }

    /** A context over @p args plus profile=1 threads=@p threads. */
    static std::unique_ptr<BenchContext>
    context(std::vector<std::string> args, uint32_t threads = 1)
    {
        args.insert(args.begin(), "bench_memo_test");
        args.push_back("profile=1");
        args.push_back("threads=" + std::to_string(threads));
        std::vector<char *> argv;
        for (auto &a : args)
            argv.push_back(a.data());
        return std::make_unique<BenchContext>(
            static_cast<int>(argv.size()), argv.data(), "unit");
    }

    /** The report of the context destroyed last. */
    const report::Report &lastReport()
    {
        return collector_.reports().back();
    }

    report::ReportCollector collector_;
};

const report::TableData *
findTable(const report::Report &rep, const std::string &id)
{
    for (const auto &item : rep.items())
        if (item->kind == report::ReportItem::Kind::Table &&
            item->table.id == id)
            return &item->table;
    return nullptr;
}

size_t
rows(const report::Report &rep, const std::string &table)
{
    const auto *t = findTable(rep, table);
    return t ? t->rows.size() : 0;
}

/** One column of the report's single host_ledger row. */
double
ledger(const report::Report &rep, const std::string &metric)
{
    const auto *t = findTable(rep, "host_ledger");
    if (t == nullptr || t->rows.size() != 1)
        throw std::runtime_error("no single host_ledger row");
    for (size_t c = 0; c < t->columns.size(); ++c)
        if (t->columns[c].key == metric)
            return t->rows[0].cells.at(c).value;
    throw std::runtime_error("no host_ledger column " + metric);
}

/** The (dataset, engine) dims of every row of @p table, in order. */
std::vector<std::pair<std::string, std::string>>
rowPairs(const report::Report &rep, const std::string &table)
{
    std::vector<std::pair<std::string, std::string>> pairs;
    if (const auto *t = findTable(rep, table))
        for (const auto &row : t->rows)
            pairs.emplace_back(row.dims.dataset, row.dims.engine);
    return pairs;
}

/** The ledger's parts sum to its bench wall, with other_ms >= 0. */
void
expectLedgerSumsToWall(const report::Report &rep)
{
    EXPECT_GE(ledger(rep, "other_ms"), 0.0);
    EXPECT_NEAR(ledger(rep, "artifacts_ms") + ledger(rep, "layer_data_ms") +
                    ledger(rep, "inference_ms") + ledger(rep, "other_ms"),
                ledger(rep, "bench_wall_ms"), 1e-9);
}

void
expectSameResult(const gcn::InferenceResult &a, const gcn::InferenceResult &b)
{
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.combinationCycles, b.combinationCycles);
    EXPECT_EQ(a.aggregationCycles, b.aggregationCycles);
    EXPECT_EQ(a.attentionCycles, b.attentionCycles);
    EXPECT_EQ(a.macOps, b.macOps);
    EXPECT_EQ(a.totalTrafficBytes(), b.totalTrafficBytes());
    EXPECT_EQ(a.cacheHits, b.cacheHits);
    EXPECT_EQ(a.cacheMisses, b.cacheMisses);
    EXPECT_EQ(a.energy.total(), b.energy.total());
    ASSERT_EQ(a.phases.size(), b.phases.size());
    for (size_t i = 0; i < a.phases.size(); ++i)
        EXPECT_EQ(a.phases[i].result.cycles, b.phases[i].result.cycles);
}

TEST_F(BenchMemo, TwoContextsWithTheSameArgvShareTheWork)
{
    const std::vector<std::string> args = {"datasets=cora"};
    const gcn::GcnWorkload *workload = nullptr;
    const gcn::InferenceResult *result = nullptr;
    {
        auto ctx = context(args);
        workload = &ctx->workload("cora");
        result = &ctx->inference("cora", "grow");
    }
    {
        auto ctx = context(args);
        EXPECT_EQ(&ctx->workload("cora"), workload);
        EXPECT_EQ(&ctx->inference("cora", "grow"), result);
        ctx->prefetch({"grow"});
    }
    const auto &rep = lastReport();
    EXPECT_EQ(rows(rep, "build_phase"), 0u);
    EXPECT_EQ(rows(rep, "layer_data"), 0u);
    EXPECT_EQ(rows(rep, "sim_speed"), 0u);
    EXPECT_EQ(rows(rep, "sim_speed_bench"), 1u);
    // workload() twice (once inside prefetch), inference() and the
    // prefetched key.
    EXPECT_EQ(ledger(rep, "workload_hits"), 2.0);
    EXPECT_EQ(ledger(rep, "inference_hits"), 2.0);
    EXPECT_EQ(ledger(rep, "artifact_hits"), 0.0);
    EXPECT_EQ(ledger(rep, "artifacts_ms"), 0.0);
    EXPECT_EQ(ledger(rep, "layer_data_ms"), 0.0);
    EXPECT_EQ(ledger(rep, "inference_ms"), 0.0);
    EXPECT_GE(ledger(rep, "other_ms"), 0.0);
    EXPECT_DOUBLE_EQ(ledger(rep, "other_ms"), ledger(rep, "bench_wall_ms"));
}

TEST_F(BenchMemo, SharedResultsEqualAFreshRun)
{
    auto ctx = context({"datasets=cora"});
    gcn::WorkloadConfig wc;
    wc.tier = graph::ScaleTier::Unit;
    driver::WorkloadCache cache;
    const gcn::GcnWorkload fresh =
        cache.workload(graph::datasetByName("cora"), wc);
    for (const std::string key : {"gcnax", "grow-nogp", "grow"}) {
        SCOPED_TRACE(key);
        auto job = driver::makeEngineJob(key, fresh);
        auto engine = job.makeEngine();
        expectSameResult(ctx->inference("cora", key),
                         gcn::runInference(*engine, fresh, job.options));
    }
}

TEST_F(BenchMemo, ContextsThatDifferInScaleOrModelDoNotShare)
{
    {
        auto ctx = context({"datasets=citeseer"});
        ctx->inference("citeseer", "grow");
    }
    const auto &unit = lastReport();
    EXPECT_EQ(rows(unit, "build_phase"), 1u);
    EXPECT_EQ(rows(unit, "layer_data"), 1u);
    EXPECT_EQ(rows(unit, "sim_speed"), 1u);
    EXPECT_GT(ledger(unit, "artifacts_ms"), 0.0);
    EXPECT_GT(ledger(unit, "layer_data_ms"), 0.0);
    EXPECT_GT(ledger(unit, "inference_ms"), 0.0);
    expectLedgerSumsToWall(unit);

    {
        auto ctx = context({"datasets=citeseer", "scale=tiny"});
        ctx->inference("citeseer", "grow");
    }
    const auto &tiny = lastReport();
    EXPECT_EQ(rows(tiny, "build_phase"), 1u);
    EXPECT_EQ(rows(tiny, "layer_data"), 1u);
    EXPECT_EQ(rows(tiny, "sim_speed"), 1u);
    EXPECT_EQ(ledger(tiny, "inference_hits"), 0.0);

    // Another model shares the graph's artefact bundle, but not its
    // layer data or its inferences.
    {
        auto ctx = context({"datasets=citeseer", "model=gin"});
        ctx->inference("citeseer", "grow");
    }
    const auto &gin = lastReport();
    EXPECT_EQ(rows(gin, "build_phase"), 0u);
    EXPECT_EQ(ledger(gin, "artifact_hits"), 1.0);
    EXPECT_EQ(rows(gin, "layer_data"), 1u);
    EXPECT_EQ(rows(gin, "sim_speed"), 1u);
    EXPECT_EQ(ledger(gin, "workload_hits"), 0.0);
    EXPECT_EQ(ledger(gin, "inference_hits"), 0.0);
}

TEST_F(BenchMemo, FileConversionsWithOneNameButDifferentEdgesDoNotShare)
{
    const fs::path dir = fs::path(::testing::TempDir()) / "bench_memo_files";
    fs::remove_all(dir);
    fs::create_directories(dir);
    graph::DatasetSpec tmpl = graph::datasetByName("cora");
    tmpl.name = "memo_twin";
    auto convert = [&](const std::string &stem, uint32_t stride) {
        const fs::path text = dir / (stem + ".txt");
        std::ofstream out(text);
        for (uint32_t v = 0; v < 96; ++v)
            out << v << " " << (v + stride) % 96 << "\n";
        out.close();
        const std::string csr = (dir / (stem + ".growcsr")).string();
        graph::convertEdgeListFile(text.string(), csr, tmpl,
                                   graph::ScaleTier::Unit);
        return csr;
    };
    const std::string ring = convert("ring", 1);
    const std::string chords = convert("chords", 7);
    auto a = graph::MappedCsrGraph::open(ring);
    auto b = graph::MappedCsrGraph::open(chords);
    ASSERT_TRUE(a && b);
    ASSERT_EQ(a->spec().name, b->spec().name);
    ASSERT_NE(a->spec().sourceChecksum, b->spec().sourceChecksum);

    // The file registry holds one file per name and process, so the
    // second conversion can only be told apart by its key.
    gcn::WorkloadConfig wc;
    wc.tier = graph::ScaleTier::Unit;
    const auto ka = WorkloadKey::of(a->spec(), wc);
    const auto kb = WorkloadKey::of(b->spec(), wc);
    EXPECT_TRUE(ka < kb || kb < ka);
    EXPECT_FALSE(ka < WorkloadKey::of(a->spec(), wc));

    // Two contexts on the same file share.
    for (int pass = 0; pass < 2; ++pass) {
        auto ctx = context({"datasets=file:" + ring});
        ctx->inference("memo_twin", "grow");
    }
    EXPECT_EQ(rows(collector_.reports().front(), "sim_speed"), 1u);
    EXPECT_EQ(rows(lastReport(), "sim_speed"), 0u);
    EXPECT_EQ(ledger(lastReport(), "inference_hits"), 1.0);
    fs::remove_all(dir);
}

TEST_F(BenchMemo, RecordedResultsNeverEnterTheMemo)
{
    gcn::InferenceResult fake;
    fake.engine = "grow";
    fake.totalCycles = 12345;
    Cycle memoised = 0;
    {
        auto ctx = context({"datasets=pubmed"});
        ctx->recordInference("pubmed", "grow", fake);
        memoised = ctx->inference("pubmed", "grow").totalCycles;
    }
    EXPECT_NE(memoised, fake.totalCycles);
    EXPECT_GT(memoised, 0u);
    {
        auto ctx = context({"datasets=pubmed"});
        ctx->recordInference("pubmed", "grow", fake);
        EXPECT_EQ(ctx->inference("pubmed", "grow").totalCycles, memoised);
    }
    EXPECT_EQ(ledger(lastReport(), "inference_hits"), 1.0);
}

TEST_F(BenchMemo, SweepReturnsResultsInJobOrderAtAnyThreadCount)
{
    gcn::WorkloadConfig wc;
    wc.tier = graph::ScaleTier::Unit;
    driver::WorkloadCache cache;
    const gcn::GcnWorkload fresh =
        cache.workload(graph::datasetByName("flickr"), wc);
    const std::vector<std::string> keys = {"gcnax", "grow-nogp", "grow",
                                           "grow-norunahead", "matraptor"};
    std::vector<gcn::InferenceResult> direct;
    for (const auto &key : keys) {
        auto job = driver::makeEngineJob(key, fresh);
        auto engine = job.makeEngine();
        direct.push_back(gcn::runInference(*engine, fresh, job.options));
    }

    for (uint32_t threads : {1u, 4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        std::vector<std::pair<std::string, std::string>> expected;
        {
            auto ctx = context({"datasets=flickr"}, threads);
            const auto &w = ctx->workload("flickr");
            std::vector<driver::SweepJob> jobs;
            for (const auto &key : keys) {
                jobs.push_back(
                    driver::makeEngineJob(key, w, ctx->runOptions()));
                jobs.back().label = key + "@t" + std::to_string(threads);
                expected.emplace_back("flickr", jobs.back().label);
            }
            const auto results = ctx->sweep(jobs);
            ASSERT_EQ(results.size(), keys.size());
            for (size_t i = 0; i < keys.size(); ++i) {
                SCOPED_TRACE(keys[i]);
                expectSameResult(results[i], direct[i]);
            }
        }
        // One sim_speed row per job, under (dataset, label), listed
        // in pair order. The sweep's wall is inference time.
        const auto &rep = lastReport();
        std::sort(expected.begin(), expected.end());
        EXPECT_EQ(rowPairs(rep, "sim_speed"), expected);
        EXPECT_EQ(ledger(rep, "inference_hits"), 0.0);
        EXPECT_GT(ledger(rep, "inference_ms"), 0.0);
        expectLedgerSumsToWall(rep);
    }

    // Neither sweep entered the memo: every key still simulates.
    {
        auto ctx = context({"datasets=flickr"});
        for (size_t i = 0; i < keys.size(); ++i)
            expectSameResult(ctx->inference("flickr", keys[i]), direct[i]);
    }
    EXPECT_EQ(rows(lastReport(), "sim_speed"), keys.size());
    EXPECT_EQ(ledger(lastReport(), "inference_hits"), 0.0);
}

TEST_F(BenchMemo, RecordedRowsKeepTheirPairVerbatim)
{
    // Neither half of the pair is split: a '/' in either stays put.
    double hostMs = 0.0;
    {
        auto ctx = context({"datasets=yelp"});
        gcn::WorkloadConfig wc;
        wc.tier = graph::ScaleTier::Unit;
        driver::WorkloadCache cache;
        const gcn::GcnWorkload w =
            cache.workload(graph::datasetByName("yelp"), wc);
        auto job = driver::makeEngineJob("grow", w);
        auto engine = job.makeEngine();
        // Run serially inside the bench, as recordInference() asks.
        const auto r = gcn::runInference(*engine, w, job.options);
        hostMs = r.hostMillis;
        ctx->recordInference("yelp/part", "grow@chips/2", r);
    }
    const auto &rep = lastReport();
    const std::vector<std::pair<std::string, std::string>> pair = {
        {"yelp/part", "grow@chips/2"}};
    EXPECT_EQ(rowPairs(rep, "sim_speed"), pair);
    for (const auto &p : rowPairs(rep, "sim_speed_layer"))
        EXPECT_EQ(p, pair.front());
    EXPECT_GT(rows(rep, "sim_speed_layer"), 0u);
    // A recorded result's host time is inference time.
    EXPECT_GT(hostMs, 0.0);
    EXPECT_DOUBLE_EQ(ledger(rep, "inference_ms"), hostMs);
    expectLedgerSumsToWall(rep);
}

} // namespace
} // namespace grow::bench
