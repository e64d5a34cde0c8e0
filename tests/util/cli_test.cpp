#include <gtest/gtest.h>

#include "util/cli.hpp"

namespace grow {
namespace {

CliArgs
makeArgs(std::vector<std::string> items)
{
    std::vector<char *> argv;
    static std::vector<std::string> storage;
    storage = std::move(items);
    argv.push_back(const_cast<char *>("prog"));
    for (auto &s : storage)
        argv.push_back(const_cast<char *>(s.c_str()));
    return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(CliArgs, ParsesKeyValues)
{
    auto args = makeArgs({"scale=mini", "seed=42"});
    EXPECT_TRUE(args.has("scale"));
    EXPECT_EQ(args.get("scale", "x"), "mini");
    EXPECT_EQ(args.getInt("seed", 0), 42);
}

TEST(CliArgs, DefaultsWhenMissing)
{
    auto args = makeArgs({});
    EXPECT_FALSE(args.has("scale"));
    EXPECT_EQ(args.get("scale", "mini"), "mini");
    EXPECT_EQ(args.getInt("n", 7), 7);
    EXPECT_DOUBLE_EQ(args.getDouble("d", 1.5), 1.5);
    EXPECT_TRUE(args.getBool("b", true));
}

TEST(CliArgs, ParsesBooleans)
{
    auto args = makeArgs({"a=true", "b=0", "c=yes", "d=off"});
    EXPECT_TRUE(args.getBool("a", false));
    EXPECT_FALSE(args.getBool("b", true));
    EXPECT_TRUE(args.getBool("c", false));
    EXPECT_FALSE(args.getBool("d", true));
}

TEST(CliArgs, ParsesLists)
{
    auto args = makeArgs({"datasets=cora, reddit ,yelp"});
    auto list = args.getList("datasets", {});
    ASSERT_EQ(list.size(), 3u);
    EXPECT_EQ(list[0], "cora");
    EXPECT_EQ(list[1], "reddit");
    EXPECT_EQ(list[2], "yelp");
}

TEST(CliArgs, IgnoresDashDashFlags)
{
    auto args = makeArgs({"--benchmark_filter=all", "k=1"});
    EXPECT_EQ(args.getInt("k", 0), 1);
}

TEST(CliArgs, RejectsPositionalArguments)
{
    EXPECT_ANY_THROW(makeArgs({"justaword"}));
}

TEST(CliArgs, RejectsBadBoolean)
{
    auto args = makeArgs({"b=maybe"});
    EXPECT_ANY_THROW(args.getBool("b", false));
}

TEST(CliArgs, RequireKnownRejectsTyposWithAcceptedKeyList)
{
    // A typo like `cachdir=` must abort instead of silently dropping
    // the option (it used to just disable the disk cache).
    auto args = makeArgs({"cachdir=/tmp/x", "scale=mini"});
    try {
        args.requireKnown({"scale", "cachedir", "datasets"});
        FAIL() << "expected fatal()";
    } catch (const std::exception &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("cachdir"), std::string::npos);
        // The accepted keys are listed, sorted.
        EXPECT_NE(msg.find("cachedir, datasets, scale"),
                  std::string::npos);
        // The known key is not reported as unknown.
        EXPECT_EQ(msg.find("unknown argument(s): cachdir,"),
                  std::string::npos);
    }
}

TEST(CliArgs, RequireKnownAcceptsKnownKeysAndIgnoresDashFlags)
{
    auto args = makeArgs({"scale=mini", "--benchmark_filter=x"});
    EXPECT_NO_THROW(args.requireKnown({"scale"}));
    EXPECT_NO_THROW(makeArgs({}).requireKnown({}));
}

TEST(CliArgs, WithPrefixStripsThePrefixAndSkipsOthers)
{
    auto args = makeArgs(
        {"tol.ms=0.15", "tol.rows/s=0.2", "tol=0.02", "base=x"});
    auto tols = args.withPrefix("tol.");
    ASSERT_EQ(tols.size(), 2u);
    EXPECT_EQ(tols.at("ms"), "0.15");
    EXPECT_EQ(tols.at("rows/s"), "0.2");
    // The bare `tol=` key is not prefixed, and a suffix-less `tol.=`
    // would not count either.
    EXPECT_EQ(tols.count("tol"), 0u);
    EXPECT_EQ(args.withPrefix("gate.").size(), 0u);
}

TEST(CliArgs, RequireKnownCoversTheDseKeys)
{
    // design_space_sweep grew dse=/pareto=/est=; the example's key set
    // must both accept them and keep rejecting near-miss typos (a
    // dropped `dse=1` would silently skip the whole DSE tier).
    const std::vector<std::string> keys = {
        "datasets", "scale", "threads", "cachedir", "model",
        "format",   "out",   "dse",     "pareto",   "est"};
    auto ok = makeArgs({"dse=1", "pareto=8", "est=1"});
    EXPECT_NO_THROW(ok.requireKnown(keys));
    for (const char *typo : {"des=1", "dse1=1", "paretto=4", "Est=1"}) {
        auto bad = makeArgs({typo});
        EXPECT_ANY_THROW(bad.requireKnown(keys)) << typo;
    }
}

TEST(CliArgs, RequireKnownAcceptsPrefixedKeys)
{
    auto args = makeArgs({"tol.ms=0.15", "base=x"});
    EXPECT_NO_THROW(args.requireKnown({"base"}, {"tol."}));
    // A prefix alone with no suffix is still unknown.
    auto bare = makeArgs({"tol.=0.15"});
    EXPECT_ANY_THROW(bare.requireKnown({"base"}, {"tol."}));
    // Prefixed keys are only accepted when the prefix is declared.
    EXPECT_ANY_THROW(args.requireKnown({"base"}));
    // The accepted-keys message advertises the prefix form.
    try {
        makeArgs({"bogus=1"}).requireKnown({"base"}, {"tol."});
        FAIL() << "expected fatal()";
    } catch (const std::exception &e) {
        EXPECT_NE(std::string(e.what()).find("tol.<name>"),
                  std::string::npos);
    }
}

TEST(CliArgs, RequireKnownCoversTheIngestionKeys)
{
    // The out-of-core ingestion PR grew memcap= on every bench and
    // in=/out=/name=/nodes=/dataset=/verify= on graph_convert; the key
    // sets must accept them and keep rejecting near-miss typos (a
    // dropped memcap= would silently run uncapped).
    const std::vector<std::string> benchKeys = {
        "scale", "datasets", "model",   "cachedir", "format",
        "out",   "threads",  "profile", "memcap"};
    auto ok = makeArgs({"memcap=512M", "datasets=file:/tmp/g.growcsr"});
    EXPECT_NO_THROW(ok.requireKnown(benchKeys));
    for (const char *typo : {"memcp=512M", "memcap2=1G", "Memcap=1"}) {
        auto bad = makeArgs({typo});
        EXPECT_ANY_THROW(bad.requireKnown(benchKeys)) << typo;
    }

    const std::vector<std::string> convertKeys = {
        "in", "out", "name", "nodes", "dataset", "scale", "verify"};
    auto conv = makeArgs(
        {"in=edges.txt", "out=g.growcsr", "name=reddit", "nodes=100"});
    EXPECT_NO_THROW(conv.requireKnown(convertKeys));
    auto badConv = makeArgs({"verfy=g.growcsr"});
    EXPECT_ANY_THROW(badConv.requireKnown(convertKeys));
}

} // namespace
} // namespace grow
