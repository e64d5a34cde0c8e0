#include <gtest/gtest.h>

#include <cstdint>
#include <string>

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

/** The fatal() message of @p fn, or "" when it does not throw. */
template <typename Fn>
std::string
errorOf(Fn fn)
{
    try {
        fn();
    } catch (const std::exception &e) {
        return e.what();
    }
    return "";
}

TEST(CliArgs, GetIntRejectsNonNumericValuesNamingTheKey)
{
    // strtoll without an end pointer read `threads=abc` as 0.
    for (const char *bad : {"threads=abc", "threads=4x", "threads=",
                            "threads=1e3", "threads=2.5",
                            "threads=99999999999999999999"}) {
        auto args = makeArgs({bad});
        const std::string msg =
            errorOf([&] { args.getInt("threads", 1); });
        EXPECT_NE(msg.find("threads="), std::string::npos) << bad;
        EXPECT_NE(msg.find("integer"), std::string::npos) << msg;
    }
    auto ok = makeArgs({"a=-12", "b=+7", "c=0"});
    EXPECT_EQ(ok.getInt("a", 0), -12);
    EXPECT_EQ(ok.getInt("b", 0), 7);
    EXPECT_EQ(ok.getInt("c", 5), 0);
}

TEST(CliArgs, GetIntEnforcesTheRangeOnSuppliedValuesOnly)
{
    auto args = makeArgs({"requests=-1", "slots=0", "depth=16"});
    const std::string msg =
        errorOf([&] { args.getInt("requests", 32, 1, 1000); });
    EXPECT_NE(msg.find("requests=-1 is out of range [1, 1000]"),
              std::string::npos)
        << msg;
    EXPECT_ANY_THROW(args.getInt("slots", 1, 1, 1024));
    EXPECT_EQ(args.getInt("depth", 2, 1, 16), 16);
    EXPECT_ANY_THROW(args.getInt("depth", 2, 1, 15));
    // A default outside the range is the caller's business.
    EXPECT_EQ(args.getInt("absent", -3, 0, 1), -3);
}

TEST(CliArgs, GetDoubleRejectsNonNumericAndNonFiniteValues)
{
    for (const char *bad : {"tol=abc", "tol=0.5x", "tol=", "tol=nan",
                            "tol=inf", "tol=1e999"}) {
        auto args = makeArgs({bad});
        const std::string msg = errorOf([&] { args.getDouble("tol", 0); });
        EXPECT_NE(msg.find("tol="), std::string::npos) << bad;
    }
    auto ok = makeArgs({"a=0.25", "b=-3", "c=1e-3"});
    EXPECT_DOUBLE_EQ(ok.getDouble("a", 0), 0.25);
    EXPECT_DOUBLE_EQ(ok.getDouble("b", 0), -3.0);
    EXPECT_DOUBLE_EQ(ok.getDouble("c", 0), 1e-3);
}

int
failingBody(int, char **)
{
    makeArgs({"threads=abc"}).getInt("threads", 1);
    return 0;
}

int
passingBody(int argc, char **)
{
    return argc + 40;
}

TEST(RunMain, PrintsBinaryAndMessageAndReturnsTheErrorExit)
{
    std::string arg0 = "/some/dir/quickstart";
    char *argv[] = {arg0.data(), nullptr};
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(runMain(1, argv, failingBody), 1);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(err,
              "quickstart: fatal: threads= takes an integer, got 'abc'\n");
    EXPECT_EQ(runMain(1, argv, failingBody, 2), 2);
    // A body that returns normally keeps its exit code.
    EXPECT_EQ(runMain(1, argv, passingBody), 41);
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
    // graph_convert's in=/out=/name=/nodes=/dataset=/verify= must be
    // accepted, and a near-miss typo rejected.
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
