/**
 * @file
 * CLI plumbing shared by the example tools: the strict numeric flag
 * parser, the nearest-flag hint, and the results-file section lookup
 * hos-explain / hos-timeline / hos-profdiff read through.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/report.hh"
#include "sim/flags.hh"
#include "sim/json.hh"

namespace {

using namespace hos;

TEST(Flags, ParseUnsignedIsStrict)
{
    std::uint64_t v = 7;
    EXPECT_TRUE(sim::parseUnsigned("12", v));
    EXPECT_EQ(v, 12u);
    EXPECT_TRUE(sim::parseUnsigned("0x10", v));
    EXPECT_EQ(v, 16u);
    // Each rejection leaves the output untouched.
    v = 7;
    for (const char *bad : {"abc", "12x", "", "-1", "+1", " 1",
                            "99999999999999999999"}) {
        EXPECT_FALSE(sim::parseUnsigned(bad, v)) << "'" << bad << "'";
        EXPECT_EQ(v, 7u) << "'" << bad << "'";
    }
}

TEST(Flags, ParseNonNegativeIsStrict)
{
    double v = 0.0;
    EXPECT_TRUE(sim::parseNonNegative("2.5", v));
    EXPECT_DOUBLE_EQ(v, 2.5);
    for (const char *bad : {"abc", "12x", "", "-1", "inf", "nan"})
        EXPECT_FALSE(sim::parseNonNegative(bad, v)) << "'" << bad << "'";
}

TEST(Flags, FlagValueHonoursItsBound)
{
    // run_sweep --jobs= (bound UINT_MAX) and --log-level= (bound 2).
    std::uint64_t v = 7;
    EXPECT_TRUE(sim::flagValue("--jobs=0", v, 0xffffffffu));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(sim::flagValue("--log-level=2", v, 2));
    EXPECT_EQ(v, 2u);
    v = 7;
    for (const char *bad : {"--jobs=abc", "--jobs=-1", "--jobs=",
                            "--jobs=4294967296"}) {
        EXPECT_FALSE(sim::flagValue(bad, v, 0xffffffffu)) << bad;
        EXPECT_EQ(v, 7u) << bad;
    }
    EXPECT_FALSE(sim::flagValue("--log-level=3", v, 2));
    EXPECT_FALSE(sim::flagValue("--log-level=abc", v, 2));
    EXPECT_EQ(v, 7u);
}

TEST(Flags, NearestFlagComparesNamesWithoutValues)
{
    const std::vector<const char *> known = {"--run=", "--vm=",
                                             "--exact"};
    EXPECT_EQ(sim::nearestFlag("--rn=3", known), "--run");
    EXPECT_EQ(sim::nearestFlag("--exakt", known), "--exact");
    EXPECT_EQ(sim::editDistance("kitten", "sitting"), 3u);
}

TEST(ReportSections, TopLevelOrEveryCarryingSweepRun)
{
    std::string error;
    const auto single = sim::jsonParse(R"({"xray": {"n": 1}})");
    ASSERT_TRUE(single);
    const auto *x = core::reportSection(*single, "xray", 0, error);
    ASSERT_NE(x, nullptr) << error;
    EXPECT_EQ(x->find("n")->asU64(), 1u);
    EXPECT_EQ(core::reportSection(*single, "xray", 1, error), nullptr);

    // Runs without the section are skipped, not counted.
    const auto sweep = sim::jsonParse(
        R"({"runs": [{"record": {"xray": {"n": 1}}}, {"record": {}},
                     {"record": {"xray": {"n": 3}}}]})");
    ASSERT_TRUE(sweep);
    EXPECT_EQ(core::reportSections(*sweep, "xray", error).size(), 2u);
    x = core::reportSection(*sweep, "xray", 1, error);
    ASSERT_NE(x, nullptr) << error;
    EXPECT_EQ(x->find("n")->asU64(), 3u);

    error.clear();
    EXPECT_TRUE(core::reportSections(*sweep, "metrics", error).empty());
    EXPECT_FALSE(error.empty());
    error.clear();
    const auto neither = sim::jsonParse(R"({"app": "graphchi"})");
    EXPECT_TRUE(core::reportSections(*neither, "profile", error).empty());
    EXPECT_FALSE(error.empty());
}

} // namespace
