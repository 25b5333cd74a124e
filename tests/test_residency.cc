/**
 * @file
 * ResidencyIndex: the incremental per-region per-tier accounting the
 * workload engine reads instead of re-deriving placement by sampling.
 * Each test compares the index against ground truth recomputed page
 * by page (descriptor + backingOf per index).
 */

#include <gtest/gtest.h>

#include "check/auditors.hh"
#include "guestos/residency.hh"

#include "test_helpers.hh"

namespace {

using namespace hos;
using namespace hos::guestos;

struct ResidencyFixture : ::testing::Test
{
    std::unique_ptr<GuestKernel> kernel =
        test::standaloneGuest(16 * mem::mib, 64 * mem::mib);
    AddressSpace *as = nullptr;
    std::uint64_t va = 0;
    RegionHandle region = invalidRegionHandle;
    std::vector<Gpfn> pfns;

    /** mmap + touch `n` pages and register them as one region. */
    void
    populate(std::uint64_t n, MemHint hint)
    {
        va = as->mmap(n * mem::pageSize, VmaKind::Anon, hint);
        region = kernel->residency().registerRegion(as->pid(), va);
        for (std::uint64_t i = 0; i < n; ++i) {
            const Gpfn pfn = as->touch(va + i * mem::pageSize, true);
            pfns.push_back(pfn);
            kernel->residency().appendPage(region, pfn);
        }
    }

    /** Ground truth: FastMem-backed count over all indices. */
    std::uint64_t
    recountFast()
    {
        std::uint64_t fast = 0;
        auto &res = kernel->residency();
        for (std::uint64_t i = 0; i < res.pageCount(region); ++i) {
            if (kernel->backingOf(res.binding(region, i)) ==
                mem::MemType::FastMem)
                ++fast;
        }
        return fast;
    }

    void
    SetUp() override
    {
        as = &kernel->createProcess("p");
    }
};

TEST_F(ResidencyFixture, BindingsAndBitsMatchGroundTruth)
{
    populate(64, MemHint::SlowMem);
    auto &res = kernel->residency();
    ASSERT_EQ(res.pageCount(region), 64u);
    for (std::uint64_t i = 0; i < 64; ++i) {
        EXPECT_EQ(res.binding(region, i), pfns[i]);
        EXPECT_EQ(res.fastBit(region, i),
                  kernel->backingOf(pfns[i]) == mem::MemType::FastMem);
    }
    EXPECT_EQ(res.fastTotal(region), recountFast());
}

TEST_F(ResidencyFixture, MigrationRepointsBindingsAndCounts)
{
    populate(32, MemHint::SlowMem);
    auto &res = kernel->residency();
    const std::uint64_t fast_before = res.fastTotal(region);

    // Promote half the region; the frontend's onRemap hook must
    // re-point every moved binding and flip its bit.
    std::vector<Gpfn> half(pfns.begin(), pfns.begin() + 16);
    const auto out =
        kernel->migrator().migratePages(half, mem::MemType::FastMem);
    ASSERT_EQ(out.migrated, 16u);

    for (std::uint64_t i = 0; i < 32; ++i) {
        const auto cur = as->translate(va + i * mem::pageSize);
        ASSERT_TRUE(cur.has_value());
        EXPECT_EQ(res.binding(region, i), *cur)
            << "binding not re-pointed at index " << i;
    }
    EXPECT_EQ(res.fastTotal(region), fast_before + 16);
    EXPECT_EQ(res.fastTotal(region), recountFast());
}

TEST_F(ResidencyFixture, FastInRangeMatchesBitSum)
{
    populate(48, MemHint::SlowMem);
    // Mixed placement so windows actually vary.
    std::vector<Gpfn> some = {pfns[3], pfns[11], pfns[12], pfns[40],
                              pfns[47]};
    ASSERT_EQ(kernel->migrator()
                  .migratePages(some, mem::MemType::FastMem)
                  .migrated,
              5u);

    auto &res = kernel->residency();
    const std::uint64_t size = res.pageCount(region);
    for (std::uint64_t start : {0ul, 5ul, 40ul, 47ul}) {
        for (std::uint64_t count : {1ul, 7ul, 16ul, 48ul}) {
            std::uint64_t want = 0;
            for (std::uint64_t k = 0; k < count; ++k) {
                std::uint64_t idx = start + k;
                if (idx >= size)
                    idx -= size; // circular window, as the sampler's
                want += res.fastBit(region, idx) ? 1 : 0;
            }
            EXPECT_EQ(res.fastInRange(region, start, count), want)
                << "start=" << start << " count=" << count;
        }
    }
}

TEST_F(ResidencyFixture, TierChangeNotificationsFlipBits)
{
    populate(8, MemHint::SlowMem);
    auto &res = kernel->residency();
    res.enableTierNotifications();
    ASSERT_EQ(res.fastTotal(region), 0u);

    // Simulate the P2M retarget a VMM-exclusive policy performs: the
    // same gpfn's effective tier changes behind the guest's back.
    res.onTierChange(pfns[2], mem::MemType::FastMem);
    res.onTierChange(pfns[5], mem::MemType::FastMem);
    EXPECT_TRUE(res.fastBit(region, 2));
    EXPECT_TRUE(res.fastBit(region, 5));
    EXPECT_EQ(res.fastTotal(region), 2u);

    res.onTierChange(pfns[2], mem::MemType::SlowMem);
    EXPECT_FALSE(res.fastBit(region, 2));
    EXPECT_EQ(res.fastTotal(region), 1u);

    // Idempotent: re-announcing the current tier changes nothing.
    res.onTierChange(pfns[5], mem::MemType::FastMem);
    EXPECT_EQ(res.fastTotal(region), 1u);
}

TEST_F(ResidencyFixture, UnregisterStopsUpdatesAndRecyclesHandle)
{
    populate(16, MemHint::SlowMem);
    auto &res = kernel->residency();
    res.unregisterRegion(region);
    EXPECT_FALSE(res.regionLive(region));

    // Transitions touching the old region's pages must be no-ops now.
    ASSERT_EQ(kernel->migrator()
                  .migratePages({pfns[0]}, mem::MemType::FastMem)
                  .migrated,
              1u);

    // A new region can reuse the handle without inheriting state.
    const std::uint64_t va2 =
        as->mmap(4 * mem::pageSize, VmaKind::Anon, MemHint::SlowMem);
    const RegionHandle h2 = res.registerRegion(as->pid(), va2);
    EXPECT_EQ(h2, region) << "freed handle should be recycled";
    EXPECT_EQ(res.pageCount(h2), 0u);
    EXPECT_EQ(res.fastTotal(h2), 0u);
}

TEST_F(ResidencyFixture, AuditResidencyAgreesOnLiveRegions)
{
    populate(40, MemHint::SlowMem);
    std::vector<Gpfn> some(pfns.begin(), pfns.begin() + 10);
    ASSERT_EQ(kernel->migrator()
                  .migratePages(some, mem::MemType::FastMem)
                  .migrated,
              10u);

    const auto r = check::auditResidency(*kernel);
    EXPECT_TRUE(r.ok()) << (r.failures.empty()
                                ? ""
                                : r.failures.front().describe());
    EXPECT_GT(r.checks, 0u);
}

} // namespace
