/**
 * @file
 * Paper §4.3 extension: three-tier hosts (FastMem / MediumMem /
 * SlowMem) and the page-type-specific demotion chain — heap pages
 * step down one level at a time, finished I/O pages go straight to
 * the slowest tier.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"

#include "test_helpers.hh"

namespace {

using namespace hos;
using namespace hos::guestos;

std::unique_ptr<GuestKernel>
threeTierGuest()
{
    guestos::GuestConfig cfg;
    cfg.name = "tri";
    cfg.cpus = 2;
    cfg.alloc = heapIoSlabOdConfig();
    cfg.alloc.balloon_on_pressure = false;
    cfg.lru.enabled = true;
    cfg.nodes = {{mem::MemType::FastMem, 16 * mem::mib, 16 * mem::mib},
                 {mem::MemType::MediumMem, 32 * mem::mib, 32 * mem::mib},
                 {mem::MemType::SlowMem, 64 * mem::mib, 64 * mem::mib}};
    auto kernel = std::make_unique<GuestKernel>(cfg);
    for (unsigned nid = 0; nid < kernel->numNodes(); ++nid) {
        auto &node = kernel->node(nid);
        const auto view =
            kernel->peekUnpopulatedGpfns(nid, node.spanPages());
        for (std::uint64_t i = 0; i < view.size(); ++i) {
            kernel->pageMeta(view[i]).setPopulated(true);
            node.zoneOf(view[i]).buddy().addFreeRange(view[i], 1);
        }
        kernel->commitUnpopulatedGpfns(nid, view.size(), view.size());
        for (std::size_t zi = 0; zi < node.numZones(); ++zi)
            node.zone(zi).updateWatermarks();
    }
    kernel->events().runUntil(sim::milliseconds(1));
    return kernel;
}

TEST(MultiTier, ThreeNodesBootAndAllocate)
{
    auto k = threeTierGuest();
    EXPECT_EQ(k->numNodes(), 3u);
    EXPECT_NE(k->nodeFor(mem::MemType::MediumMem), nullptr);
    // MediumMem behaves as a conventional node (DMA split applies
    // only to big SlowMem nodes; 32 MiB keeps one Normal zone).
    EXPECT_EQ(k->nodeFor(mem::MemType::MediumMem)->numZones(), 1u);
}

TEST(MultiTier, HeapDemotesOneLevelAtATime)
{
    auto k = threeTierGuest();
    auto &as = k->createProcess("p");
    const auto va = as.mmap(mem::pageSize, VmaKind::Anon,
                            MemHint::FastMem);
    const Gpfn pfn = as.touch(va, true);
    k->pageMeta(pfn).setLastTouch(1);
    ASSERT_EQ(k->pageMeta(pfn).mem_type(), mem::MemType::FastMem);

    ASSERT_EQ(k->heteroLru().demotePage(pfn), 1u);
    auto now = as.translate(va);
    ASSERT_TRUE(now.has_value());
    EXPECT_EQ(k->pageMeta(*now).mem_type(), mem::MemType::MediumMem)
        << "heap pages have high reuse: one level at a time";
}

TEST(MultiTier, IoPagesSkipToSlowest)
{
    auto k = threeTierGuest();
    const FileId f = k->pageCache().createFile(mem::mib);
    auto r = k->pageCache().read(f, 0, 4 * mem::kib, MemHint::FastMem);
    ASSERT_EQ(r.pages.size(), 1u);
    const Gpfn pfn = r.pages[0];
    ASSERT_EQ(k->pageMeta(pfn).mem_type(), mem::MemType::FastMem);

    ASSERT_EQ(k->heteroLru().demotePage(pfn), 1u);
    auto again = k->pageCache().read(f, 0, 4 * mem::kib);
    EXPECT_EQ(again.pages_missed, 0u);
    EXPECT_EQ(k->pageMeta(again.pages[0]).mem_type(),
              mem::MemType::SlowMem)
        << "finished I/O pages are mostly dead: straight to the "
           "largest tier";
}

TEST(MultiTier, HostBuildsMediumNode)
{
    core::HostConfig host;
    host.fast = mem::dramSpec(16 * mem::mib);
    host.medium = mem::throttledSpec(2.0, 3.0, 32 * mem::mib);
    host.slow = mem::defaultSlowMemSpec(64 * mem::mib);
    host.has_medium = true;
    core::HeteroSystem sys(host);
    EXPECT_EQ(sys.machine().numNodes(), 3u);
    EXPECT_TRUE(sys.machine().hasType(mem::MemType::MediumMem));

    auto &slot = sys.addVm(core::makePolicy(core::Approach::HeteroLru),
                           core::GuestSizing{});
    EXPECT_TRUE(slot.kernel->hasType(mem::MemType::MediumMem));
    auto res = sys.runOne(
        slot, workload::makeApp(workload::AppId::LevelDb, 0.02));
    EXPECT_GT(res.elapsed, 0u);
}

} // namespace
