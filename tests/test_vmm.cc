/**
 * @file
 * Vmm + balloon back-end: registration boot-populates reservations,
 * on-demand growth, surrender, tier routing, and hidden-VM backing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "guestos/kernel.hh"
#include "mem/machine_memory.hh"
#include "vmm/vmm.hh"

namespace {

using namespace hos;
using guestos::Gpfn;

struct VmmFixture : ::testing::Test
{
    mem::MachineMemory machine;
    std::unique_ptr<vmm::Vmm> hypervisor;

    void
    SetUp() override
    {
        machine.addNode(mem::MemType::FastMem, mem::dramSpec(16 * mem::mib));
        machine.addNode(mem::MemType::SlowMem,
                        mem::defaultSlowMemSpec(64 * mem::mib));
        hypervisor = std::make_unique<vmm::Vmm>(machine);
    }

    guestos::GuestConfig
    guestCfg(std::uint64_t fast_init, std::uint64_t slow_init)
    {
        guestos::GuestConfig cfg;
        cfg.name = "vm";
        cfg.cpus = 2;
        cfg.nodes = {{mem::MemType::FastMem, 16 * mem::mib, fast_init},
                     {mem::MemType::SlowMem, 64 * mem::mib, slow_init}};
        return cfg;
    }
};

TEST_F(VmmFixture, RegistrationBootPopulates)
{
    guestos::GuestKernel guest(guestCfg(4 * mem::mib, 16 * mem::mib));
    const auto id = hypervisor->registerVm(guest, {});
    auto &vm = hypervisor->vm(id);

    EXPECT_EQ(vm.framesOf(mem::MemType::FastMem),
              mem::bytesToPages(4 * mem::mib));
    EXPECT_EQ(vm.framesOf(mem::MemType::SlowMem),
              mem::bytesToPages(16 * mem::mib));
    EXPECT_EQ(guest.node(0).freePages(),
              mem::bytesToPages(4 * mem::mib));
    EXPECT_EQ(hypervisor->usedFrames(mem::MemType::FastMem),
              mem::bytesToPages(4 * mem::mib));
}

TEST_F(VmmFixture, BalloonGrowsReservationOnDemand)
{
    guestos::GuestKernel guest(guestCfg(4 * mem::mib, 16 * mem::mib));
    hypervisor->registerVm(guest, {});
    const auto granted =
        guest.balloon().requestPages(mem::MemType::FastMem, 256);
    EXPECT_EQ(granted, 256u);
    EXPECT_EQ(guest.node(0).managedPages(),
              mem::bytesToPages(4 * mem::mib) + 256);
}

TEST_F(VmmFixture, GrowthCapsAtContractMax)
{
    guestos::GuestKernel guest(guestCfg(4 * mem::mib, 16 * mem::mib));
    hypervisor->registerVm(guest, {});
    // Node span (and default max) is 16 MiB = 4096 pages; 1024 are
    // populated. Asking for far more grants only up to the ceiling.
    const auto granted =
        guest.balloon().requestPages(mem::MemType::FastMem, 100000);
    EXPECT_EQ(granted, 4096u - 1024u);
    EXPECT_EQ(guest.balloon()
                  .requestPages(mem::MemType::FastMem, 1),
              0u);
}

TEST_F(VmmFixture, SurrenderReturnsFrames)
{
    guestos::GuestKernel guest(guestCfg(8 * mem::mib, 16 * mem::mib));
    const auto id = hypervisor->registerVm(guest, {});
    auto &vm = hypervisor->vm(id);
    const auto before_free =
        hypervisor->freeFrames(mem::MemType::FastMem);

    const auto given =
        guest.balloon().surrenderPages(mem::MemType::FastMem, 512);
    EXPECT_EQ(given, 512u);
    EXPECT_EQ(hypervisor->freeFrames(mem::MemType::FastMem),
              before_free + 512);
    EXPECT_EQ(vm.framesOf(mem::MemType::FastMem),
              mem::bytesToPages(8 * mem::mib) - 512);
}

TEST_F(VmmFixture, HiddenVmBacksSlowFirst)
{
    guestos::GuestConfig cfg;
    cfg.name = "hidden";
    cfg.cpus = 2;
    // One homogeneous node spanning 32 MiB.
    cfg.nodes = {{mem::MemType::SlowMem, 32 * mem::mib, 32 * mem::mib}};
    guestos::GuestKernel guest(cfg);

    vmm::VmConfig vcfg;
    vcfg.hide_heterogeneity = true;
    const auto id = hypervisor->registerVm(guest, vcfg);
    auto &vm = hypervisor->vm(id);

    // 32 MiB fits entirely in the 64 MiB SlowMem tier.
    EXPECT_EQ(vm.framesOf(mem::MemType::SlowMem),
              mem::bytesToPages(32 * mem::mib));
    EXPECT_EQ(vm.framesOf(mem::MemType::FastMem), 0u);
    EXPECT_TRUE(vm.fastBacked().empty());
}

TEST_F(VmmFixture, HiddenVmSpillsToFastWhenSlowDrains)
{
    // First VM eats most of SlowMem.
    guestos::GuestConfig big;
    big.name = "big";
    big.cpus = 2;
    big.nodes = {{mem::MemType::SlowMem, 56 * mem::mib, 56 * mem::mib}};
    guestos::GuestKernel guest1(big);
    vmm::VmConfig vcfg;
    vcfg.hide_heterogeneity = true;
    hypervisor->registerVm(guest1, vcfg);

    // The second hidden VM must split across tiers.
    guestos::GuestConfig cfg;
    cfg.name = "second";
    cfg.cpus = 2;
    cfg.nodes = {{mem::MemType::SlowMem, 12 * mem::mib, 12 * mem::mib}};
    guestos::GuestKernel guest2(cfg);
    const auto id = hypervisor->registerVm(guest2, vcfg);
    auto &vm = hypervisor->vm(id);

    EXPECT_EQ(vm.framesOf(mem::MemType::SlowMem),
              mem::bytesToPages(8 * mem::mib));
    EXPECT_EQ(vm.framesOf(mem::MemType::FastMem),
              mem::bytesToPages(4 * mem::mib));
    EXPECT_EQ(vm.fastBacked().size(),
              mem::bytesToPages(4 * mem::mib));
}

/** Block heads of one free list, head to tail. */
std::vector<Gpfn>
freeListBlocks(const guestos::PageArray &pages, const guestos::PageList &l)
{
    std::vector<Gpfn> out;
    for (Gpfn pfn = l.head(); pfn != guestos::invalidGpfn;
         pfn = pages.page(pfn).link_next()) {
        out.push_back(pfn);
    }
    return out;
}

TEST_F(VmmFixture, BootDonationMatchesAddFreeRange)
{
    // Odd sizes end the carve in small blocks, and the SlowMem
    // reservation spills from the DMA zone into the Normal zone.
    guestos::GuestKernel guest(guestCfg(4 * mem::mib + 13 * mem::pageSize,
                                        24 * mem::mib + 5 * mem::pageSize));
    hypervisor->registerVm(guest, {});
    for (unsigned nid = 0; nid < guest.numNodes(); ++nid) {
        const guestos::NumaNode &node = guest.node(nid);
        const Gpfn booted_end =
            node.base() +
            mem::bytesToPages(guest.config().nodes[nid].initial_bytes);
        for (std::size_t zi = 0; zi < node.numZones(); ++zi) {
            const guestos::BuddyAllocator &got = node.zone(zi).buddy();
            guestos::PageArray pages(guest.pages().size());
            guestos::BuddyAllocator want(pages, got.base(), got.spanPages());
            const Gpfn end =
                std::min(booted_end, got.base() + got.spanPages());
            if (end > got.base())
                want.addFreeRange(got.base(), end - got.base());
            EXPECT_EQ(got.managedPages(), want.managedPages());
            EXPECT_EQ(got.freePages(), want.freePages());
            for (unsigned o = 0; o < guestos::BuddyAllocator::maxOrder;
                 ++o) {
                EXPECT_EQ(freeListBlocks(guest.pages(), got.freeList(o)),
                          freeListBlocks(pages, want.freeList(o)))
                    << "node " << nid << " zone " << zi << " order " << o;
            }
        }
    }
}

TEST_F(VmmFixture, DonatedPagesReadDefaults)
{
    guestos::GuestKernel guest(guestCfg(4 * mem::mib, 24 * mem::mib));
    hypervisor->registerVm(guest, {});
    for (unsigned nid = 0; nid < guest.numNodes(); ++nid) {
        const guestos::NumaNode &node = guest.node(nid);
        const Gpfn booted_end =
            node.base() +
            mem::bytesToPages(guest.config().nodes[nid].initial_bytes);
        for (Gpfn pfn = node.base(); pfn < node.base() + node.spanPages();
             ++pfn) {
            const guestos::PageRef p = guest.pages().page(pfn);
            ASSERT_EQ(p.numa_node(), nid) << pfn;
            ASSERT_EQ(p.mem_type(), node.memType()) << pfn;
            ASSERT_EQ(p.type(), guestos::PageType::Free) << pfn;
            ASSERT_EQ(p.heat(), 0u) << pfn;
            ASSERT_EQ(p.owner_process(), guestos::noProcess) << pfn;
            ASSERT_FALSE(p.allocated() || p.dirty() || p.referenced() ||
                         p.pte_accessed() || p.under_io() ||
                         p.unevictable())
                << pfn;
            ASSERT_EQ(p.lru(), guestos::LruState::None) << pfn;
            ASSERT_EQ(p.populated(), pfn < booted_end) << pfn;
            // Only block heads sit on a free list.
            ASSERT_EQ(p.on_list(), p.in_buddy() ? guestos::listBuddy
                                                : guestos::listNone)
                << pfn;
        }
        EXPECT_EQ(node.freePages(),
                  mem::bytesToPages(guest.config().nodes[nid].initial_bytes));
    }
}

TEST_F(VmmFixture, TwoVmsShareThePool)
{
    guestos::GuestKernel a(guestCfg(8 * mem::mib, 16 * mem::mib));
    guestos::GuestKernel b(guestCfg(8 * mem::mib, 16 * mem::mib));
    hypervisor->registerVm(a, {});
    hypervisor->registerVm(b, {});
    EXPECT_EQ(hypervisor->freeFrames(mem::MemType::FastMem), 0u);
    // A third's boot request gets nothing from FastMem.
    guestos::GuestKernel c(guestCfg(4 * mem::mib, 8 * mem::mib));
    hypervisor->registerVm(c, {});
    EXPECT_EQ(hypervisor->vm(2).framesOf(mem::MemType::FastMem), 0u);
}

} // namespace
