/**
 * @file
 * MachineMemory / MachineNode: frame allocation, ownership tracking,
 * exhaustion, and MFN-range routing.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/machine_memory.hh"

namespace {

using namespace hos::mem;

/** Allocate up to `n` frames one at a time; stops when exhausted. */
std::vector<Mfn>
allocUpTo(MachineNode &node, OwnerId owner, std::uint64_t n)
{
    std::vector<Mfn> out;
    for (std::uint64_t i = 0; i < n; ++i) {
        const auto mfn = node.allocFrame(owner);
        if (!mfn)
            break;
        out.push_back(*mfn);
    }
    return out;
}

TEST(MachineNode, AllocatesAscendingUniqueFrames)
{
    MachineMemory mm;
    mm.addNode(MemType::FastMem, dramSpec(mib)); // 256 frames
    auto &node = mm.node(0);
    EXPECT_EQ(node.totalFrames(), 256u);

    auto a = node.allocFrame(firstVmOwner);
    auto b = node.allocFrame(firstVmOwner);
    ASSERT_TRUE(a && b);
    EXPECT_NE(*a, *b);
    EXPECT_EQ(node.frameOwner(*a), firstVmOwner);
    EXPECT_EQ(node.usedFrames(), 2u);
}

TEST(MachineNode, ExhaustionReturnsNullopt)
{
    MachineMemory mm;
    mm.addNode(MemType::FastMem, dramSpec(mib));
    auto &node = mm.node(0);
    auto frames = allocUpTo(node, firstVmOwner, 1000);
    EXPECT_EQ(frames.size(), 256u);
    EXPECT_FALSE(node.allocFrame(firstVmOwner).has_value());
    EXPECT_EQ(node.freeFrames(), 0u);
}

TEST(MachineNode, FreeReturnsFramesForReuse)
{
    MachineMemory mm;
    mm.addNode(MemType::FastMem, dramSpec(mib));
    auto &node = mm.node(0);
    auto frames = allocUpTo(node, firstVmOwner, 256);
    for (Mfn mfn : frames)
        node.freeFrame(mfn);
    EXPECT_EQ(node.freeFrames(), 256u);
    EXPECT_EQ(node.framesOwnedBy(firstVmOwner), 0u);
    EXPECT_TRUE(node.allocFrame(firstVmOwner).has_value());
}

TEST(MachineNode, OwnerAccountingPerOwner)
{
    MachineMemory mm;
    mm.addNode(MemType::SlowMem, dramSpec(mib));
    auto &node = mm.node(0);
    allocUpTo(node, firstVmOwner, 10);
    allocUpTo(node, firstVmOwner + 1, 5);
    EXPECT_EQ(node.framesOwnedBy(firstVmOwner), 10u);
    EXPECT_EQ(node.framesOwnedBy(firstVmOwner + 1), 5u);
    EXPECT_EQ(node.framesOwnedBy(ownerVmm), 0u);
}

TEST(MachineNode, RecycledFramesGoOutLifoBeforeFreshAscending)
{
    MachineMemory mm;
    mm.addNode(MemType::FastMem, dramSpec(mib));
    mm.addNode(MemType::SlowMem, dramSpec(mib));
    auto &node = mm.node(1);
    const Mfn base = node.mfnBase();
    EXPECT_EQ(allocUpTo(node, firstVmOwner, 4),
              (std::vector<Mfn>{base, base + 1, base + 2, base + 3}));
    node.freeFrame(base + 1);
    node.freeFrame(base + 3);
    EXPECT_EQ(node.frameOwner(base + 3), ownerNone);
    EXPECT_EQ(allocUpTo(node, firstVmOwner, 4),
              (std::vector<Mfn>{base + 3, base + 1, base + 4, base + 5}));
    // A never-handed-out frame is free and ownerless.
    EXPECT_EQ(node.frameOwner(base + 200), ownerNone);
    EXPECT_DEATH(node.freeFrame(base + 200), "double free");
}

TEST(MachineNode, CountsStayConsistentAcrossFreeAndRealloc)
{
    MachineMemory mm;
    mm.addNode(MemType::SlowMem, dramSpec(mib)); // 256 frames
    auto &node = mm.node(0);
    std::vector<std::vector<Mfn>> held(2);
    const auto check = [&] {
        EXPECT_EQ(node.freeFrames() + node.usedFrames(),
                  node.totalFrames());
        EXPECT_EQ(node.usedFrames(), held[0].size() + held[1].size());
        for (OwnerId o = 0; o < 2; ++o) {
            EXPECT_EQ(node.framesOwnedBy(firstVmOwner + o), held[o].size());
            for (Mfn mfn : held[o])
                EXPECT_EQ(node.frameOwner(mfn), firstVmOwner + o);
        }
    };
    // Grow, shrink from the middle, regrow past the fresh cursor, then
    // drain the node entirely and give everything back.
    for (std::uint64_t round = 0; round < 6; ++round) {
        const OwnerId o = round % 2;
        for (Mfn mfn : allocUpTo(node, firstVmOwner + o, 50 + 7 * round))
            held[o].push_back(mfn);
        check();
        for (std::size_t i = 1; i < held[o].size(); i += 3)
            node.freeFrame(held[o][i]);
        std::vector<Mfn> kept;
        for (std::size_t i = 0; i < held[o].size(); ++i) {
            if (i % 3 != 1)
                kept.push_back(held[o][i]);
        }
        held[o] = kept;
        check();
    }
    for (Mfn mfn : allocUpTo(node, firstVmOwner, 1000))
        held[0].push_back(mfn);
    check();
    EXPECT_EQ(node.freeFrames(), 0u);
    for (auto &frames : held) {
        for (Mfn mfn : frames)
            node.freeFrame(mfn);
        frames.clear();
    }
    check();
    EXPECT_EQ(node.freeFrames(), node.totalFrames());
}

TEST(MachineMemory, MfnRangesAreDisjointAndRoutable)
{
    MachineMemory mm;
    mm.addNode(MemType::FastMem, dramSpec(mib));
    mm.addNode(MemType::SlowMem, dramSpec(2 * mib));
    auto &fast = mm.node(0);
    auto &slow = mm.node(1);
    EXPECT_EQ(slow.mfnBase(), fast.mfnBase() + fast.totalFrames());

    auto f = fast.allocFrame(firstVmOwner);
    auto s = slow.allocFrame(firstVmOwner);
    ASSERT_TRUE(f && s);
    EXPECT_EQ(&mm.nodeOfMfn(*f), &fast);
    EXPECT_EQ(&mm.nodeOfMfn(*s), &slow);
}

TEST(MachineMemory, TypeLookup)
{
    MachineMemory mm;
    mm.addNode(MemType::FastMem, dramSpec(mib));
    EXPECT_TRUE(mm.hasType(MemType::FastMem));
    EXPECT_FALSE(mm.hasType(MemType::SlowMem));
    EXPECT_EQ(mm.nodeByType(MemType::FastMem).nodeId(), 0u);
}

TEST(MachineNode, DoubleFreePanics)
{
    MachineMemory mm;
    mm.addNode(MemType::FastMem, dramSpec(mib));
    auto &node = mm.node(0);
    auto f = node.allocFrame(firstVmOwner);
    node.freeFrame(*f);
    EXPECT_DEATH(node.freeFrame(*f), "double free");
}

} // namespace
