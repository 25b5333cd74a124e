#include "guestos/buddy_allocator.hh"

#include <algorithm>

namespace hos::guestos {

BuddyAllocator::BuddyAllocator(PageArray &pages, Gpfn base,
                               std::uint64_t span_pages)
    : pages_(pages), base_(base), span_pages_(span_pages)
{
    free_area_.reserve(maxOrder);
    for (unsigned o = 0; o < maxOrder; ++o)
        free_area_.emplace_back(pages_, listBuddy);
}

Gpfn
BuddyAllocator::buddyOf(Gpfn pfn, unsigned order) const
{
    const std::uint64_t off = pfn - base_;
    return base_ + (off ^ (1ull << order));
}

bool
BuddyAllocator::blockInRange(Gpfn pfn, unsigned order) const
{
    return pfn >= base_ && pfn + (1ull << order) <= base_ + span_pages_;
}

void
BuddyAllocator::insertBlock(Gpfn pfn, unsigned order)
{
    PageRef head = pages_.page(pfn);
    head.setInBuddy(true);
    head.setBuddyOrder(static_cast<std::uint8_t>(order));
    // FIFO free lists: allocation proceeds from the lowest addresses
    // donated first (boot memory is handed out bottom-up, as real
    // kernels do), which matters when the VMM backs a guest's frames
    // tier-by-tier in address order.
    free_area_[order].pushBack(pfn);
    free_pages_ += 1ull << order;
}

void
BuddyAllocator::removeBlock(Gpfn pfn, unsigned order)
{
    PageRef head = pages_.page(pfn);
    hos_assert(head.in_buddy() && head.buddy_order() == order,
               "block %llu not free at order %u",
               static_cast<unsigned long long>(pfn), order);
    free_area_[order].remove(pfn);
    head.setInBuddy(false);
    free_pages_ -= 1ull << order;
}

void
BuddyAllocator::addFreeRange(Gpfn pfn, std::uint64_t count)
{
    hos_assert(pfn >= base_ && pfn + count <= base_ + span_pages_,
               "range outside allocator span");
    for (std::uint64_t i = 0; i < count; ++i) {
        PageRef p = pages_.page(pfn + i);
        p.setInBuddy(false);
        resetFreed(p);
    }
    managed_pages_ += count;
    // Carve into maximal blocks that are both aligned (relative to
    // base) and fit in the remaining count, then insert them one by
    // one so coalescing with already-free neighbours happens naturally.
    while (count > 0) {
        unsigned order = maxOrder - 1;
        while (order > 0 &&
               (((pfn - base_) & ((1ull << order) - 1)) != 0 ||
                (1ull << order) > count)) {
            --order;
        }
        coalesceInsert(pfn, order);
        pfn += 1ull << order;
        count -= 1ull << order;
    }
}

Gpfn
BuddyAllocator::alloc(unsigned order)
{
    hos_assert(order < maxOrder, "order %u too large", order);
    unsigned o = order;
    while (o < maxOrder && free_area_[o].empty())
        ++o;
    if (o == maxOrder)
        return invalidGpfn;

    const Gpfn pfn = free_area_[o].head();
    removeBlock(pfn, o);

    // Split down, returning upper halves to the free lists.
    while (o > order) {
        --o;
        insertBlock(pfn + (1ull << o), o);
    }

    for (std::uint64_t i = 0; i < (1ull << order); ++i) {
        PageRef p = pages_.page(pfn + i);
        hos_assert(!p.allocated(), "allocating an allocated page");
        pages_.setAllocated(p, true);
        p.setInBuddy(false);
    }
    return pfn;
}

void
BuddyAllocator::free(Gpfn pfn, unsigned order)
{
    hos_assert(order < maxOrder, "order %u too large", order);
    hos_assert(blockInRange(pfn, order), "freeing block outside range");
    hos_assert((pfn - base_) % (1ull << order) == 0,
               "freeing misaligned block");

    for (std::uint64_t i = 0; i < (1ull << order); ++i) {
        PageRef p = pages_.page(pfn + i);
        hos_assert(p.allocated(), "double free of page %llu",
                   static_cast<unsigned long long>(pfn + i));
        hos_assert(!p.in_buddy(), "freeing a page still in buddy");
        resetFreed(p);
    }
    coalesceInsert(pfn, order);
}

void
BuddyAllocator::resetFreed(PageRef p)
{
    pages_.setAllocated(p, false);
    p.setType(PageType::Free);
    p.setDirty(false);
    p.setReferenced(false);
    p.setPteAccessed(false);
    p.setHeat(0); // a recycled frame is not the hot page it backed
    p.setOwnerProcess(noProcess);
}

void
BuddyAllocator::coalesceInsert(Gpfn pfn, unsigned order)
{
    // Coalesce upward while the buddy block is free at the same order.
    while (order + 1 < maxOrder) {
        const Gpfn buddy = buddyOf(pfn, order);
        if (!blockInRange(buddy, order))
            break;
        const PageRef bp = pages_.page(buddy);
        if (!bp.in_buddy() || bp.buddy_order() != order)
            break;
        removeBlock(buddy, order);
        pfn = std::min(pfn, buddy);
        ++order;
    }
    insertBlock(pfn, order);
}

Gpfn
BuddyAllocator::removeFreePage()
{
    for (unsigned o = 0; o < maxOrder; ++o) {
        if (free_area_[o].empty())
            continue;
        const Gpfn pfn = free_area_[o].head();
        removeBlock(pfn, o);
        // Return all but the first page to the free lists.
        for (unsigned s = 0; s < o; ++s)
            insertBlock(pfn + (1ull << s), s);
        PageRef p = pages_.page(pfn);
        pages_.setAllocated(p, false);
        p.setInBuddy(false);
        hos_assert(managed_pages_ > 0, "removing from empty allocator");
        --managed_pages_;
        return pfn;
    }
    return invalidGpfn;
}

std::uint64_t
BuddyAllocator::freeBlocks(unsigned order) const
{
    hos_assert(order < maxOrder, "order %u too large", order);
    return free_area_[order].size();
}

void
BuddyAllocator::checkInvariants() const
{
    std::uint64_t counted = 0;
    for (unsigned o = 0; o < maxOrder; ++o) {
        Gpfn pfn = free_area_[o].head();
        while (pfn != invalidGpfn) {
            const PageRef p = pages_.page(pfn);
            hos_assert(p.in_buddy() && p.buddy_order() == o,
                       "free-list page with wrong order");
            hos_assert((pfn - base_) % (1ull << o) == 0,
                       "misaligned free block");
            for (std::uint64_t i = 0; i < (1ull << o); ++i) {
                hos_assert(!pages_.page(pfn + i).allocated(),
                           "allocated page inside a free block");
            }
            counted += 1ull << o;
            pfn = p.link_next();
        }
    }
    hos_assert(counted == free_pages_, "free page accounting drift");
}

} // namespace hos::guestos
