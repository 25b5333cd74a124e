#include "guestos/page.hh"

#include <algorithm>
#include <bit>

namespace hos::guestos {

namespace {

std::uint64_t
totalPages(const std::vector<PageArray::NodeSpan> &layout)
{
    std::uint64_t n = 0;
    for (const auto &span : layout)
        n += span.pages;
    return n;
}

} // namespace

PageArray::PageArray(std::uint64_t num_pages)
    : PageArray(std::vector<NodeSpan>{{num_pages, mem::MemType::SlowMem}})
{
}

PageArray::PageArray(const std::vector<NodeSpan> &layout)
    : size_(totalPages(layout)), pte_accessed_((size_ + 63) >> 6, 0),
      allocated_((size_ + 63) >> 6, 0), populated_((size_ + 63) >> 6, 0),
      heat_(size_, 0), last_touch_(size_, 0), rmap_(size_)
{
    // A push_back loop from a local: a fill from a reference
    // (insert/resize) copies about 3x slower, as the source may alias.
    meta_.reserve(size_);
    for (std::size_t id = 0; id < layout.size(); ++id) {
        Meta proto;
        proto.numa_node = static_cast<std::uint8_t>(id);
        proto.mem_type = layout[id].type;
        for (std::uint64_t i = 0; i < layout[id].pages; ++i)
            meta_.push_back(proto);
    }
    // Id 0 is reserved for "not on any list".
    list_tags_.push_back(listNone);
}

ListId
PageArray::registerList(ListTag tag)
{
    hos_assert(list_tags_.size() < 0xffffu, "list-id space exhausted");
    list_tags_.push_back(tag);
    return static_cast<ListId>(list_tags_.size() - 1);
}

std::uint64_t
PageArray::freeRunLength(Gpfn from, std::uint64_t max) const
{
    const Gpfn end = std::min<Gpfn>(size_, from + max);
    if (from >= end)
        return 0;
    // First word: ignore bits below `from`.
    Gpfn pfn = from;
    std::uint64_t word =
        allocated_[pfn >> 6] & (~std::uint64_t(0) << (pfn & 63));
    while (word == 0) {
        pfn = (pfn | 63) + 1; // next word boundary
        if (pfn >= end)
            return end - from;
        word = allocated_[pfn >> 6];
    }
    const Gpfn first_set =
        (pfn & ~Gpfn(63)) + static_cast<unsigned>(std::countr_zero(word));
    return std::min<Gpfn>(first_set, end) - from;
}

void
PageArray::markPopulated(Gpfn pfn, std::uint64_t n)
{
    hos_assert(pfn + n <= size_, "gpfn range out of bounds");
    for (const Gpfn end = pfn + n; pfn < end;) {
        const unsigned lo = pfn & 63;
        const std::uint64_t bits =
            std::min<std::uint64_t>(64 - lo, end - pfn);
        const std::uint64_t ones =
            bits == 64 ? ~std::uint64_t(0) : (std::uint64_t(1) << bits) - 1;
        populated_[pfn >> 6] |= ones << lo;
        pfn += bits;
    }
}

std::uint32_t
PageArray::allocatedInChunk(std::uint64_t c) const
{
    // chunkShift >= 6, so chunks are whole bitmap words; the trailing
    // partial word of the array is zero-padded past size_.
    const std::uint64_t lo_word = (c << chunkShift) >> 6;
    const std::uint64_t hi_word = std::min<std::uint64_t>(
        allocated_.size(), ((c + 1) << chunkShift) >> 6);
    std::uint32_t n = 0;
    for (std::uint64_t w = lo_word; w < hi_word; ++w)
        n += static_cast<std::uint32_t>(std::popcount(allocated_[w]));
    return n;
}

} // namespace hos::guestos
