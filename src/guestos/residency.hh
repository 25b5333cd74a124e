/**
 * @file
 * ResidencyIndex: incremental per-region per-tier residency accounting.
 *
 * Re-deriving tier placement every phase — probe up to 512 region
 * indices, chase each index through the (possibly stale) cached gpfn,
 * the page descriptor, and the backing oracle — would be pure waste:
 * the allocator, migration front-end/engine, ballooning, and swap
 * paths already know every placement change at the instant it
 * happens (the same transition points hos::check's page-state
 * validators instrument).
 *
 * This index turns those transitions into O(1) updates of per-region
 * state so the per-phase pipeline reads placement instead of
 * re-deriving it:
 *
 *  - `bound[idx]` — the gpfn currently backing region index `idx`
 *    (binding invariant below), so `Workload::regionPage` is one
 *    vector read instead of descriptor checks + page-table walks.
 *  - one bit per index — whether that binding is FastMem-backed —
 *    plus a running `fast_total`, so `sampleFastFraction` windows are
 *    answered by masked popcounts (exhaustive windows) or single bit
 *    probes (sparse sampling), exactly as per-index probes would.
 *
 * Binding invariant: index `idx` of a region at `vma_start`
 * corresponds to va = vma_start + idx*pageSize. The binding is the
 * gpfn a lazy refresh would find: the cached gpfn while its
 * descriptor still maps (process, va), else the page table's
 * translation. When that va is remapped (migration, demotion), the
 * binding is re-pointed eagerly via onRemap(). When the va is
 * *unmapped* (balloon swap-out), the binding deliberately keeps the
 * stale gpfn — a translate() of an unmapped va fails, so the lazy
 * refresh would keep the cached gpfn too, and no refault path
 * re-populates the va before the region is released. Eager rebind is
 * therefore observationally identical to a lazy refresh: nothing
 * reads a binding between a transition and its next use.
 *
 * Tier state per binding comes from GuestKernel::backingOf. In
 * identity mode (no backing oracle) a binding's tier is fixed by its
 * gpfn, so remap hooks alone keep the bits exact. Under a
 * VMM-exclusive oracle the *same gpfn* changes tier behind the
 * guest's back (P2M retarget); enableTierNotifications() builds a
 * gpfn -> (region, idx) reverse map so P2M change hooks can flip bits
 * via onTierChange().
 *
 * check::auditResidency re-derives every binding and bit from first
 * principles (the lazy refresh above plus the backing oracle, for
 * every index) and is wired into the full-level audits.
 */

#ifndef HOS_GUESTOS_RESIDENCY_HH
#define HOS_GUESTOS_RESIDENCY_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "guestos/page.hh"
#include "sim/log.hh"

namespace hos::guestos {

class GuestKernel;

/** Handle naming a registered region (index into the region table). */
using RegionHandle = std::uint32_t;
constexpr RegionHandle invalidRegionHandle = ~RegionHandle(0);

class ResidencyIndex
{
  public:
    explicit ResidencyIndex(GuestKernel &kernel) : kernel_(kernel) {}

    // --- Registration ---------------------------------------------
    /** Register an (empty) anon region; pages arrive via appendPage. */
    RegionHandle registerRegion(ProcessId pid, std::uint64_t vma_start);

    /** Drop a region (munmap'd); its handle may be recycled. */
    void unregisterRegion(RegionHandle h);

    /** Region index bound.size() is now backed by `pfn`. */
    void appendPage(RegionHandle h, Gpfn pfn);

    // --- Transition hooks -----------------------------------------
    /**
     * va of process `pid` was remapped to `new_pfn` (migration,
     * demotion). No-op when no registered region covers the va.
     */
    void onRemap(ProcessId pid, std::uint64_t vaddr, Gpfn new_pfn);

    /**
     * The effective backing tier of `pfn` changed (P2M set/clear
     * under a VMM-exclusive oracle). Only meaningful after
     * enableTierNotifications().
     */
    void onTierChange(Gpfn pfn, mem::MemType effective);

    /**
     * Build and maintain the gpfn -> (region, idx) reverse map so
     * onTierChange can find affected bindings. Called by policies
     * that install a backing oracle.
     */
    void enableTierNotifications();
    bool tierNotificationsEnabled() const { return tier_notify_; }

    // --- Queries ---------------------------------------------------
    std::uint64_t pageCount(RegionHandle h) const
    {
        return rec(h).bound.size();
    }

    /** The gpfn bound to region index `idx` (see binding invariant). */
    Gpfn binding(RegionHandle h, std::uint64_t idx) const
    {
        const RegionRec &r = rec(h);
        hos_assert(idx < r.bound.size(), "residency index out of range");
        return r.bound[idx];
    }

    /** True when index `idx`'s binding is FastMem-backed. */
    bool fastBit(RegionHandle h, std::uint64_t idx) const
    {
        const RegionRec &r = rec(h);
        hos_assert(idx < r.bound.size(), "residency index out of range");
        return (r.bits[idx >> 6] >> (idx & 63)) & 1;
    }

    /** FastMem-backed count over the whole region. */
    std::uint64_t fastTotal(RegionHandle h) const
    {
        return rec(h).fast_total;
    }

    /**
     * FastMem-backed count over the circular window of `count`
     * indices starting at `start` (start < pageCount, count <=
     * pageCount). Masked popcounts, O(count/64).
     */
    std::uint64_t fastInRange(RegionHandle h, std::uint64_t start,
                              std::uint64_t count) const;

    // --- Audit access ----------------------------------------------
    std::size_t regionTableSize() const { return regions_.size(); }
    bool regionLive(RegionHandle h) const
    {
        return h < regions_.size() && regions_[h].live;
    }
    ProcessId regionPid(RegionHandle h) const { return rec(h).pid; }
    std::uint64_t regionVmaStart(RegionHandle h) const
    {
        return rec(h).vma_start;
    }

  private:
    struct RegionRec
    {
        ProcessId pid = noProcess;
        std::uint64_t vma_start = 0;
        bool live = false;
        std::vector<Gpfn> bound;          ///< gpfn per region index
        std::vector<std::uint64_t> bits;  ///< FastMem bit per index
        std::uint64_t fast_total = 0;
    };

    const RegionRec &rec(RegionHandle h) const
    {
        hos_assert(h < regions_.size() && regions_[h].live,
                   "bad residency region handle");
        return regions_[h];
    }
    RegionRec &rec(RegionHandle h)
    {
        hos_assert(h < regions_.size() && regions_[h].live,
                   "bad residency region handle");
        return regions_[h];
    }

    void setBit(RegionRec &r, std::uint64_t idx, bool fast);
    void observe(RegionHandle h, std::uint64_t idx, Gpfn pfn);
    void unobserve(RegionHandle h, std::uint64_t idx, Gpfn pfn);

    GuestKernel &kernel_;
    std::vector<RegionRec> regions_;
    std::vector<RegionHandle> free_handles_;
    /** Live region handles per process (onRemap lookup). */
    std::unordered_map<ProcessId, std::vector<RegionHandle>> by_pid_;
    /** gpfn -> bindings, maintained only when tier_notify_. */
    std::unordered_multimap<Gpfn, std::pair<RegionHandle, std::uint32_t>>
        observers_;
    bool tier_notify_ = false;
};

} // namespace hos::guestos

#endif // HOS_GUESTOS_RESIDENCY_HH
