/**
 * @file
 * Guest -> VMM interface (the hypercall surface the guest sees).
 *
 * The on-demand allocation driver is a split front-end/back-end pair
 * (Figure 5): the guest front-end asks the back-end to populate or
 * unpopulate guest page frames of a specific memory node. Defining
 * the back-end as an abstract interface here keeps the guest OS
 * library free of VMM dependencies; hos::vmm::Vmm implements it.
 */

#ifndef HOS_GUESTOS_HYPERCALLS_HH
#define HOS_GUESTOS_HYPERCALLS_HH

#include <cstdint>
#include <vector>

#include "guestos/page.hh"

namespace hos::guestos {

/**
 * Read-only view of gpfns offered to the back-end for population.
 *
 * The guest's unpopulated stack keeps its top window lazily reversed
 * (see GuestKernel::commitUnpopulatedGpfns); this view resolves that
 * indexing without materializing a vector per hypercall. Index 0 is
 * the first gpfn to populate; grants must be strict prefixes.
 */
class UnpopulatedView
{
  public:
    UnpopulatedView() = default;
    UnpopulatedView(const Gpfn *stack, std::uint64_t stack_size,
                    std::uint64_t reversed, std::uint64_t n)
        : stack_(stack), stack_size_(stack_size), reversed_(reversed),
          n_(n)
    {
    }

    std::uint64_t size() const { return n_; }
    bool empty() const { return n_ == 0; }
    Gpfn operator[](std::uint64_t i) const
    {
        return i < reversed_ ? stack_[stack_size_ - reversed_ + i]
                             : stack_[stack_size_ - 1 - i];
    }

  private:
    const Gpfn *stack_ = nullptr;
    std::uint64_t stack_size_ = 0; ///< entries in the backing stack
    std::uint64_t reversed_ = 0;   ///< top entries stored reversed
    std::uint64_t n_ = 0;          ///< entries this view exposes
};

/** The VMM side of the on-demand allocation (balloon) channel. */
class BalloonBackendIf
{
  public:
    virtual ~BalloonBackendIf() = default;

    /**
     * Back `gpfns` of guest node `guest_node` with machine frames of
     * the matching memory type. Returns how many were populated (a
     * prefix of the list); fewer than requested means the VMM is out
     * of that memory type or the fair-share policy said no.
     */
    virtual std::uint64_t
    populatePages(unsigned guest_node, const UnpopulatedView &gpfns) = 0;

    /** Release the machine frames backing `gpfns` back to the VMM. */
    virtual void
    unpopulatePages(unsigned guest_node,
                    const std::vector<Gpfn> &gpfns) = 0;
};

} // namespace hos::guestos

#endif // HOS_GUESTOS_HYPERCALLS_HH
