/**
 * @file
 * Slab allocator with a free list for in-flight µ-op records.
 *
 * The pipeline allocates one Uop per fetched µ-op and frees it when it
 * commits, is squashed or is absorbed into a fused head — millions of
 * times per run. The pool hands out slots from 256-entry slabs and
 * recycles released slots LIFO, so the working set is a few
 * cache-resident slabs, no allocator round-trip is paid per µ-op, and
 * a recycled Uop even keeps the heap capacity of its two dependency
 * vectors.
 *
 * Recycling must be *exact*: a recycled slot is reset to
 * freshly-constructed state (Uop::recycle()), so pooled and
 * heap-per-µ-op runs are bit-identical. CoreParams::poolRecycling ==
 * false selects a debug fallback that never reuses slots — every
 * alloc() gets a pristine slab entry — so a suspected recycling bug
 * can be bisected by diffing the two modes (see
 * tests/test_perf_structures.cc).
 */

#ifndef UARCH_UOP_POOL_HH
#define UARCH_UOP_POOL_HH

#include <memory>
#include <vector>

#include "uarch/uop.hh"

namespace helios
{

class UopPool
{
  public:
    explicit UopPool(bool recycle = true) : recycleMode(recycle) {}

    Uop *
    alloc()
    {
        if (!freeList.empty()) {
            Uop *uop = freeList.back();
            freeList.pop_back();
            uop->recycle();
            return uop;
        }
        if (slabs.empty() || slabUsed == slabSize) {
            slabs.push_back(std::make_unique<Uop[]>(slabSize));
            slabUsed = 0;
        }
        return &slabs.back()[slabUsed++];
    }

    void
    release(Uop *uop)
    {
        if (recycleMode)
            freeList.push_back(uop);
        // Debug fallback: leave the slot dead. The next alloc() draws
        // a pristine slab entry, so a recycling bug cannot couple two
        // µ-ops' state; the slabs still free wholesale with the pool.
    }

    size_t numSlabs() const { return slabs.size(); }
    bool recycling() const { return recycleMode; }

    static constexpr size_t slabSize = 256;

  private:
    std::vector<std::unique_ptr<Uop[]>> slabs;
    std::vector<Uop *> freeList;
    size_t slabUsed = 0;
    bool recycleMode;
};

} // namespace helios

#endif // UARCH_UOP_POOL_HH
