/**
 * @file
 * Slab allocator with a free list for in-flight µ-op records.
 *
 * The pipeline allocates one Uop per fetched µ-op and frees it when it
 * commits, is squashed or is absorbed into a fused head — millions of
 * times per run. The pool hands out slots from 256-entry slabs and
 * recycles released slots LIFO, so the working set is a few
 * cache-resident slabs and no allocator round-trip is paid per µ-op.
 *
 * Recycling must be *exact*: a recycled slot is reset to
 * freshly-constructed state (Uop::recycle(), one copy of freshUop), so
 * pooled and heap-per-µ-op runs are bit-identical.
 * CoreParams::poolRecycling == false selects a debug fallback that
 * never reuses slots — every alloc() gets a pristine slab entry — so a
 * suspected recycling bug can be bisected by diffing the two modes
 * (see tests/test_perf_structures.cc).
 */

#ifndef UARCH_UOP_POOL_HH
#define UARCH_UOP_POOL_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
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
        if (!slab || slabUsed == slabSize) {
            // Plain storage, aligned by hand: over-aligned operator new
            // splits a chunk around every slab, and with one heap arena
            // per worker thread the splinters raised a four-worker
            // sweep's peak RSS by a quarter.
            std::byte *storage =
                slabs.emplace_back(new std::byte[slabBytes]).get();
            const auto addr = reinterpret_cast<uintptr_t>(storage);
            slab = reinterpret_cast<Uop *>(
                (addr + alignof(Uop) - 1) & ~uintptr_t(alignof(Uop) - 1));
            slabUsed = 0;
        }
        return ::new (slab + slabUsed++) Uop(freshUop);
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
    static constexpr size_t slabBytes =
        slabSize * sizeof(Uop) + alignof(Uop) - 1;

    // A Uop is trivially destructible, so a slab frees as bytes.
    std::vector<std::unique_ptr<std::byte[]>> slabs;
    Uop *slab = nullptr; ///< the newest slab's first µ-op
    std::vector<Uop *> freeList;
    size_t slabUsed = 0;
    bool recycleMode;
};

} // namespace helios

#endif // UARCH_UOP_POOL_HH
