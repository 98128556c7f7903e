/**
 * @file
 * Chunked object pool with a LIFO freelist and stable addresses.
 */

#ifndef CDFSIM_COMMON_POOL_HH
#define CDFSIM_COMMON_POOL_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "common/audit.hh"
#include "common/logging.hh"
#include "common/serialize.hh"

namespace cdfsim
{

/**
 * Objects live in fixed-size slabs that are never moved or released,
 * so pointers stay valid for an object's whole lifetime and slots can
 * be handed out as compact 32-bit handles. allocate() constructs a
 * fresh T in a recycled slot — after a slab is warm there is no heap
 * traffic at all. A T with a non-trivial default constructor (every
 * field has an initializer) is default-initialized, so the slot is
 * written once, field by field, instead of zero-filled first; a
 * trivially constructible T is value-initialized (zeroed). alive()
 * answers whether a handle currently names a live object, which lets
 * deferred references (e.g. wakeup lists) validate a stale handle
 * before dereferencing.
 */
template <typename T>
class SlabPool
{
  public:
    /** @p slabSize must be a power of two: handles split into slab
     *  and slot with a shift and a mask, never a division. */
    explicit SlabPool(std::uint32_t slabSize = 1024)
        : slabSize_(slabSize),
          slabShift_(static_cast<unsigned>(std::countr_zero(slabSize)))
    {
        SIM_ASSERT(std::has_single_bit(slabSize_),
                   "slab size ", slabSize_, " is not a power of two");
    }

    SlabPool(const SlabPool &) = delete;
    SlabPool &operator=(const SlabPool &) = delete;

    ~SlabPool()
    {
        for (std::uint32_t i = 0; i < alive_.size(); ++i) {
            if (alive_[i])
                at(i).~T();
        }
    }

    /** Construct a fresh T (see the class comment); returns its
     *  handle. */
    std::uint32_t allocate()
    {
        if (freeList_.empty())
            grow();
        const std::uint32_t idx = freeList_.back();
        freeList_.pop_back();
        SIM_ASSERT(!alive_[idx], "allocating a slot that is already live");
        construct(idx);
        alive_[idx] = 1;
        ++live_;
        SIM_AUDIT_ONLY(if (auditTick_.due()) auditInvariants();)
        return idx;
    }

    /** Destroy the object at @p idx and recycle its slot. */
    void free(std::uint32_t idx)
    {
        SIM_ASSERT(idx < alive_.size() && alive_[idx],
                   "freeing a dead pool slot");
        at(idx).~T();
        alive_[idx] = 0;
        freeList_.push_back(idx);
        --live_;
        SIM_AUDIT_ONLY(if (auditTick_.due()) auditInvariants();)
    }

    T &at(std::uint32_t idx)
    {
        return *std::launder(reinterpret_cast<T *>(slotPtr(idx)));
    }

    const T &at(std::uint32_t idx) const
    {
        return *std::launder(
            reinterpret_cast<const T *>(slotPtr(idx)));
    }

    bool alive(std::uint32_t idx) const
    {
        return idx < alive_.size() && alive_[idx];
    }

    std::size_t liveCount() const { return live_; }
    std::size_t capacity() const { return alive_.size(); }

    /**
     * Full liveness/freelist consistency walk. Panics on the first
     * violation: live + free must cover every slot exactly once, the
     * alive bitmap must agree with the live count, and no freelist
     * entry may be live, out of range, or duplicated. O(capacity);
     * hot paths invoke it through a sampler in Audit builds only.
     */
    void auditInvariants() const
    {
        SIM_ASSERT(live_ + freeList_.size() == alive_.size(),
                   "slab pool live/free slot accounting out of sync: ",
                   live_, " live + ", freeList_.size(), " free != ",
                   alive_.size(), " slots");
        std::size_t flagged = 0;
        for (std::uint8_t a : alive_)
            flagged += a;
        SIM_ASSERT(flagged == live_,
                   "slab pool alive bitmap disagrees with live count: ",
                   flagged, " flagged vs ", live_, " counted");
        std::vector<std::uint8_t> seen(alive_.size(), 0);
        for (std::uint32_t idx : freeList_) {
            SIM_ASSERT(idx < alive_.size(),
                       "slab pool free-list entry ", idx,
                       " out of range");
            SIM_ASSERT(!alive_[idx],
                       "slab pool free-list entry ", idx, " is live");
            SIM_ASSERT(!seen[idx],
                       "slab pool free-list entry ", idx, " duplicated");
            seen[idx] = 1;
        }
    }

    /**
     * Serialize the pool so a restored pool reproduces the exact
     * same future handle assignment: slab count, alive bitmap and
     * the freelist are written verbatim (the LIFO order *is* the
     * allocation order), then @p elem visits each live element in
     * ascending handle order. Restore re-constructs those elements
     * in place before @p elem fills them.
     */
    template <typename Ar, typename Elem = VisitField>
    void
    fields(Ar &ar, Elem elem = Elem{})
    {
        std::uint32_t slabSize = slabSize_;
        ar(slabSize);
        SIM_ASSERT(slabSize == slabSize_,
                   "snapshot slab size ", slabSize,
                   " != configured ", slabSize_);
        std::uint64_t capacity = alive_.size();
        ar(capacity);
        SIM_ASSERT(capacity % slabSize_ == 0,
                   "snapshot pool capacity not slab-aligned");
        if constexpr (Ar::kLoading) {
            for (std::uint32_t i = 0; i < alive_.size(); ++i) {
                if (alive_[i])
                    at(i).~T();
            }
            while (slabs_.size() * slabSize_ < capacity)
                slabs_.push_back(std::make_unique<Slot[]>(slabSize_));
            alive_.assign(slabs_.size() * std::uint64_t{slabSize_}, 0);
        }
        ar(std::span(alive_.data(), capacity));

        // Slots beyond the snapshot's capacity exist only when this
        // pool grew after the snapshot was taken. The snapshot pool
        // would re-grow them on demand in ascending slab order, so
        // restore seeds the freelist bottom with exactly the order
        // grow() would produce, then lays the saved freelist
        // verbatim on top (LIFO: the saved entries are consumed
        // first).
        std::vector<std::uint32_t> savedFree;
        ar(sized<std::uint64_t>(Ar::kLoading ? savedFree : freeList_));
        if constexpr (Ar::kLoading) {
            freeList_.clear();
            for (std::uint64_t base = alive_.size(); base > capacity;) {
                base -= slabSize_;
                for (std::uint32_t i = slabSize_; i-- > 0;)
                    freeList_.push_back(
                        static_cast<std::uint32_t>(base + i));
            }
            freeList_.insert(freeList_.end(), savedFree.begin(),
                             savedFree.end());
            live_ = 0;
        }
        for (std::uint32_t i = 0; i < capacity; ++i) {
            if (!alive_[i])
                continue;
            if constexpr (Ar::kLoading) {
                construct(i);
                ++live_;
            }
            elem(ar, at(i));
        }
        ar(auditTick_);
        SIM_AUDIT_ONLY(if constexpr (Ar::kLoading) auditInvariants();)
    }

  private:
    friend struct AuditPeer;
    struct Slot
    {
        alignas(T) unsigned char raw[sizeof(T)];
    };

    void construct(std::uint32_t idx)
    {
        if constexpr (std::is_trivially_default_constructible_v<T>)
            ::new (slotPtr(idx)) T();
        else
            ::new (slotPtr(idx)) T;
    }

    void *slotPtr(std::uint32_t idx)
    {
        return slabs_[idx >> slabShift_][idx & (slabSize_ - 1)].raw;
    }

    const void *slotPtr(std::uint32_t idx) const
    {
        return slabs_[idx >> slabShift_][idx & (slabSize_ - 1)].raw;
    }

    void grow()
    {
        const std::uint32_t base =
            static_cast<std::uint32_t>(slabs_.size()) * slabSize_;
        SIM_ASSERT(base + slabSize_ > base, "pool exhausted");
        slabs_.push_back(std::make_unique<Slot[]>(slabSize_));
        alive_.resize(base + slabSize_, 0);
        // Push in reverse so the LIFO freelist hands out ascending
        // indices within a fresh slab.
        for (std::uint32_t i = slabSize_; i-- > 0;)
            freeList_.push_back(base + i);
    }

    SIM_SNAPSHOT_FIELDS(7);

    std::uint32_t slabSize_;
    unsigned slabShift_; //!< log2(slabSize_)
    std::vector<std::unique_ptr<Slot[]>> slabs_;
    std::vector<std::uint8_t> alive_;
    std::vector<std::uint32_t> freeList_;
    std::size_t live_ = 0;
    AuditSampler auditTick_{4096};
};

} // namespace cdfsim

#endif // CDFSIM_COMMON_POOL_HH
