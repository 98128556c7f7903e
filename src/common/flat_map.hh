/**
 * @file
 * Open-addressing hash map for integer keys on simulator hot paths.
 */

#ifndef CDFSIM_COMMON_FLAT_MAP_HH
#define CDFSIM_COMMON_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/audit.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/serialize.hh"

namespace cdfsim
{

/**
 * Linear probing over a power-of-two table with splitmix64-mixed
 * keys and backward-shift deletion (no tombstones, so lookups never
 * degrade after heavy erase traffic). One key value is reserved as
 * the empty sentinel. Replaces std::unordered_map where the per-node
 * allocation and pointer chasing dominate: probe sequences here are
 * contiguous and the table is reused allocation-free after warmup.
 */
template <typename K, typename V>
class FlatMap
{
  public:
    explicit FlatMap(K emptyKey, std::size_t minCapacity = 16)
        : empty_(emptyKey)
    {
        std::size_t cap = 16;
        while (cap < minCapacity)
            cap <<= 1;
        slots_.assign(cap, Slot{empty_, V{}});
        mask_ = cap - 1;
    }

    V *find(K key)
    {
        std::size_t i = home(key);
        while (slots_[i].key != empty_) {
            if (slots_[i].key == key)
                return &slots_[i].val;
            i = (i + 1) & mask_;
        }
        return nullptr;
    }

    const V *find(K key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    /** Value for @p key, default-constructed and inserted if absent. */
    V &operator[](K key)
    {
        SIM_ASSERT(key != empty_, "inserting the sentinel key");
        if ((size_ + 1) * 4 > slots_.size() * 3)
            rehash(slots_.size() * 2);
        std::size_t i = home(key);
        while (slots_[i].key != empty_) {
            if (slots_[i].key == key)
                return slots_[i].val;
            i = (i + 1) & mask_;
        }
        slots_[i].key = key;
        slots_[i].val = V{};
        ++size_;
        SIM_AUDIT_ONLY(if (auditTick_.due()) auditInvariants();)
        return slots_[i].val;
    }

    bool erase(K key)
    {
        std::size_t i = home(key);
        while (true) {
            if (slots_[i].key == empty_)
                return false;
            if (slots_[i].key == key)
                break;
            i = (i + 1) & mask_;
        }
        // Backward-shift deletion: pull each displaced follower into
        // the hole when its own probe path covers the hole.
        std::size_t hole = i;
        std::size_t j = i;
        while (true) {
            j = (j + 1) & mask_;
            if (slots_[j].key == empty_)
                break;
            const std::size_t h = home(slots_[j].key);
            if (((j - h) & mask_) >= ((j - hole) & mask_)) {
                slots_[hole] = slots_[j];
                hole = j;
            }
        }
        slots_[hole].key = empty_;
        slots_[hole].val = V{};
        SIM_ASSERT(size_ > 0, "erase with a zero size count");
        --size_;
        SIM_AUDIT_ONLY(if (auditTick_.due()) auditInvariants();)
        return true;
    }

    void clear()
    {
        if (size_ == 0)
            return;
        for (Slot &s : slots_)
            s = Slot{empty_, V{}};
        size_ = 0;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /**
     * Probe-chain integrity walk. For every occupied slot, the
     * linear-probe path from the key's home slot must reach it
     * without crossing an empty slot (otherwise find() would miss a
     * present key — the failure mode of a buggy backward-shift
     * delete), and the occupied count must match size_. O(capacity *
     * probe length); sampled from the mutators in Audit builds.
     */
    void auditInvariants() const
    {
        std::size_t occupied = 0;
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            if (slots_[i].key == empty_)
                continue;
            ++occupied;
            for (std::size_t j = home(slots_[i].key); j != i;
                 j = (j + 1) & mask_) {
                SIM_ASSERT(slots_[j].key != empty_,
                           "flat map probe chain broken: key in slot ",
                           i, " is unreachable past empty slot ", j);
            }
        }
        SIM_ASSERT(occupied == size_,
                   "flat map size count out of sync: ", occupied,
                   " occupied slots vs size ", size_);
    }

    /**
     * Serialize the table slot-verbatim (capacity plus every slot,
     * occupied or empty) so the restored map reproduces the exact
     * probe layout — including displacement left by past erases —
     * rather than a rehashed equivalent. @p elem visits one value.
     */
    template <typename Ar, typename Elem = VisitField>
    void
    fields(Ar &ar, Elem elem = Elem{})
    {
        std::uint64_t capacity = slots_.size();
        ar(capacity);
        SIM_ASSERT(!Ar::kLoading ||
                       (capacity >= 16 &&
                        (capacity & (capacity - 1)) == 0),
                   "snapshot FlatMap capacity not a power of two");
        ar(size_);
        if constexpr (Ar::kLoading) {
            slots_.resize(static_cast<std::size_t>(capacity));
            mask_ = static_cast<std::size_t>(capacity) - 1;
        }
        for (Slot &s : slots_) {
            ar(as<std::uint64_t>(s.key));
            elem(ar, s.val);
        }
        ar(auditTick_);
        SIM_AUDIT_ONLY(if constexpr (Ar::kLoading) auditInvariants();)
    }

  private:
    friend struct AuditPeer;
    struct Slot
    {
        K key;
        V val;
    };

    std::size_t home(K key) const
    {
        return static_cast<std::size_t>(
                   mix64(static_cast<std::uint64_t>(key))) &
               mask_;
    }

    void rehash(std::size_t newCap)
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(newCap, Slot{empty_, V{}});
        mask_ = newCap - 1;
        size_ = 0;
        for (const Slot &s : old) {
            if (s.key != empty_)
                (*this)[s.key] = s.val;
        }
    }

    SIM_SNAPSHOT_FIELDS(5);

    K empty_;
    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
    AuditSampler auditTick_{1024};
};

} // namespace cdfsim

#endif // CDFSIM_COMMON_FLAT_MAP_HH
