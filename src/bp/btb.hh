/**
 * @file
 * Branch target buffer and return address stack.
 */

#ifndef CDFSIM_BP_BTB_HH
#define CDFSIM_BP_BTB_HH

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "common/serialize.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace cdfsim::bp
{

/** Direct-mapped tagged branch target buffer. */
class Btb
{
  public:
    Btb(std::size_t entries, StatRegistry &stats)
        : entries_(entries),
          hits_(stats.counter("btb.hits")),
          misses_(stats.counter("btb.misses"))
    {
        SIM_ASSERT(entries > 0, "BTB needs entries");
    }

    /** Look up the taken target for the branch at @p pc. */
    std::optional<Addr>
    lookup(Addr pc)
    {
        const Entry &e = entries_[pc % entries_.size()];
        if (e.valid && e.tag == pc) {
            ++hits_;
            return e.target;
        }
        ++misses_;
        return std::nullopt;
    }

    /** Install/refresh the mapping pc -> target. */
    void
    update(Addr pc, Addr target)
    {
        Entry &e = entries_[pc % entries_.size()];
        e.valid = true;
        e.tag = pc;
        e.target = target;
    }

    /** Snapshot all entries (capacity is config-fixed). */
    template <typename Ar>
    void
    fields(Ar &ar)
    {
        for (Entry &e : entries_)
            ar(e.valid, e.tag, e.target);
    }

  private:
    struct Entry
    {
        bool valid = false;
        Addr tag = 0;
        Addr target = 0;
    };

    SIM_SNAPSHOT_FIELDS(3);

    std::vector<Entry> entries_;
    std::uint64_t &hits_;
    std::uint64_t &misses_;
};

/** Inline capacity of the return address stack. Snapshots copy the
 *  whole stack, so the bound keeps every branch checkpoint a flat,
 *  allocation-free value. */
inline constexpr std::size_t kMaxRasDepth = 32;

/**
 * Return address stack. Fetch pushes on Call and pops on Ret; the
 * whole stack is checkpointed per in-flight branch (it is small) so
 * recovery is exact.
 */
class Ras
{
  public:
    explicit Ras(std::size_t depth) : depth_(depth)
    {
        if (depth == 0 || depth > kMaxRasDepth) {
            fatal("RAS depth ", depth, " is outside 1..", kMaxRasDepth,
                  " (the inline RAS capacity)");
        }
    }

    void
    push(Addr returnPc)
    {
        stack_[top_] = returnPc;
        top_ = (top_ + 1) % depth_;
        if (size_ < depth_)
            ++size_;
    }

    /** Pop the predicted return target; empty stacks predict 0. */
    Addr
    pop()
    {
        if (size_ == 0)
            return 0;
        top_ = (top_ + depth_ - 1) % depth_;
        --size_;
        return stack_[top_];
    }

    /** Exact full-stack copy for checkpointing. Fixed-size, so a
     *  checkpoint never touches the heap. Default-constructed
     *  instances sit idle inside BpCheckpoint holders that still get
     *  serialized verbatim, so every field defaults to zero —
     *  uninitialized bytes here would leak into checkpoint payloads
     *  and break on-disk determinism. Entries at or beyond the
     *  configured depth are always zero. */
    struct Snapshot
    {
        std::array<Addr, kMaxRasDepth> stack{};
        std::size_t top = 0;
        std::size_t size = 0;

        template <typename Ar>
        void
        fields(Ar &ar)
        {
            ar(stack, top, size);
        }

        SIM_SNAPSHOT_FIELDS(3);
    };

    Snapshot snapshot() const { return {stack_, top_, size_}; }

    void
    restore(const Snapshot &s)
    {
        stack_ = s.stack;
        top_ = s.top;
        size_ = s.size;
    }

    /** Snapshot the live stack (depth is config-fixed). */
    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(std::span(stack_.data(), depth_), top_, size_);
    }

  private:
    SIM_SNAPSHOT_FIELDS(4);

    std::array<Addr, kMaxRasDepth> stack_{};
    std::size_t depth_;
    std::size_t top_ = 0;
    std::size_t size_ = 0;
};

} // namespace cdfsim::bp

#endif // CDFSIM_BP_BTB_HH
