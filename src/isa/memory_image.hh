/**
 * @file
 * Sparse paged data memory for the functional model.
 *
 * Stores 64-bit words keyed by 8-byte-aligned addresses, organized in
 * 4KB pages so that workloads touching hundreds of megabytes of
 * address space stay cheap. Unwritten memory reads as zero.
 *
 * Pages are copy-on-write: copying a MemoryImage copies only the page
 * table, and a shared page is cloned the first time either copy
 * writes to it. That makes the pristine post-init image of a workload
 * shareable across every sweep cell running it, and lets a warmup
 * checkpoint store just the pages the warmup actually dirtied
 * (saveDelta/restoreDelta against the shared pristine base).
 */

#ifndef CDFSIM_ISA_MEMORY_IMAGE_HH
#define CDFSIM_ISA_MEMORY_IMAGE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/serialize.hh"
#include "common/types.hh"

namespace cdfsim::isa
{

/** Flat 64-bit word-addressable sparse memory. */
class MemoryImage
{
  public:
    static constexpr Addr kPageBytes = 4096;
    static constexpr Addr kPageWords = kPageBytes / 8;

    /** Read the 64-bit word containing @p addr (aligned down). */
    std::uint64_t
    read(Addr addr) const
    {
        const Addr w = addr >> 3;
        auto it = pages_.find(w / kPageWords);
        if (it == pages_.end())
            return 0;
        return (*it->second)[w % kPageWords];
    }

    /** Write the 64-bit word containing @p addr (aligned down). */
    void
    write(Addr addr, std::uint64_t value)
    {
        const Addr w = addr >> 3;
        writablePage(w / kPageWords)[w % kPageWords] = value;
    }

    /**
     * Write @p words consecutive words starting at the one containing
     * @p addr, the i-th being the i-th call of @p next(). Same result
     * as write(addr + 8 * i, next()) for i = 0, 1, ... in order, but
     * each page is looked up (and unshared) once.
     */
    template <typename Next>
    void
    writeWords(Addr addr, std::uint64_t words, Next &&next)
    {
        Addr w = addr >> 3;
        const Addr end = w + words;
        while (w < end) {
            Page &page = writablePage(w / kPageWords);
            const Addr pageEnd =
                std::min(end, (w / kPageWords + 1) * kPageWords);
            for (; w < pageEnd; ++w)
                page[w % kPageWords] = next();
        }
    }

    /** Number of resident 4KB pages (for tests / footprint stats). */
    std::size_t residentPages() const { return pages_.size(); }

    /**
     * Serialize only the pages that differ from @p base (compared by
     * page identity — cheap, exact under copy-on-write as long as
     * this image started as a copy of @p base). Page ids are sorted,
     * so the bytes are deterministic across processes.
     */
    void saveDelta(SnapWriter &w, const MemoryImage &base) const;

    /** Reset to a copy of @p base, then overlay the saved delta. */
    void restoreDelta(SnapReader &r, const MemoryImage &base);

  private:
    using Page = std::array<std::uint64_t, kPageWords>;

    /** Page @p id, allocated if absent and cloned if shared. */
    Page &
    writablePage(Addr id)
    {
        auto &page = pages_[id];
        if (!page)
            page = std::make_shared<Page>();
        else if (page.use_count() > 1)
            page = std::make_shared<Page>(*page); // copy-on-write
        return *page;
    }

    SIM_SNAPSHOT_FIELDS(1);

    std::unordered_map<Addr, std::shared_ptr<Page>> pages_;
};

} // namespace cdfsim::isa

#endif // CDFSIM_ISA_MEMORY_IMAGE_HH
