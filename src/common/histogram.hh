/**
 * @file
 * Simple fixed-bucket histogram plus streaming mean, used for things
 * like ROB-occupancy distributions (Fig. 1) and MLP sampling
 * (Fig. 14).
 */

#ifndef CDFSIM_COMMON_HISTOGRAM_HH
#define CDFSIM_COMMON_HISTOGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace cdfsim
{

/** Histogram over [0, buckets) with an overflow bucket at the top. */
class Histogram
{
  public:
    explicit Histogram(std::size_t buckets)
        : counts_(buckets + 1, 0), samples_(0), sum_(0)
    {
        SIM_ASSERT(buckets > 0, "Histogram needs at least one bucket");
    }

    /** Record one sample of @p value. */
    void
    add(std::uint64_t value)
    {
        std::size_t b = value;
        if (b >= counts_.size() - 1)
            b = counts_.size() - 1;
        ++counts_[b];
        ++samples_;
        sum_ += value;
    }

    std::uint64_t samples() const { return samples_; }

    /** Mean of all recorded samples (0 when empty). */
    double
    mean() const
    {
        return samples_ == 0
            ? 0.0
            : static_cast<double>(sum_) / static_cast<double>(samples_);
    }

    /** Count in bucket @p b (the last bucket is overflow). */
    std::uint64_t
    bucket(std::size_t b) const
    {
        SIM_ASSERT(b < counts_.size(), "Histogram bucket out of range");
        return counts_[b];
    }

    std::size_t numBuckets() const { return counts_.size(); }

    /** Fraction of samples at or above @p value. */
    double
    fractionAtLeast(std::uint64_t value) const
    {
        if (samples_ == 0)
            return 0.0;
        std::uint64_t n = 0;
        for (std::size_t b = value; b < counts_.size(); ++b)
            n += counts_[b];
        return static_cast<double>(n) / static_cast<double>(samples_);
    }

    void
    reset()
    {
        for (auto &c : counts_)
            c = 0;
        samples_ = 0;
        sum_ = 0;
    }

  private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t samples_;
    std::uint64_t sum_;
};

/** Streaming mean without storing samples. */
class RunningMean
{
  public:
    void
    add(double v)
    {
        sum_ += v;
        ++n_;
    }

    /**
     * Account @p n samples of the same value in one step. Exactly
     * equivalent to calling add(v) n times when v and v*n are
     * integers below 2^53: integer-valued doubles add exactly, so
     * v + v + ... (n times) == v * n bit-for-bit. The idle-skip fast
     * path relies on this to bulk-apply the per-cycle MLP sample.
     */
    void
    addRepeated(double v, std::uint64_t n)
    {
        sum_ += v * static_cast<double>(n);
        n_ += n;
    }

    double mean() const { return n_ == 0 ? 0.0 : sum_ / n_; }
    std::uint64_t samples() const { return n_; }

    void
    reset()
    {
        sum_ = 0.0;
        n_ = 0;
    }

    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(sum_, n_);
    }

  private:
    SIM_SNAPSHOT_FIELDS(2);

    double sum_ = 0.0;
    std::uint64_t n_ = 0;
};

} // namespace cdfsim

#endif // CDFSIM_COMMON_HISTOGRAM_HH
