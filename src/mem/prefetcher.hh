/**
 * @file
 * Stream prefetcher with feedback-directed throttling (Table 1:
 * "Stream Prefetcher, 64 Streams (always on), Feedback Directed
 * Prefetching to throttle prefetcher").
 *
 * Streams are trained on demand misses: two misses to adjacent lines
 * in the same direction confirm a stream, after which the prefetcher
 * issues `degree` line prefetches ahead of each demand access that
 * advances the stream. The throttle periodically evaluates prefetch
 * accuracy (useful fills / issued fills, measured by the caches) and
 * moves the degree within [minDegree, maxDegree].
 */

#ifndef CDFSIM_MEM_PREFETCHER_HH
#define CDFSIM_MEM_PREFETCHER_HH

#include <cstdint>
#include <vector>

#include "common/serialize.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace cdfsim::mem
{

/** Stream prefetcher configuration. */
struct PrefetcherConfig
{
    unsigned streams = 64;
    unsigned trainDistance = 4;   //!< max line gap to keep training
    unsigned minDegree = 1;
    unsigned maxDegree = 8;
    unsigned initialDegree = 4;
    unsigned evalIntervalFills = 256;   //!< throttle evaluation period
    double lowAccuracy = 0.40;
    double highAccuracy = 0.75;

    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(named("streams", streams), named("train_distance", trainDistance),
           named("min_degree", minDegree), named("max_degree", maxDegree),
           named("initial_degree", initialDegree),
           named("eval_interval_fills", evalIntervalFills),
           named("low_accuracy", lowAccuracy),
           named("high_accuracy", highAccuracy));
    }

    SIM_SNAPSHOT_FIELDS(8);
};

/** Trained prefetch decisions for one trigger access. */
struct PrefetchBatch
{
    Addr lines[16];
    unsigned count = 0;
};

/** 64-stream prefetcher with FDP-style throttling. */
class StreamPrefetcher
{
  public:
    StreamPrefetcher(const PrefetcherConfig &config, StatRegistry &stats);

    /**
     * Observe a demand access (post-L1 miss stream). Returns the
     * line addresses to prefetch, if any.
     */
    PrefetchBatch observe(Addr addr, bool wasMiss);

    /**
     * Feedback from the cache: @p usefulDelta new useful prefetches
     * and @p issuedDelta new prefetch fills since the last call.
     * Periodically adjusts the degree.
     */
    void feedback(std::uint64_t usefulDelta, std::uint64_t issuedDelta);

    unsigned degree() const { return degree_; }

    /** Snapshot stream table and throttle state. */
    template <typename Ar>
    void
    fields(Ar &ar)
    {
        for (Stream &s : streams_) {
            ar(s.valid, s.confirmed, s.lastLine,
               as<std::int64_t>(s.direction), s.lruTick);
        }
        ar(degree_, tick_, pendingUseful_, pendingIssued_);
    }

  private:
    struct Stream
    {
        bool valid = false;
        bool confirmed = false;
        std::int64_t lastLine = 0;
        int direction = 0;       //!< +1 or -1 once confirmed
        std::uint64_t lruTick = 0;
    };

    Stream *findStream(std::int64_t line);
    Stream &allocateStream(std::int64_t line);

    SIM_SNAPSHOT_FIELDS(9);

    PrefetcherConfig config_;
    std::vector<Stream> streams_;
    unsigned degree_;
    std::uint64_t tick_ = 0;

    std::uint64_t pendingUseful_ = 0;
    std::uint64_t pendingIssued_ = 0;

    std::uint64_t &issued_;
    std::uint64_t &throttleUps_;
    std::uint64_t &throttleDowns_;
};

} // namespace cdfsim::mem

#endif // CDFSIM_MEM_PREFETCHER_HH
