/**
 * @file
 * CDFSIM_TRACE_TS debug tracing: one shared, parse-once helper for
 * the per-instruction event trace scattered across the core's
 * translation units. CDFSIM_TRACE_TS=LO:HI traces the events of
 * timestamps LO..HI to stderr; a malformed value disables tracing
 * with a warning.
 */

#ifndef CDFSIM_OOO_TRACE_ENV_HH
#define CDFSIM_OOO_TRACE_ENV_HH

#include <cstdio>
#include <cstdlib>

#include "common/types.hh"

namespace cdfsim::ooo
{

/** Inclusive ts range selected by CDFSIM_TRACE_TS=LO:HI. */
struct TraceTsRange
{
    unsigned long lo = 1;
    unsigned long hi = 0; //!< lo > hi: tracing disabled
};

/**
 * Parse CDFSIM_TRACE_TS exactly once per process. Malformed values
 * disable tracing with a warning instead of tracing a garbage range.
 */
inline const TraceTsRange &
traceTsRange()
{
    static const TraceTsRange range = [] {
        TraceTsRange r;
        const char *env = std::getenv("CDFSIM_TRACE_TS");
        if (!env)
            return r;
        unsigned long lo = 0;
        unsigned long hi = 0;
        if (std::sscanf(env, "%lu:%lu", &lo, &hi) == 2) {
            r.lo = lo;
            r.hi = hi;
        } else {
            std::fprintf(stderr,
                         "warning: malformed CDFSIM_TRACE_TS '%s' "
                         "(want LO:HI); tracing disabled\n",
                         env);
        }
        return r;
    }();
    return range;
}

/** Should events for timestamp @p ts be traced to stderr? */
inline bool
traceTs(SeqNum ts)
{
    const TraceTsRange &r = traceTsRange();
    return ts >= r.lo && ts <= r.hi;
}

} // namespace cdfsim::ooo

#endif // CDFSIM_OOO_TRACE_ENV_HH
