/**
 * @file
 * The two CDF frontend FIFOs (paper Sections 3.3-3.4):
 *
 *  - Delayed Branch Queue (DBQ): directions and targets of every
 *    branch predicted while fetching critical uops; the regular
 *    fetch stream replays them so both streams follow one path and
 *    the predictor is consulted exactly once per branch. An entry
 *    for a branch that travels only in the regular stream also owns
 *    the branch checkpoint taken at prediction time, until regular
 *    fetch hands it to the branch's instruction.
 *  - Critical Map Queue (CMQ): destination physical registers
 *    assigned by the critical rename stage, replayed into the
 *    regular RAT in program order by the regular rename stage. Each
 *    entry names the critical-stream instruction it came from, which
 *    holds the mapping to replay.
 *
 * Both are program-ordered, so a mispredict/violation flush is a
 * truncate at the offending timestamp.
 */

#ifndef CDFSIM_CDF_FIFOS_HH
#define CDFSIM_CDF_FIFOS_HH

#include "common/circular_queue.hh"
#include "common/serialize.hh"
#include "common/types.hh"

namespace cdfsim::cdf
{

/** One Delayed Branch Queue entry. */
struct DbqEntry
{
    SeqNum ts = 0;        //!< program-order timestamp of the branch
    bool taken = false;   //!< predicted (later: corrected) direction
    Addr target = 0;      //!< predicted next PC when taken
    bool btbMiss = false; //!< the prediction missed the BTB
    /** Branch-checkpoint pool handle for a branch fetched only by the
     *  regular stream; kNoInst when the critical copy owns it. */
    std::uint32_t ckpt = kNoInst;

    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(ts, taken, target, btbMiss, ckpt);
    }

    SIM_SNAPSHOT_FIELDS(5);
};

/** One Critical Map Queue entry. The replay reads the mapping
 *  (the uop's dst, its physDst) from the named instruction. */
struct CmqEntry
{
    SeqNum ts = 0;        //!< timestamp of the critical uop
    /** In-flight pool handle of the critical-stream instruction. */
    std::uint32_t inst = kNoInst;

    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(ts, inst);
    }

    SIM_SNAPSHOT_FIELDS(2);
};

/** Delayed Branch Queue (Table 1: 256 entries). */
using DelayedBranchQueue = CircularQueue<DbqEntry>;

/** Critical Map Queue (Table 1: 256 entries). */
using CriticalMapQueue = CircularQueue<CmqEntry>;

/** flushYounger's default for entries that own nothing. */
struct DropNothing
{
    template <typename Entry>
    void operator()(const Entry &) const {}
};

/**
 * Truncate a program-ordered FIFO, dropping every entry with
 * ts > @p flushTs (partial flush on mispredict, Section 3.6) after
 * handing it to @p onDrop, youngest first.
 */
template <typename Queue, typename OnDrop = DropNothing>
void
flushYounger(Queue &q, SeqNum flushTs, OnDrop &&onDrop = {})
{
    std::size_t keep = q.size();
    while (keep > 0 && q.at(keep - 1).ts > flushTs)
        onDrop(q.at(--keep));
    q.truncate(keep);
}

} // namespace cdfsim::cdf

#endif // CDFSIM_CDF_FIFOS_HH
