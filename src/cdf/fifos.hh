/**
 * @file
 * The two CDF frontend FIFOs (paper Sections 3.3-3.4):
 *
 *  - Delayed Branch Queue (DBQ): directions and targets of every
 *    branch predicted while fetching critical uops; the regular
 *    fetch stream replays them so both streams follow one path and
 *    the predictor is consulted exactly once per branch.
 *  - Critical Map Queue (CMQ): destination physical registers
 *    assigned by the critical rename stage, replayed into the
 *    regular RAT in program order by the regular rename stage.
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

    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(ts, taken, target);
    }

    SIM_SNAPSHOT_FIELDS(3);
};

/** One Critical Map Queue entry. */
struct CmqEntry
{
    SeqNum ts = 0;        //!< timestamp of the critical uop
    RegId archDst = kInvalidReg;
    RegId physDst = kInvalidReg;
    RegId oldPhysDst = kInvalidReg;

    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(ts, archDst, physDst, oldPhysDst);
    }

    SIM_SNAPSHOT_FIELDS(4);
};

/** Delayed Branch Queue (Table 1: 256 entries). */
using DelayedBranchQueue = CircularQueue<DbqEntry>;

/** Critical Map Queue (Table 1: 256 entries). */
using CriticalMapQueue = CircularQueue<CmqEntry>;

/**
 * Truncate a program-ordered FIFO, dropping every entry with
 * ts > @p flushTs (partial flush on mispredict, Section 3.6).
 */
template <typename Queue>
void
flushYounger(Queue &q, SeqNum flushTs)
{
    std::size_t keep = q.size();
    while (keep > 0 && q.at(keep - 1).ts > flushTs)
        --keep;
    q.truncate(keep);
}

} // namespace cdfsim::cdf

#endif // CDFSIM_CDF_FIFOS_HH
