/**
 * @file
 * The in-flight dynamic instruction record shared by every pipeline
 * stage of the OoO core.
 */

#ifndef CDFSIM_OOO_DYN_INST_HH
#define CDFSIM_OOO_DYN_INST_HH

#include <cstdint>

#include "common/serialize.hh"
#include "common/types.hh"
#include "isa/uop.hh"

namespace cdfsim::ooo
{

/** Progress of an instruction through the backend. */
enum class InstState : std::uint8_t
{
    Fetched,
    Renamed,     //!< in ROB/RS (and LSQ if memory)
    Issued,      //!< sent to an execution pipe
    Completed,   //!< result produced; waiting to retire
};

/** One in-flight dynamic instruction. */
struct DynInst
{
    // --- Identity ---
    SeqNum fetchSeq = 0;     //!< unique, monotonic in fetch order
    SeqNum ts = 0;           //!< program-order timestamp (oracle index)
    Addr pc = 0;
    isa::Uop uop;
    bool onPath = true;      //!< false for wrong-path instructions

    // --- CDF attributes ---
    bool critical = false;     //!< marked critical by trace construction
    bool cdfFetched = false;   //!< fetched while CDF mode was active
    bool criticalStream = false; //!< travelled via the critical pipeline

    // --- Functional outcome (bound at fetch) ---
    Addr memAddr = 0;          //!< effective address (memory ops)
    bool taken = false;        //!< actual branch direction
    Addr actualTarget = 0;     //!< actual next PC
    bool predTaken = false;
    Addr predTarget = 0;
    bool mispredicted = false; //!< prediction differed from outcome
    bool btbMissBubble = false;

    // --- Rename state ---
    RegId physDst = kInvalidReg;
    RegId oldPhysDst = kInvalidReg;      //!< regular RAT prior mapping
    RegId oldPhysDstCrit = kInvalidReg;  //!< critical RAT prior mapping
    RegId physSrc1 = kInvalidReg;
    RegId physSrc2 = kInvalidReg;
    bool renamedRegular = false;   //!< updated the regular RAT
    bool renamedCritical = false;  //!< updated the critical RAT
    bool hasPoisonSnapshot = false;
    std::uint64_t poisonSnapshot = 0; //!< poison bits pre-this-rename

    // --- Execution state ---
    InstState state = InstState::Fetched;
    Cycle fetchCycle = 0;
    Cycle renameCycle = 0;
    Cycle readyAtRename = 0;   //!< earliest cycle rename may process it
    Cycle completionCycle = kNeverCycle;
    /** Earliest cycle the RS scheduler must re-examine this entry:
     *  0 = examine now, kNeverCycle = parked until a register
     *  wakeup clears it. Pure scheduling cache, never architectural. */
    Cycle rsNextTry = 0;
    bool llcMiss = false;      //!< this load went to DRAM
    bool l1Miss = false;
    SeqNum forwardSrcTs = 0;   //!< ts of SQ entry forwarded from (0: mem)
    bool addrKnown = false;    //!< agen done (memory disambiguation)

    // --- Recovery state ---
    /** Handle of this branch's predictor checkpoint in the core's
     *  checkpoint pool (kNoInst: none). Only branches hold one, so
     *  the ~0.8 KB checkpoint, and the prediction record the branch
     *  trains with at resolution, live off the instruction record. */
    std::uint32_t bpCkpt = kNoInst;
    /** Transient mark set while a squash collects its victims. */
    bool doomed = false;

    /** Handle of this instruction in the core's slab pool, plus the
     *  intrusive links of the master in-flight list (fetch order). */
    std::uint32_t poolIdx = kNoInst;
    std::uint32_t prevIdx = kNoInst;
    std::uint32_t nextIdx = kNoInst;

    bool isLoad() const { return uop.isLoad(); }
    bool isStore() const { return uop.isStore(); }
    bool isBranch() const { return uop.isBranch(); }
    bool completed() const { return state == InstState::Completed; }
    bool hasBpCheckpoint() const { return bpCkpt != kNoInst; }

    /** 8-byte-aligned word address for disambiguation. */
    Addr memWord() const { return memAddr >> 3; }

    /** Snapshot every field verbatim (field order above), so a
     *  restored record re-snapshots byte-identically. */
    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(fetchSeq, ts, pc, uop, onPath, critical, cdfFetched,
           criticalStream, memAddr, taken, actualTarget, predTaken,
           predTarget, mispredicted, btbMissBubble, physDst, oldPhysDst,
           oldPhysDstCrit, physSrc1, physSrc2, renamedRegular,
           renamedCritical, hasPoisonSnapshot, poisonSnapshot, state,
           fetchCycle, renameCycle, readyAtRename, completionCycle,
           rsNextTry, llcMiss, l1Miss, forwardSrcTs, addrKnown, bpCkpt,
           doomed, poolIdx, prevIdx, nextIdx);
    }

    SIM_SNAPSHOT_FIELDS(39);
};

// Every fetched uop carries one of these; keep it small enough that
// the in-flight pool stays cache-resident.
static_assert(sizeof(DynInst) <= 208, "DynInst grew past 208 bytes");

} // namespace cdfsim::ooo

#endif // CDFSIM_OOO_DYN_INST_HH
