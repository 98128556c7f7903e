/**
 * @file
 * The in-flight dynamic instruction record shared by every pipeline
 * stage of the OoO core.
 */

#ifndef CDFSIM_OOO_DYN_INST_HH
#define CDFSIM_OOO_DYN_INST_HH

#include <cstdint>

#include "bp/predictor.hh"
#include "common/serialize.hh"
#include "common/types.hh"
#include "isa/uop.hh"

namespace cdfsim::ooo
{

/** Null handle in the core's in-flight instruction pool. */
inline constexpr std::uint32_t kNoInst = 0xFFFF'FFFFu;

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
     *  the ~0.7 KB checkpoint lives off the instruction record. */
    std::uint32_t bpCkpt = kNoInst;
    /** Transient mark set while a squash collects its victims. */
    bool doomed = false;

    /** Handle of this instruction in the core's slab pool, plus the
     *  intrusive links of the master in-flight list (fetch order). */
    std::uint32_t poolIdx = kNoInst;
    std::uint32_t prevIdx = kNoInst;
    std::uint32_t nextIdx = kNoInst;

    // --- Branch training (cold: read once, at resolution) ---
    bp::TagePredictionInfo tageInfo;

    bool isLoad() const { return uop.isLoad(); }
    bool isStore() const { return uop.isStore(); }
    bool isBranch() const { return uop.isBranch(); }
    bool completed() const { return state == InstState::Completed; }
    bool hasBpCheckpoint() const { return bpCkpt != kNoInst; }

    /** 8-byte-aligned word address for disambiguation. */
    Addr memWord() const { return memAddr >> 3; }

    /** Snapshot every field verbatim (field order above), so a
     *  restored record re-snapshots byte-identically. */
    void
    save(SnapWriter &w) const
    {
        w.u64(fetchSeq);
        w.u64(ts);
        w.u64(pc);
        isa::save(w, uop);
        w.b(onPath);
        w.b(critical);
        w.b(cdfFetched);
        w.b(criticalStream);
        w.u64(memAddr);
        w.b(taken);
        w.u64(actualTarget);
        w.b(predTaken);
        w.u64(predTarget);
        w.b(mispredicted);
        w.b(btbMissBubble);
        w.u16(physDst);
        w.u16(oldPhysDst);
        w.u16(oldPhysDstCrit);
        w.u16(physSrc1);
        w.u16(physSrc2);
        w.b(renamedRegular);
        w.b(renamedCritical);
        w.b(hasPoisonSnapshot);
        w.u64(poisonSnapshot);
        w.u8(static_cast<std::uint8_t>(state));
        w.u64(fetchCycle);
        w.u64(renameCycle);
        w.u64(readyAtRename);
        w.u64(completionCycle);
        w.u64(rsNextTry);
        w.b(llcMiss);
        w.b(l1Miss);
        w.u64(forwardSrcTs);
        w.b(addrKnown);
        w.u32(bpCkpt);
        w.b(doomed);
        w.u32(poolIdx);
        w.u32(prevIdx);
        w.u32(nextIdx);
        bp::save(w, tageInfo);
    }

    void
    restore(SnapReader &r)
    {
        fetchSeq = r.u64();
        ts = r.u64();
        pc = r.u64();
        isa::restore(r, uop);
        onPath = r.b();
        critical = r.b();
        cdfFetched = r.b();
        criticalStream = r.b();
        memAddr = r.u64();
        taken = r.b();
        actualTarget = r.u64();
        predTaken = r.b();
        predTarget = r.u64();
        mispredicted = r.b();
        btbMissBubble = r.b();
        physDst = r.u16();
        oldPhysDst = r.u16();
        oldPhysDstCrit = r.u16();
        physSrc1 = r.u16();
        physSrc2 = r.u16();
        renamedRegular = r.b();
        renamedCritical = r.b();
        hasPoisonSnapshot = r.b();
        poisonSnapshot = r.u64();
        state = static_cast<InstState>(r.u8());
        fetchCycle = r.u64();
        renameCycle = r.u64();
        readyAtRename = r.u64();
        completionCycle = r.u64();
        rsNextTry = r.u64();
        llcMiss = r.b();
        l1Miss = r.b();
        forwardSrcTs = r.u64();
        addrKnown = r.b();
        bpCkpt = r.u32();
        doomed = r.b();
        poolIdx = r.u32();
        prevIdx = r.u32();
        nextIdx = r.u32();
        bp::restore(r, tageInfo);
    }

    SIM_SNAPSHOT_FIELDS(40);
};

// Every fetched uop carries one of these; keep it small enough that
// the in-flight pool stays cache-resident.
static_assert(sizeof(DynInst) <= 320, "DynInst grew past 320 bytes");

} // namespace cdfsim::ooo

#endif // CDFSIM_OOO_DYN_INST_HH
