/**
 * @file
 * The functional oracle the execution-driven timing model fetches
 * from, plus the wrong-path walker.
 *
 * OracleStream lazily materializes the correct-path dynamic uop
 * stream; the stream index is the program-order timestamp the paper
 * assigns to uops. WrongPathWalker functionally executes down a
 * mispredicted path from a register snapshot taken at the divergence
 * point so wrong-path loads carry realistic addresses — required to
 * reproduce the paper's wrong-path MLP and memory-traffic results
 * (Figs. 14 and 15).
 */

#ifndef CDFSIM_ISA_ORACLE_HH
#define CDFSIM_ISA_ORACLE_HH

#include <deque>
#include <unordered_map>

#include "common/types.hh"
#include "isa/interpreter.hh"

namespace cdfsim::isa
{

/**
 * Indexed window over the correct-path dynamic instruction stream.
 *
 * Records are materialized on demand by running the functional
 * interpreter, kept in a sliding window, and discharged as the
 * timing model retires them: the core releases every retired record
 * on each retire stage, so the window holds only records that have
 * been fetched (or looked ahead at) but not retired.
 */
class OracleStream
{
  public:
    OracleStream(const Program &program, MemoryImage &memory);

    /**
     * The record with dynamic index @p seq. Extends the stream as
     * needed. @p seq must be >= the current window base (i.e., not
     * yet released) and must not be past the Halt record.
     */
    const ExecRecord &at(SeqNum seq);

    /** True when record @p seq exists (program has not halted before). */
    bool hasRecord(SeqNum seq);

    /** Dynamic index one past the newest materialized record. */
    SeqNum frontier() const { return base_ + window_.size(); }

    /** Oldest retained record index. */
    SeqNum base() const { return base_; }

    /** Release records with seq < @p seq (they retired). */
    void releaseBelow(SeqNum seq);

    /**
     * Register state after executing record frontier()-1 — i.e., the
     * state a wrong-path walker must start from when the newest
     * fetched instruction caused the divergence.
     */
    const RegFile &frontierRegs() const { return interp_.regs(); }

    /** True once the Halt record has been materialized. */
    bool sawHalt() const { return sawHalt_; }

    /** Sequence number of the Halt record; only valid after sawHalt(). */
    SeqNum haltSeq() const { return haltSeq_; }

    const Program &program() const { return interp_.program(); }
    MemoryImage &memory() { return interp_.memory(); }

    /** Snapshot cursors + retained window (not program memory). */
    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(interp_, sized<std::uint64_t>(window_), base_, sawHalt_,
           haltSeq_);
    }

  private:
    void materializeTo(SeqNum seq);
    /** Step the interpreter once, into a new record at the back. */
    void extend();

    SIM_SNAPSHOT_FIELDS(5);

    Interpreter interp_;
    std::deque<ExecRecord> window_;
    SeqNum base_ = 0;
    bool sawHalt_ = false;
    SeqNum haltSeq_ = kInvalidSeq;
};

/**
 * Functional execution down a mispredicted path.
 *
 * Seeded with the architectural registers at the divergence point.
 * Loads read the (current) program memory with forwarding from a
 * private store buffer; stores never reach program memory. The
 * walker has no PC of its own: the fetch stage drives it one uop at
 * a time and picks the next wrong-path PC from the branch predictor,
 * exactly like a real frontend.
 */
class WrongPathWalker
{
  public:
    WrongPathWalker(const Program &program, const MemoryImage &memory);

    /** Start a wrong path from the given register snapshot. One walk
     *  at a time: the walker must be inactive (panics otherwise). */
    void restart(const RegFile &regs);

    /**
     * Functionally execute the uop at @p pc against the shadow
     * state into @p r, overwriting every field. The caller decides
     * which PC to fetch next.
     */
    void executeInto(ExecRecord &r, Addr pc);

    /** executeInto() a fresh record and return it. */
    ExecRecord
    execute(Addr pc)
    {
        ExecRecord r;
        executeInto(r, pc);
        return r;
    }

    bool active() const { return active_; }
    void deactivate() { active_ = false; }

    /** Snapshot shadow state (store buffer is key-sorted on save).
     *  Defined in oracle.cc, which may iterate the hash map. */
    template <typename Ar>
    void fields(Ar &ar);

  private:
    SIM_SNAPSHOT_FIELDS(5);

    const Program &program_;
    const MemoryImage &memory_;
    RegFile regs_{};
    std::unordered_map<Addr, std::uint64_t> storeBuf_;
    bool active_ = false;
};

} // namespace cdfsim::isa

#endif // CDFSIM_ISA_ORACLE_HH
