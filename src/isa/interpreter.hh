/**
 * @file
 * Functional interpreter of the uop ISA.
 *
 * Produces, per executed uop, an ExecRecord carrying everything the
 * timing model needs: result, memory address, branch outcome and
 * next PC. The oracle stream (oracle.hh) is a thin
 * indexed window over these records.
 */

#ifndef CDFSIM_ISA_INTERPRETER_HH
#define CDFSIM_ISA_INTERPRETER_HH

#include <array>
#include <cstdint>

#include "common/serialize.hh"
#include "common/types.hh"
#include "isa/memory_image.hh"
#include "isa/program.hh"
#include "isa/uop.hh"

namespace cdfsim::isa
{

/** Architectural register file snapshot. */
using RegFile = std::array<std::uint64_t, kNumArchRegs>;

/** The outcome of functionally executing one dynamic uop. */
struct ExecRecord
{
    SeqNum seq = 0;           //!< dynamic index == program-order timestamp
    Addr pc = 0;              //!< static uop index
    Uop uop;                  //!< the static uop
    std::uint64_t result = 0; //!< dst value, or store data for stores
    Addr memAddr = 0;         //!< effective address for loads/stores
    Addr nextPc = 0;          //!< correct-path successor PC
    bool taken = false;       //!< branch outcome (uncond branches: true)
    bool halt = false;        //!< this uop ends the program

    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(seq, pc, uop, result, memAddr, nextPc, taken, halt);
    }

    SIM_SNAPSHOT_FIELDS(8);
};

// The oracle window and the CDF wrong-path buffer hold one record
// per in-flight uop; keep it to a cache line.
static_assert(sizeof(ExecRecord) <= 64, "ExecRecord grew past 64 bytes");

/**
 * Executes a Program against a register file and a MemoryImage.
 *
 * The interpreter owns the registers but only borrows the memory, so
 * a wrong-path walker can share the same MemoryImage (reads only;
 * its stores are buffered privately).
 */
class Interpreter
{
  public:
    Interpreter(const Program &program, MemoryImage &memory);

    /**
     * Execute the uop at the current PC into @p r and advance. Every
     * field of @p r is overwritten, so it may hold a previous record.
     * Must not be called after a Halt has been executed.
     */
    void stepInto(ExecRecord &r);

    /** stepInto() a fresh record and return it. */
    ExecRecord
    step()
    {
        ExecRecord r;
        stepInto(r);
        return r;
    }

    /** True once a Halt uop has executed. */
    bool halted() const { return halted_; }

    Addr pc() const { return pc_; }

    /** Number of uops executed so far (== seq of the next record). */
    SeqNum executed() const { return executed_; }

    const RegFile &regs() const { return regs_; }
    RegFile &regs() { return regs_; }

    const Program &program() const { return program_; }
    MemoryImage &memory() { return memory_; }

    /**
     * Pure function: compute the effect of @p uop at @p pc given
     * operand values into @p r, reading/writing memory through the
     * supplied callbacks. Writes every field but seq, which the
     * caller assigns, so @p r can be a reused slot. Shared between
     * the interpreter and the wrong-path walker so the two can never
     * diverge in semantics.
     */
    template <typename ReadFn, typename WriteFn>
    static void
    evaluate(ExecRecord &r, Addr pc, const Uop &uop, std::uint64_t s1,
             std::uint64_t s2, ReadFn &&read, WriteFn &&write)
    {
        r.pc = pc;
        r.uop = uop;
        r.result = 0;
        r.memAddr = 0;
        r.nextPc = pc + 1;
        r.taken = false;
        r.halt = false;
        switch (uop.op) {
          case Opcode::Nop:
            break;
          case Opcode::Add: r.result = s1 + s2; break;
          case Opcode::Sub: r.result = s1 - s2; break;
          case Opcode::Mul: r.result = s1 * s2; break;
          case Opcode::Div: r.result = s2 == 0 ? 0 : s1 / s2; break;
          case Opcode::And: r.result = s1 & s2; break;
          case Opcode::Or:  r.result = s1 | s2; break;
          case Opcode::Xor: r.result = s1 ^ s2; break;
          case Opcode::Shl: r.result = s1 << (s2 & 63); break;
          case Opcode::Shr: r.result = s1 >> (s2 & 63); break;
          case Opcode::CmpLt: r.result = s1 < s2 ? 1 : 0; break;
          case Opcode::CmpEq: r.result = s1 == s2 ? 1 : 0; break;
          case Opcode::Mov: r.result = s1; break;
          case Opcode::MovImm:
            r.result = static_cast<std::uint64_t>(uop.imm);
            break;
          case Opcode::AddImm:
            r.result = s1 + static_cast<std::uint64_t>(uop.imm);
            break;
          case Opcode::FAdd: r.result = s1 + s2; break;
          case Opcode::FMul: r.result = s1 * s2; break;
          case Opcode::FDiv: r.result = s2 == 0 ? 0 : s1 / s2; break;
          case Opcode::Load:
            r.memAddr = s1 + static_cast<std::uint64_t>(uop.imm);
            r.result = read(r.memAddr);
            break;
          case Opcode::Store:
            r.memAddr = s1 + static_cast<std::uint64_t>(uop.imm);
            r.result = s2;
            write(r.memAddr, s2);
            break;
          case Opcode::Beqz:
            r.taken = (s1 == 0);
            if (r.taken)
                r.nextPc = static_cast<Addr>(uop.imm);
            break;
          case Opcode::Bnez:
            r.taken = (s1 != 0);
            if (r.taken)
                r.nextPc = static_cast<Addr>(uop.imm);
            break;
          case Opcode::Jmp:
            r.taken = true;
            r.nextPc = static_cast<Addr>(uop.imm);
            break;
          case Opcode::Call:
            r.taken = true;
            r.result = pc + 1;
            r.nextPc = static_cast<Addr>(uop.imm);
            break;
          case Opcode::Ret:
            r.taken = true;
            r.nextPc = static_cast<Addr>(s1);
            break;
          case Opcode::Halt:
            r.halt = true;
            r.nextPc = pc;
            break;
        }
    }

    /** Snapshot cursor state (memory is serialized separately). */
    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(regs_, pc_, executed_, halted_);
    }

  private:
    SIM_SNAPSHOT_FIELDS(6);

    const Program &program_;
    MemoryImage &memory_;
    RegFile regs_{};
    Addr pc_ = 0;
    SeqNum executed_ = 0;
    bool halted_ = false;
};

} // namespace cdfsim::isa

#endif // CDFSIM_ISA_INTERPRETER_HH
