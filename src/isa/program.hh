/**
 * @file
 * Program container and a small fluent assembler (ProgramBuilder)
 * with label support, used by the workload kernels, the examples and
 * the tests.
 */

#ifndef CDFSIM_ISA_PROGRAM_HH
#define CDFSIM_ISA_PROGRAM_HH

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/types.hh"
#include "isa/uop.hh"

namespace cdfsim::isa
{

/** A static uop program. The PC is an index into code. */
struct Program
{
    std::string name;
    std::vector<Uop> code;

    std::size_t size() const { return code.size(); }

    const Uop &
    at(Addr pc) const
    {
        return code.at(static_cast<std::size_t>(pc));
    }

    bool
    validPc(Addr pc) const
    {
        return static_cast<std::size_t>(pc) < code.size();
    }

    /** Whether a wrong-path or shadow walk may execute @p pc. */
    bool walkable(Addr pc) const { return validPc(pc) && !at(pc).isHalt(); }
};

/**
 * Fluent assembler with forward-reference labels.
 *
 * Usage:
 * @code
 *   ProgramBuilder b("kernel");
 *   auto loop = b.makeLabel();
 *   b.movi(0, 100);
 *   b.bind(loop);
 *   b.addi(0, 0, -1);
 *   b.bnez(0, loop);
 *   b.halt();
 *   Program p = b.build();
 * @endcode
 */
class ProgramBuilder
{
  public:
    /** Opaque label handle. */
    using Label = std::size_t;

    explicit ProgramBuilder(std::string name);

    /** Create a fresh, unbound label. */
    Label makeLabel();

    /** Bind @p label to the next emitted uop. */
    void bind(Label label);

    /** Index the next emitted uop will receive. */
    Addr here() const { return code_.size(); }

    // --- ALU ---
    ProgramBuilder &nop();
    ProgramBuilder &add(RegId d, RegId s1, RegId s2);
    ProgramBuilder &sub(RegId d, RegId s1, RegId s2);
    ProgramBuilder &mul(RegId d, RegId s1, RegId s2);
    ProgramBuilder &div(RegId d, RegId s1, RegId s2);
    ProgramBuilder &and_(RegId d, RegId s1, RegId s2);
    ProgramBuilder &or_(RegId d, RegId s1, RegId s2);
    ProgramBuilder &xor_(RegId d, RegId s1, RegId s2);
    ProgramBuilder &shl(RegId d, RegId s1, RegId s2);
    ProgramBuilder &shr(RegId d, RegId s1, RegId s2);
    ProgramBuilder &cmplt(RegId d, RegId s1, RegId s2);
    ProgramBuilder &cmpeq(RegId d, RegId s1, RegId s2);
    ProgramBuilder &mov(RegId d, RegId s);
    ProgramBuilder &movi(RegId d, std::int64_t imm);
    ProgramBuilder &addi(RegId d, RegId s, std::int64_t imm);
    ProgramBuilder &fadd(RegId d, RegId s1, RegId s2);
    ProgramBuilder &fmul(RegId d, RegId s1, RegId s2);
    ProgramBuilder &fdiv(RegId d, RegId s1, RegId s2);

    // --- Memory ---
    ProgramBuilder &load(RegId d, RegId base, std::int64_t off = 0);
    ProgramBuilder &store(RegId base, std::int64_t off, RegId value);

    // --- Control ---
    ProgramBuilder &beqz(RegId s, Label target);
    ProgramBuilder &bnez(RegId s, Label target);
    ProgramBuilder &jmp(Label target);
    ProgramBuilder &call(RegId link, Label target);
    ProgramBuilder &ret(RegId s);
    ProgramBuilder &halt();

    /** Finalize; panics if any referenced label is unbound. */
    Program build();

  private:
    ProgramBuilder &emit(Uop uop);
    ProgramBuilder &emitLabelled(Uop uop, Label target);

    std::string name_;
    std::vector<Uop> code_;
    std::vector<Addr> labelAddrs_;         // kNeverCycle == unbound
    std::vector<std::pair<std::size_t, Label>> fixups_;
};

} // namespace cdfsim::isa

#endif // CDFSIM_ISA_PROGRAM_HH
