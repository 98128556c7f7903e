/**
 * @file
 * The uop ISA of the simulated machine.
 *
 * A small RISC-like ISA over 64 integer architectural registers and a
 * flat 64-bit byte-addressed memory. Programs are sequences of uops;
 * the PC is a uop index. This is deliberately close to the decoded
 * uop streams the paper operates on (Figs. 5-7 use exactly this kind
 * of three-address uop notation).
 */

#ifndef CDFSIM_ISA_UOP_HH
#define CDFSIM_ISA_UOP_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/serialize.hh"
#include "common/types.hh"

namespace cdfsim::isa
{

/** Operation encoding. */
enum class Opcode : std::uint8_t
{
    Nop,
    // Integer ALU.
    Add,    //!< dst = src1 + src2
    Sub,    //!< dst = src1 - src2
    Mul,    //!< dst = src1 * src2
    Div,    //!< dst = src1 / src2 (0 divisor yields 0)
    And,    //!< dst = src1 & src2
    Or,     //!< dst = src1 | src2
    Xor,    //!< dst = src1 ^ src2
    Shl,    //!< dst = src1 << (src2 & 63)
    Shr,    //!< dst = src1 >> (src2 & 63)
    CmpLt,  //!< dst = (src1 < src2) ? 1 : 0   (unsigned)
    CmpEq,  //!< dst = (src1 == src2) ? 1 : 0
    Mov,    //!< dst = src1
    MovImm, //!< dst = imm
    AddImm, //!< dst = src1 + imm
    // Long-latency arithmetic standing in for FP pipes.
    FAdd,   //!< dst = src1 + src2 (3-cycle pipe)
    FMul,   //!< dst = src1 * src2 (4-cycle pipe)
    FDiv,   //!< dst = src1 / src2 (12-cycle pipe)
    // Memory.
    Load,   //!< dst = mem64[src1 + imm]
    Store,  //!< mem64[src1 + imm] = src2
    // Control. Branch targets are absolute uop indices in imm.
    Beqz,   //!< if (src1 == 0) pc = imm
    Bnez,   //!< if (src1 != 0) pc = imm
    Jmp,    //!< pc = imm
    Call,   //!< dst = pc + 1; pc = imm (predicted via BTB, pushes RAS)
    Ret,    //!< pc = src1 (predicted via RAS)
    Halt,   //!< stop the program
};

/** One decoded micro-operation. */
struct Uop
{
    Opcode op = Opcode::Nop;
    RegId dst = kInvalidReg;
    RegId src1 = kInvalidReg;
    RegId src2 = kInvalidReg;
    std::int64_t imm = 0;

    bool isLoad() const { return op == Opcode::Load; }
    bool isStore() const { return op == Opcode::Store; }
    bool isMem() const { return isLoad() || isStore(); }

    bool
    isCondBranch() const
    {
        return op == Opcode::Beqz || op == Opcode::Bnez;
    }

    bool
    isUncondBranch() const
    {
        return op == Opcode::Jmp || op == Opcode::Call ||
               op == Opcode::Ret;
    }

    bool isBranch() const { return isCondBranch() || isUncondBranch(); }

    /** Indirect control flow whose target comes from a register. */
    bool isIndirect() const { return op == Opcode::Ret; }

    bool isHalt() const { return op == Opcode::Halt; }

    bool writesReg() const { return dst != kInvalidReg; }

    /** Number of register sources actually read (0..2). */
    unsigned
    numSrcs() const
    {
        unsigned n = 0;
        if (src1 != kInvalidReg)
            ++n;
        if (src2 != kInvalidReg)
            ++n;
        return n;
    }

    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(op, dst, src1, src2, imm);
    }

    SIM_SNAPSHOT_FIELDS(5);
};

/** Execution-pipe latency of a uop once its operands are ready. */
unsigned executeLatency(Opcode op);

/** Human-readable opcode mnemonic. */
std::string opcodeName(Opcode op);

/** Render a uop as assembly-ish text for traces and tests. */
std::string toString(const Uop &uop);

} // namespace cdfsim::isa

#endif // CDFSIM_ISA_UOP_HH
