#include "isa/interpreter.hh"

#include "common/logging.hh"

namespace cdfsim::isa
{

Interpreter::Interpreter(const Program &program, MemoryImage &memory)
    : program_(program), memory_(memory)
{
    SIM_ASSERT(!program.code.empty(), "empty program");
}

void
Interpreter::stepInto(ExecRecord &r)
{
    SIM_ASSERT(!halted_, "step() after halt");
    SIM_ASSERT(program_.validPc(pc_), "PC ", pc_, " out of range in '",
               program_.name, "'");

    const Uop &uop = program_.at(pc_);
    const std::uint64_t s1 =
        uop.src1 == kInvalidReg ? 0 : regs_[uop.src1];
    const std::uint64_t s2 =
        uop.src2 == kInvalidReg ? 0 : regs_[uop.src2];

    evaluate(r, pc_, uop, s1, s2,
             [this](Addr a) { return memory_.read(a); },
             [this](Addr a, std::uint64_t v) { memory_.write(a, v); });

    r.seq = executed_;
    if (uop.writesReg())
        regs_[uop.dst] = r.result;

    pc_ = r.nextPc;
    ++executed_;
    if (r.halt)
        halted_ = true;
}

} // namespace cdfsim::isa
