#include "isa/oracle.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace cdfsim::isa
{

OracleStream::OracleStream(const Program &program, MemoryImage &memory)
    : interp_(program, memory)
{
}

void
OracleStream::extend()
{
    ExecRecord &r = window_.emplace_back();
    interp_.stepInto(r);
    if (r.halt) {
        sawHalt_ = true;
        haltSeq_ = r.seq;
    }
}

void
OracleStream::materializeTo(SeqNum seq)
{
    while (frontier() <= seq) {
        SIM_ASSERT(!sawHalt_, "oracle read past Halt (seq ", seq, ")");
        extend();
    }
}

const ExecRecord &
OracleStream::at(SeqNum seq)
{
    SIM_ASSERT(seq >= base_, "oracle record ", seq,
               " already released (base ", base_, ")");
    materializeTo(seq);
    return window_[seq - base_];
}

bool
OracleStream::hasRecord(SeqNum seq)
{
    if (seq < frontier())
        return true;
    if (sawHalt_)
        return false;
    // Materialize up to the requested index or the halt, whichever
    // comes first.
    while (frontier() <= seq && !sawHalt_)
        extend();
    return seq < frontier();
}

void
OracleStream::releaseBelow(SeqNum seq)
{
    while (base_ < seq && !window_.empty()) {
        window_.pop_front();
        ++base_;
    }
}

WrongPathWalker::WrongPathWalker(const Program &program,
                                 const MemoryImage &memory)
    : program_(program), memory_(memory)
{
}

void
WrongPathWalker::restart(const RegFile &regs)
{
    SIM_ASSERT(!active_, "wrong-path walker restarted while active");
    regs_ = regs;
    storeBuf_.clear();
    active_ = true;
}

void
WrongPathWalker::executeInto(ExecRecord &r, Addr pc)
{
    SIM_ASSERT(active_, "wrong-path walker used while inactive");
    SIM_ASSERT(program_.validPc(pc), "wrong-path PC out of range");

    const Uop &uop = program_.at(pc);
    const std::uint64_t s1 =
        uop.src1 == kInvalidReg ? 0 : regs_[uop.src1];
    const std::uint64_t s2 =
        uop.src2 == kInvalidReg ? 0 : regs_[uop.src2];

    Interpreter::evaluate(
        r, pc, uop, s1, s2,
        [this](Addr a) -> std::uint64_t {
            auto it = storeBuf_.find(a >> 3);
            if (it != storeBuf_.end())
                return it->second;
            return memory_.read(a);
        },
        [this](Addr a, std::uint64_t v) { storeBuf_[a >> 3] = v; });

    if (uop.writesReg())
        regs_[uop.dst] = r.result;
    r.seq = kInvalidSeq; // wrong-path records have no program order
}

template <typename Ar>
void
WrongPathWalker::fields(Ar &ar)
{
    ar(regs_);
    // The store buffer hashes by address; save it key-sorted so the
    // byte stream is deterministic across processes and library
    // versions.
    std::vector<std::pair<Addr, std::uint64_t>> entries;
    if constexpr (!Ar::kLoading) {
        entries.assign(storeBuf_.begin(), storeBuf_.end());
        std::sort(entries.begin(), entries.end());
    }
    ar(sized<std::uint64_t>(entries));
    if constexpr (Ar::kLoading) {
        storeBuf_.clear();
        for (const auto &[addr, val] : entries)
            storeBuf_[addr] = val;
    }
    ar(active_);
}

template void WrongPathWalker::fields(SnapWriter &);
template void WrongPathWalker::fields(SnapReader &);

} // namespace cdfsim::isa
