/**
 * @file
 * Unit tests for the uop ISA: builder/label resolution, functional
 * interpreter semantics for every opcode, memory image behaviour,
 * the oracle stream window and the wrong-path walker.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <type_traits>
#include <vector>

#include "common/logging.hh"
#include "isa/interpreter.hh"
#include "isa/memory_image.hh"
#include "isa/oracle.hh"
#include "isa/program.hh"

using namespace cdfsim;
using namespace cdfsim::isa;

namespace
{

/** Run a program to halt; return final registers. */
RegFile
runProgram(const Program &p, MemoryImage &mem, unsigned cap = 100000)
{
    Interpreter interp(p, mem);
    unsigned n = 0;
    while (!interp.halted() && n++ < cap)
        interp.step();
    EXPECT_TRUE(interp.halted());
    return interp.regs();
}

} // namespace

// --- MemoryImage ---

TEST(MemoryImage, UnwrittenReadsZero)
{
    MemoryImage mem;
    EXPECT_EQ(mem.read(0x1234560), 0u);
    EXPECT_EQ(mem.residentPages(), 0u);
}

TEST(MemoryImage, ReadBackWritten)
{
    MemoryImage mem;
    mem.write(0x1000, 0xDEADBEEF);
    EXPECT_EQ(mem.read(0x1000), 0xDEADBEEFu);
    EXPECT_EQ(mem.residentPages(), 1u);
}

TEST(MemoryImage, WordAlignment)
{
    MemoryImage mem;
    mem.write(0x1001, 55); // aligned down to 0x1000
    EXPECT_EQ(mem.read(0x1000), 55u);
    EXPECT_EQ(mem.read(0x1007), 55u);
    EXPECT_EQ(mem.read(0x1008), 0u);
}

TEST(MemoryImage, SparsePagesFarApart)
{
    MemoryImage mem;
    mem.write(0x0, 1);
    mem.write(Addr{1} << 40, 2);
    EXPECT_EQ(mem.residentPages(), 2u);
    EXPECT_EQ(mem.read(Addr{1} << 40), 2u);
}

TEST(MemoryImage, WriteWordsMatchesPerWordWrites)
{
    // Starts just before a page boundary (and off word alignment),
    // runs across whole pages, and ends mid-page; the generator is
    // called once per word, in address order.
    constexpr Addr kPage = MemoryImage::kPageBytes;
    for (const Addr start : {Addr{0}, 3 * kPage - 40, 3 * kPage - 37,
                             5 * kPage}) {
        for (const std::uint64_t words :
             {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5},
              MemoryImage::kPageWords, std::uint64_t{1100}}) {
            MemoryImage perWord;
            MemoryImage bulk;
            auto lcg = [](std::uint64_t &x) {
                return x = x * 6364136223846793005ull + 1;
            };
            std::uint64_t a = 7, b = 7;
            for (std::uint64_t i = 0; i < words; ++i)
                perWord.write(start + 8 * i, lcg(a));
            bulk.writeWords(start, words, [&] { return lcg(b); });
            EXPECT_EQ(bulk.residentPages(), perWord.residentPages())
                << start << "+" << words;
            for (Addr at = start - std::min<Addr>(start, 64);
                 at < start + 8 * words + 64; at += 8)
                ASSERT_EQ(bulk.read(at), perWord.read(at))
                    << start << "+" << words << " at " << at;
        }
    }
}

TEST(MemoryImage, WriteWordsUnsharesCopyOnWritePages)
{
    // A copy shares the base's pages; a bulk write into it must
    // clone each page it touches and leave the base as it was.
    constexpr Addr kPage = MemoryImage::kPageBytes;
    MemoryImage base;
    for (Addr at = 0; at < 3 * kPage; at += 8)
        base.write(at, at);
    MemoryImage copy = base;
    copy.writeWords(kPage - 16, 4, [] { return 0xABCDull; });

    for (Addr at = 0; at < 3 * kPage; at += 8) {
        ASSERT_EQ(base.read(at), at) << at;
        const bool written = at >= kPage - 16 && at < kPage + 16;
        ASSERT_EQ(copy.read(at), written ? 0xABCDull : at) << at;
    }
    // Exactly the two touched pages differ from the base now; the
    // third is still shared with it.
    SnapWriter w;
    copy.saveDelta(w, base);
    SnapReader r(w.bytes());
    EXPECT_EQ(r.u64(), 2u);
}

// --- ProgramBuilder ---

TEST(ProgramBuilder, ForwardLabelResolved)
{
    ProgramBuilder b("t");
    auto end = b.makeLabel();
    b.movi(1, 5);
    b.jmp(end);
    b.movi(1, 9); // skipped
    b.bind(end);
    b.halt();
    auto p = b.build();
    EXPECT_EQ(p.code[1].imm, 3); // jmp targets the halt

    MemoryImage mem;
    auto regs = runProgram(p, mem);
    EXPECT_EQ(regs[1], 5u);
}

TEST(ProgramBuilder, UnboundLabelPanics)
{
    ProgramBuilder b("t");
    auto l = b.makeLabel();
    b.jmp(l);
    EXPECT_THROW(b.build(), PanicError);
}

TEST(ProgramBuilder, DoubleBindPanics)
{
    ProgramBuilder b("t");
    auto l = b.makeLabel();
    b.bind(l);
    EXPECT_THROW(b.bind(l), PanicError);
}

// --- Interpreter opcode semantics ---

TEST(Interpreter, ArithmeticOps)
{
    ProgramBuilder b("alu");
    b.movi(1, 20).movi(2, 6);
    b.add(3, 1, 2);   // 26
    b.sub(4, 1, 2);   // 14
    b.mul(5, 1, 2);   // 120
    b.div(6, 1, 2);   // 3
    b.and_(7, 1, 2);  // 4
    b.or_(8, 1, 2);   // 22
    b.xor_(9, 1, 2);  // 18
    b.halt();
    MemoryImage mem;
    auto regs = runProgram(b.build(), mem);
    EXPECT_EQ(regs[3], 26u);
    EXPECT_EQ(regs[4], 14u);
    EXPECT_EQ(regs[5], 120u);
    EXPECT_EQ(regs[6], 3u);
    EXPECT_EQ(regs[7], 4u);
    EXPECT_EQ(regs[8], 22u);
    EXPECT_EQ(regs[9], 18u);
}

TEST(Interpreter, DivisionByZeroYieldsZero)
{
    ProgramBuilder b("div0");
    b.movi(1, 5).movi(2, 0).div(3, 1, 2).fdiv(4, 1, 2).halt();
    MemoryImage mem;
    auto regs = runProgram(b.build(), mem);
    EXPECT_EQ(regs[3], 0u);
    EXPECT_EQ(regs[4], 0u);
}

TEST(Interpreter, ShiftsMaskTheAmount)
{
    ProgramBuilder b("sh");
    b.movi(1, 1).movi(2, 65); // 65 & 63 == 1
    b.shl(3, 1, 2);
    b.shr(4, 3, 2);
    b.halt();
    MemoryImage mem;
    auto regs = runProgram(b.build(), mem);
    EXPECT_EQ(regs[3], 2u);
    EXPECT_EQ(regs[4], 1u);
}

TEST(Interpreter, Comparisons)
{
    ProgramBuilder b("cmp");
    b.movi(1, 3).movi(2, 7);
    b.cmplt(3, 1, 2);
    b.cmplt(4, 2, 1);
    b.cmpeq(5, 1, 1);
    b.cmpeq(6, 1, 2);
    b.halt();
    MemoryImage mem;
    auto regs = runProgram(b.build(), mem);
    EXPECT_EQ(regs[3], 1u);
    EXPECT_EQ(regs[4], 0u);
    EXPECT_EQ(regs[5], 1u);
    EXPECT_EQ(regs[6], 0u);
}

TEST(Interpreter, LoadStoreWithOffset)
{
    ProgramBuilder b("mem");
    b.movi(1, 0x2000).movi(2, 99);
    b.store(1, 16, 2);
    b.load(3, 1, 16);
    b.halt();
    MemoryImage mem;
    auto regs = runProgram(b.build(), mem);
    EXPECT_EQ(regs[3], 99u);
    EXPECT_EQ(mem.read(0x2010), 99u);
}

TEST(Interpreter, ConditionalBranchesBothWays)
{
    ProgramBuilder b("br");
    auto taken = b.makeLabel();
    auto out = b.makeLabel();
    b.movi(1, 0);
    b.beqz(1, taken);
    b.movi(2, 111); // skipped
    b.bind(taken);
    b.movi(3, 5);
    b.bnez(3, out);
    b.movi(4, 222); // skipped
    b.bind(out);
    b.halt();
    MemoryImage mem;
    auto regs = runProgram(b.build(), mem);
    EXPECT_EQ(regs[2], 0u);
    EXPECT_EQ(regs[3], 5u);
    EXPECT_EQ(regs[4], 0u);
}

TEST(Interpreter, CallAndReturn)
{
    ProgramBuilder b("call");
    auto fn = b.makeLabel();
    auto after = b.makeLabel();
    b.movi(1, 1);
    b.call(10, fn);
    b.bind(after);
    b.movi(3, 7);
    b.halt();
    b.bind(fn);
    b.movi(2, 4);
    b.ret(10);
    MemoryImage mem;
    auto regs = runProgram(b.build(), mem);
    EXPECT_EQ(regs[2], 4u);
    EXPECT_EQ(regs[3], 7u);
}

TEST(Interpreter, RecordCarriesBranchOutcome)
{
    ProgramBuilder b("rec");
    auto l = b.makeLabel();
    b.movi(1, 0);
    b.beqz(1, l);
    b.nop();
    b.bind(l);
    b.halt();
    MemoryImage mem;
    auto p = b.build();
    Interpreter interp(p, mem);
    interp.step(); // movi
    auto r = interp.step();
    EXPECT_TRUE(r.taken);
    EXPECT_EQ(r.nextPc, 3u);
    EXPECT_EQ(r.seq, 1u);
}

TEST(Interpreter, StepAfterHaltPanics)
{
    ProgramBuilder b("h");
    b.halt();
    MemoryImage mem;
    auto p = b.build();
    Interpreter interp(p, mem);
    interp.step();
    EXPECT_TRUE(interp.halted());
    EXPECT_THROW(interp.step(), PanicError);
}

// --- OracleStream ---

TEST(OracleStream, LazyMaterializationAndRelease)
{
    ProgramBuilder b("o");
    auto loop = b.makeLabel();
    b.movi(0, 10);
    b.bind(loop);
    b.addi(0, 0, -1);
    b.bnez(0, loop);
    b.halt();
    MemoryImage mem;
    auto p = b.build();
    OracleStream oracle(p, mem);

    EXPECT_EQ(oracle.frontier(), 0u);
    const auto &r5 = oracle.at(5);
    EXPECT_EQ(r5.seq, 5u);
    EXPECT_EQ(oracle.frontier(), 6u);

    oracle.releaseBelow(4);
    EXPECT_EQ(oracle.base(), 4u);
    EXPECT_THROW(oracle.at(2), PanicError);
    EXPECT_EQ(oracle.at(4).seq, 4u);
}

TEST(OracleStream, HasRecordStopsAtHalt)
{
    ProgramBuilder b("o2");
    b.movi(1, 1);
    b.halt();
    MemoryImage mem;
    auto p = b.build();
    OracleStream oracle(p, mem);
    EXPECT_TRUE(oracle.hasRecord(1));
    EXPECT_FALSE(oracle.hasRecord(2));
    EXPECT_TRUE(oracle.sawHalt());
    EXPECT_EQ(oracle.haltSeq(), 1u);
}

// --- WrongPathWalker ---

TEST(WrongPathWalker, StoresStayPrivate)
{
    ProgramBuilder b("wp");
    b.movi(1, 0x3000);
    b.movi(2, 7);
    b.store(1, 0, 2);
    b.load(3, 1, 0);
    b.halt();
    auto p = b.build();
    MemoryImage mem;
    mem.write(0x3000, 42);

    WrongPathWalker walker(p, mem);
    RegFile regs{};
    regs[1] = 0x3000;
    regs[2] = 7;
    walker.restart(regs);

    auto st = walker.execute(2); // the store
    EXPECT_EQ(st.memAddr, 0x3000u);
    EXPECT_EQ(mem.read(0x3000), 42u) << "wrong-path store leaked";

    auto ld = walker.execute(3); // forwarded from the private buffer
    EXPECT_EQ(ld.result, 7u);
}

TEST(WrongPathWalker, ReadsSharedMemory)
{
    ProgramBuilder b("wp2");
    b.load(3, 1, 0);
    b.halt();
    auto p = b.build();
    MemoryImage mem;
    mem.write(0x4000, 1234);
    WrongPathWalker walker(p, mem);
    RegFile regs{};
    regs[1] = 0x4000;
    walker.restart(regs);
    auto ld = walker.execute(0);
    EXPECT_EQ(ld.result, 1234u);
}

TEST(WrongPathWalker, InactiveUsePanics)
{
    ProgramBuilder b("wp3");
    b.halt();
    auto p = b.build();
    MemoryImage mem;
    WrongPathWalker walker(p, mem);
    EXPECT_THROW(walker.execute(0), PanicError);
}

TEST(WrongPathWalker, RestartWhileActivePanics)
{
    // The core runs one walk at a time (baseline wrong path, CDF's
    // shared wrong path or PRE's shadow walk): starting a second walk
    // over a live one is a bug, not a reset.
    ProgramBuilder b("wp5");
    b.halt();
    auto p = b.build();
    MemoryImage mem;
    WrongPathWalker walker(p, mem);
    RegFile regs{};
    walker.restart(regs);
    EXPECT_THROW(walker.restart(regs), PanicError);
    walker.deactivate();
    EXPECT_NO_THROW(walker.restart(regs));
    EXPECT_TRUE(walker.active());
}

TEST(WrongPathWalker, SharedEvaluateMatchesInterpreter)
{
    // The walker and interpreter share evaluate(); a quick spot
    // check that a wrong-path execution of the same uops from the
    // same register state produces identical results.
    ProgramBuilder b("wp4");
    b.movi(1, 10);
    b.addi(2, 1, 5);
    b.mul(3, 2, 2);
    b.halt();
    auto p = b.build();

    MemoryImage m1;
    Interpreter interp(p, m1);
    auto i0 = interp.step();
    auto i1 = interp.step();
    auto i2 = interp.step();

    MemoryImage m2;
    WrongPathWalker walker(p, m2);
    RegFile regs{};
    walker.restart(regs);
    auto w0 = walker.execute(0);
    auto w1 = walker.execute(1);
    auto w2 = walker.execute(2);

    EXPECT_EQ(i0.result, w0.result);
    EXPECT_EQ(i1.result, w1.result);
    EXPECT_EQ(i2.result, w2.result);
}

namespace
{

/** A straight run through every opcode: each ALU op, a store and a
 *  load, a not-taken and a taken conditional branch, a jump, and a
 *  call whose callee returns to the halt. */
Program
everyOpcodeProgram()
{
    ProgramBuilder b("every_op");
    const auto l1 = b.makeLabel();
    const auto l2 = b.makeLabel();
    const auto l3 = b.makeLabel();
    const auto fn = b.makeLabel();
    b.movi(1, 0x5000).movi(2, 7).nop();
    b.add(3, 1, 2).sub(4, 3, 2).mul(5, 2, 2).div(6, 5, 2);
    b.and_(7, 5, 2).or_(8, 5, 2).xor_(9, 5, 2).shl(10, 2, 2);
    b.shr(11, 5, 2).cmplt(12, 2, 5).cmpeq(13, 2, 2).mov(14, 5);
    b.addi(15, 2, -3).fadd(16, 2, 5).fmul(17, 2, 5).fdiv(18, 5, 2);
    b.store(1, 8, 2).load(19, 1, 8);
    b.beqz(2, l1);
    b.bind(l1);
    b.bnez(2, l2);
    b.bind(l2);
    b.jmp(l3);
    b.bind(l3);
    b.call(20, fn);
    b.halt();
    b.bind(fn);
    b.ret(20);
    return b.build();
}

/** Fill @p r with a non-zero byte pattern, as a reused slot holds. */
void
dirty(ExecRecord &r)
{
    static_assert(std::is_trivially_copyable_v<ExecRecord>);
    std::memset(static_cast<void *>(&r), 0xA5, sizeof(r));
}

std::vector<std::uint8_t>
bytesOf(const ExecRecord &r)
{
    SnapWriter w;
    w(r);
    return w.take();
}

} // namespace

TEST(Isa, EvaluateIntoDirtyRecordMatchesFresh)
{
    // Fetch evaluates records into reused slots (the oracle window,
    // the CDF wrong-path buffer), so evaluation must write every
    // field: a stale taken/halt/memAddr/result would leak into the
    // timing model.
    const Program p = everyOpcodeProgram();
    std::set<Opcode> seen;

    MemoryImage m1;
    MemoryImage m2;
    Interpreter fresh(p, m1);
    Interpreter reused(p, m2);
    ExecRecord slot;
    while (!fresh.halted()) {
        ExecRecord a;
        fresh.stepInto(a);
        dirty(slot);
        reused.stepInto(slot);
        seen.insert(a.uop.op);
        EXPECT_EQ(bytesOf(a), bytesOf(slot))
            << "interpreter, " << toString(a.uop);
    }
    EXPECT_TRUE(reused.halted());
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(Opcode::Halt) + 1)
        << "the program no longer covers every opcode";

    // The walker, from a register state where both branches are
    // taken one way and not the other, over every pc in turn.
    WrongPathWalker wFresh(p, m1);
    WrongPathWalker wReused(p, m2);
    RegFile regs{};
    regs[1] = 0x6000;
    regs[2] = 0; // beqz taken, bnez not
    regs[20] = 3;
    wFresh.restart(regs);
    wReused.restart(regs);
    for (Addr pc = 0; pc < p.size(); ++pc) {
        ExecRecord a;
        wFresh.executeInto(a, pc);
        dirty(slot);
        wReused.executeInto(slot, pc);
        EXPECT_EQ(bytesOf(a), bytesOf(slot))
            << "walker, " << toString(a.uop);
        EXPECT_EQ(a.seq, kInvalidSeq);
    }
}

// --- Uop helpers ---

TEST(Uop, PredicatesAndLatencies)
{
    Uop ld{Opcode::Load, 1, 2, kInvalidReg, 0};
    Uop st{Opcode::Store, kInvalidReg, 1, 2, 0};
    Uop br{Opcode::Beqz, kInvalidReg, 1, kInvalidReg, 0};
    Uop ret{Opcode::Ret, kInvalidReg, 1, kInvalidReg, 0};

    EXPECT_TRUE(ld.isLoad());
    EXPECT_TRUE(ld.isMem());
    EXPECT_TRUE(ld.writesReg());
    EXPECT_TRUE(st.isStore());
    EXPECT_FALSE(st.writesReg());
    EXPECT_TRUE(br.isCondBranch());
    EXPECT_TRUE(ret.isIndirect());
    EXPECT_TRUE(ret.isUncondBranch());

    EXPECT_EQ(executeLatency(Opcode::Add), 1u);
    EXPECT_EQ(executeLatency(Opcode::Mul), 3u);
    EXPECT_EQ(executeLatency(Opcode::FDiv), 12u);
}

TEST(Uop, ToStringRendersUsefully)
{
    Uop u{Opcode::Load, 3, 1, kInvalidReg, 16};
    EXPECT_EQ(toString(u), "load r3, [r1+16]");
}
