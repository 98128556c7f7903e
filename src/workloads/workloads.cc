#include "workloads/workloads.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/types.hh"

namespace cdfsim::workloads
{

namespace
{

using isa::ProgramBuilder;

// --- Register conventions shared by every kernel ---
constexpr RegId rCnt = 0;        // main loop countdown
constexpr RegId rStreamBase = 1;
constexpr RegId rBigBase = 2;
constexpr RegId rPtr = 3;        // pointer-chase cursor
constexpr RegId rLcg = 4;        // xorshift state
constexpr RegId rStreamMask = 5; // stream index mask (in words)
constexpr RegId rBigMask = 6;    // big-array index mask (in words)
constexpr RegId rInd = 7;        // induction variable
constexpr RegId rT0 = 8;
constexpr RegId rT1 = 9;
constexpr RegId rT2 = 10;
constexpr RegId rT3 = 11;
constexpr RegId rT4 = 12;
constexpr RegId rT5 = 13;
constexpr RegId rAcc = 14;
constexpr RegId rScratchBase = 15;
constexpr RegId rFillBase = 16; // r16..r29 are filler temps
constexpr RegId rC13 = 30;
constexpr RegId rC7 = 31;
constexpr RegId rC17 = 32;
constexpr RegId rC3 = 33;       // word->byte shift
constexpr RegId rC1 = 34;
constexpr RegId rLink = 35;

// --- Memory map (byte addresses) ---
constexpr Addr kStreamBase = 0x1000'0000;
constexpr Addr kBigBase = 0x4000'0000;
constexpr Addr kChainBase = 0x8000'0000;
constexpr Addr kScratchBase = 0xC000'0000;

/** Standard prologue: constants and array bases. */
void
emitPrologue(ProgramBuilder &b, std::int64_t iterations)
{
    b.movi(rCnt, iterations);
    b.movi(rStreamBase, static_cast<std::int64_t>(kStreamBase));
    b.movi(rBigBase, static_cast<std::int64_t>(kBigBase));
    b.movi(rScratchBase, static_cast<std::int64_t>(kScratchBase));
    b.movi(rLcg, 0x2545F4914F6CDD1D);
    b.movi(rInd, 0);
    b.movi(rAcc, 0);
    b.movi(rC13, 13);
    b.movi(rC7, 7);
    b.movi(rC17, 17);
    b.movi(rC3, 3);
    b.movi(rC1, 1);
}

/** xorshift64 step on rLcg (6 uops). */
void
emitLcg(ProgramBuilder &b)
{
    b.shl(rT0, rLcg, rC13);
    b.xor_(rLcg, rLcg, rT0);
    b.shr(rT0, rLcg, rC7);
    b.xor_(rLcg, rLcg, rT0);
    b.shl(rT0, rLcg, rC17);
    b.xor_(rLcg, rLcg, rT0);
}

/**
 * dst = mem64[base + (idx & mask) * 8]; clobbers tmp. 4 uops.
 */
void
emitIndexedLoad(ProgramBuilder &b, RegId dst, RegId base, RegId idx,
                RegId mask, RegId tmp)
{
    b.and_(tmp, idx, mask);
    b.shl(tmp, tmp, rC3);
    b.add(tmp, tmp, base);
    b.load(dst, tmp, 0);
}

/**
 * Predictable ALU filler: @p n uops across the filler temps with
 * short dependency chains that never touch critical registers.
 */
void
emitFiller(ProgramBuilder &b, unsigned n)
{
    for (unsigned i = 0; i < n; ++i) {
        const RegId d = rFillBase + (i % 14);
        const RegId s = rFillBase + ((i + 5) % 14);
        if (i % 3 == 0)
            b.add(d, d, s);
        else if (i % 3 == 1)
            b.xor_(d, d, s);
        else
            b.addi(d, d, 7);
    }
}

/** Fill [base, base + words*8) with rng values masked by valueMask. */
void
fillRandom(isa::MemoryImage &mem, Addr base, std::uint64_t words,
           Random &rng, std::uint64_t valueMask = ~0ull)
{
    mem.writeWords(base, words,
                   [&] { return rng.next() & valueMask; });
}

/**
 * Build a single-cycle random permutation chain: each word holds
 * the byte address of the next element (Sattolo's algorithm), so a
 * pointer chase visits every element before repeating.
 */
void
fillChain(isa::MemoryImage &mem, Addr base, std::uint64_t words,
          Random &rng)
{
    std::vector<std::uint32_t> perm(words);
    for (std::uint64_t i = 0; i < words; ++i)
        perm[i] = static_cast<std::uint32_t>(i);
    for (std::uint64_t i = words - 1; i > 0; --i) {
        const std::uint64_t j = rng.below(i);
        std::swap(perm[i], perm[j]);
    }
    std::uint64_t i = 0;
    mem.writeWords(base, words,
                   [&] { return base + perm[i++] * 8ull; });
}

constexpr std::int64_t kForever = 1'000'000'000;

// =====================================================================
// Kernels
// =====================================================================

/**
 * astar-like: a streaming load feeds a data-dependent random index
 * into a large array (an LLC miss), guarded by a hard-to-predict
 * branch on the loaded value (paper Fig. 2). Misses are independent
 * across iterations, so a larger effective window directly buys MLP.
 */
Workload
astarLike(std::uint64_t seed)
{
    constexpr std::uint64_t streamWords = 1ull << 13;  // 64KB: LLC-hot
    constexpr std::uint64_t bigWords = 1ull << 22;     // 32MB
    ProgramBuilder b("astar_like");
    emitPrologue(b, kForever);
    b.movi(rStreamMask, streamWords - 1);
    b.movi(rBigMask, bigWords - 1);
    auto loop = b.makeLabel();
    auto skip = b.makeLabel();
    b.bind(loop);
    b.addi(rInd, rInd, 1);
    // Streaming index load (prefetch-friendly / LLC-resident).
    emitIndexedLoad(b, rT1, rStreamBase, rInd, rStreamMask, rT0);
    // Mix in the induction variable so the index stream does not
    // cycle with the (small) index array.
    b.add(rT1, rT1, rInd);
    // Critical: random-index load into the big array.
    emitIndexedLoad(b, rT2, rBigBase, rT1, rBigMask, rT0);
    // Hard-to-predict branch on the loaded value (~25% taken).
    b.and_(rT3, rT2, rC3);
    b.bnez(rT3, skip);
    b.add(rAcc, rAcc, rT2);
    b.addi(rAcc, rAcc, 3);
    b.bind(skip);
    emitFiller(b, 26);
    b.addi(rCnt, rCnt, -1);
    b.bnez(rCnt, loop);
    b.halt();

    Workload w;
    w.name = "astar";
    w.description = "random-index misses behind a hard branch";
    w.program = b.build();
    w.init = [seed](isa::MemoryImage &mem) {
        Random rng(seed ^ 0xA57A);
        fillRandom(mem, kStreamBase, streamWords, rng);
        fillRandom(mem, kBigBase, bigWords, rng);
    };
    return w;
}

/**
 * mcf-like: serial pointer chasing (dependent misses) with a
 * hard-to-predict branch on the node payload. No MLP to extract;
 * CDF gains via early initiation and critical-branch resolution,
 * while runahead chains taint on the outstanding miss.
 */
Workload
mcfLike(std::uint64_t seed)
{
    constexpr std::uint64_t chainWords = 1ull << 21; // 16MB
    ProgramBuilder b("mcf_like");
    emitPrologue(b, kForever);
    b.movi(rPtr, static_cast<std::int64_t>(kChainBase));
    b.movi(rT4, static_cast<std::int64_t>(kChainBase) + 8 * 7);
    auto loop = b.makeLabel();
    auto skip = b.makeLabel();
    b.bind(loop);
    // Two interleaved pointer chains: a little MLP exists, gated by
    // hard-to-predict payload branches between the hops.
    b.load(rPtr, rPtr, 0);       // critical: dependent miss, chain A
    b.shr(rT1, rPtr, rC3);       // pseudo payload from the address
    b.and_(rT2, rT1, rC3);
    b.beqz(rT2, skip);           // hard branch (~25% taken)
    b.add(rAcc, rAcc, rT1);
    b.bind(skip);
    b.load(rT4, rT4, 0);         // critical: chain B
    emitFiller(b, 18);
    b.addi(rCnt, rCnt, -1);
    b.bnez(rCnt, loop);
    b.halt();

    Workload w;
    w.name = "mcf";
    w.description = "pointer chase with hard payload branches";
    w.program = b.build();
    w.init = [seed](isa::MemoryImage &mem) {
        Random rng(seed ^ 0x3CF);
        fillChain(mem, kChainBase, chainWords, rng);
    };
    return w;
}

/**
 * lbm-like: wide streaming (prefetcher-covered) plus an
 * LCG-indexed independent miss every iteration; full-window stalls
 * are short, starving runahead, while CDF still extracts MLP.
 */
Workload
lbmLike(std::uint64_t seed)
{
    constexpr std::uint64_t streamWords = 1ull << 21; // 16MB stream
    constexpr std::uint64_t bigWords = 1ull << 18;    // 2MB: ~50% hit
    ProgramBuilder b("lbm_like");
    emitPrologue(b, kForever);
    b.movi(rStreamMask, streamWords - 1);
    b.movi(rBigMask, bigWords - 1);
    auto loop = b.makeLabel();
    b.bind(loop);
    b.addi(rInd, rInd, 1);
    // Three streaming loads + one streaming store (prefetchable).
    emitIndexedLoad(b, rT1, rStreamBase, rInd, rStreamMask, rT0);
    emitIndexedLoad(b, rT2, rStreamBase, rInd, rStreamMask, rT0);
    b.fadd(rT3, rT1, rT2);
    emitIndexedLoad(b, rT4, rStreamBase, rInd, rStreamMask, rT0);
    b.fmul(rT3, rT3, rT4);
    b.and_(rT0, rInd, rStreamMask);
    b.shl(rT0, rT0, rC3);
    b.add(rT0, rT0, rScratchBase);
    b.store(rT0, 0, rT3);
    // Independent random miss (register-computed index) only every
    // fourth iteration: full-window stalls stay short.
    emitLcg(b);
    auto noMiss = b.makeLabel();
    b.and_(rT5, rInd, rC3);
    b.bnez(rT5, noMiss);
    emitIndexedLoad(b, rT5, rBigBase, rLcg, rBigMask, rT0);
    b.add(rAcc, rAcc, rT5);
    b.bind(noMiss);
    emitFiller(b, 10);
    b.addi(rCnt, rCnt, -1);
    b.bnez(rCnt, loop);
    b.halt();

    Workload w;
    w.name = "lbm";
    w.description = "streaming with short stalls + independent misses";
    w.program = b.build();
    w.init = [seed](isa::MemoryImage &mem) {
        Random rng(seed ^ 0x1B);
        fillRandom(mem, kStreamBase, streamWords, rng);
        fillRandom(mem, kBigBase, 1ull << 18, rng); // values immaterial
    };
    return w;
}

/**
 * bzip2-like: long stretches of branchy, predictable-latency integer
 * work with a stall-causing load only every ~32 iterations. CDF's
 * win is faster initiation of the distant load.
 */
Workload
bzipLike(std::uint64_t seed, const char *name = "bzip2",
         unsigned gapIters = 32, unsigned fillerPerIter = 20)
{
    constexpr std::uint64_t bigWords = 1ull << 22;
    ProgramBuilder b(name);
    emitPrologue(b, kForever);
    b.movi(rBigMask, bigWords - 1);
    b.movi(rStreamMask, gapIters - 1); // reused as the gap mask
    auto loop = b.makeLabel();
    auto noMiss = b.makeLabel();
    auto skip = b.makeLabel();
    b.bind(loop);
    b.addi(rInd, rInd, 1);
    emitLcg(b);
    // A mildly hard branch on LCG bits (~12% taken).
    b.and_(rT1, rLcg, rC7);
    b.bnez(rT1, skip);
    b.addi(rAcc, rAcc, 1);
    b.bind(skip);
    emitFiller(b, fillerPerIter);
    // The distant critical load: only when (ind & gapMask) == 0.
    b.and_(rT2, rInd, rStreamMask);
    b.bnez(rT2, noMiss);
    emitIndexedLoad(b, rT3, rBigBase, rLcg, rBigMask, rT0);
    b.add(rAcc, rAcc, rT3);
    b.bind(noMiss);
    b.addi(rCnt, rCnt, -1);
    b.bnez(rCnt, loop);
    b.halt();

    Workload w;
    w.name = name;
    w.description = "stall-causing loads spaced far apart";
    w.program = b.build();
    w.init = [seed](isa::MemoryImage &mem) {
        Random rng(seed ^ 0xB21);
        fillRandom(mem, kBigBase, 1ull << 18, rng);
    };
    return w;
}

/**
 * soplex-like: sparse-matrix traversal; an index vector (streamed)
 * selects values from a footprint ~4x the LLC, with a value branch.
 */
Workload
soplexLike(std::uint64_t seed)
{
    constexpr std::uint64_t streamWords = 1ull << 13;
    constexpr std::uint64_t medWords = 1ull << 19; // 4MB: ~75% miss
    ProgramBuilder b("soplex_like");
    emitPrologue(b, kForever);
    b.movi(rStreamMask, streamWords - 1);
    b.movi(rBigMask, medWords - 1);
    auto loop = b.makeLabel();
    auto skip = b.makeLabel();
    b.bind(loop);
    b.addi(rInd, rInd, 1);
    emitIndexedLoad(b, rT1, rStreamBase, rInd, rStreamMask, rT0);
    emitIndexedLoad(b, rT2, rBigBase, rT1, rBigMask, rT0);
    b.and_(rT3, rT2, rC1);
    b.bnez(rT3, skip); // ~50% hard branch on sparse value
    b.fmul(rT4, rT2, rT1);
    b.fadd(rAcc, rAcc, rT4);
    b.bind(skip);
    emitFiller(b, 14);
    b.addi(rCnt, rCnt, -1);
    b.bnez(rCnt, loop);
    b.halt();

    Workload w;
    w.name = "soplex";
    w.description = "sparse matrix with value-dependent branches";
    w.program = b.build();
    w.init = [seed](isa::MemoryImage &mem) {
        Random rng(seed ^ 50);
        fillRandom(mem, kStreamBase, streamWords, rng);
        fillRandom(mem, kBigBase, medWords, rng);
    };
    return w;
}

/**
 * libquantum-like: pure gate sweep over a huge amplitude array;
 * the stream prefetcher covers nearly everything. Neither mechanism
 * helps; runahead merely duplicates prefetches.
 */
Workload
libquantumLike(std::uint64_t seed)
{
    constexpr std::uint64_t streamWords = 1ull << 22; // 32MB
    ProgramBuilder b("libquantum_like");
    emitPrologue(b, kForever);
    b.movi(rStreamMask, streamWords - 1);
    auto loop = b.makeLabel();
    auto skip = b.makeLabel();
    b.bind(loop);
    b.addi(rInd, rInd, 1);
    emitIndexedLoad(b, rT1, rStreamBase, rInd, rStreamMask, rT0);
    b.xor_(rT2, rT1, rC13);          // toggle control bit
    b.and_(rT3, rInd, rC1);
    b.beqz(rT3, skip);               // alternating: well-predicted
    b.add(rAcc, rAcc, rT2);
    b.bind(skip);
    b.and_(rT0, rInd, rStreamMask);
    b.shl(rT0, rT0, rC3);
    b.add(rT0, rT0, rStreamBase);
    b.store(rT0, 0, rT2);
    emitFiller(b, 6);
    b.addi(rCnt, rCnt, -1);
    b.bnez(rCnt, loop);
    b.halt();

    Workload w;
    w.name = "libquantum";
    w.description = "prefetcher-covered streaming sweep";
    w.program = b.build();
    w.init = [seed](isa::MemoryImage &mem) {
        Random rng(seed ^ 0x11B);
        fillRandom(mem, kStreamBase, streamWords, rng, 0xFF);
    };
    return w;
}

/**
 * CactuBSSN-like: stencil whose chain loads become address-tainted
 * during runahead (the stencil offset is loaded under the
 * outstanding miss), reproducing PRE's excess memory traffic.
 */
Workload
cactuLike(std::uint64_t seed)
{
    constexpr std::uint64_t bigWords = 1ull << 22;
    ProgramBuilder b("cactu_like");
    emitPrologue(b, kForever);
    b.movi(rBigMask, bigWords - 1);
    auto loop = b.makeLabel();
    b.bind(loop);
    b.addi(rInd, rInd, 1);
    // A register-computable first miss feeding a value-dependent
    // second hop: runahead can prefetch the first level but its
    // second-level chains compute with unavailable data, producing
    // the wrong-address traffic the paper attributes to runahead on
    // CactuBSSN.
    emitLcg(b);
    emitIndexedLoad(b, rT1, rBigBase, rLcg, rBigMask, rT0);
    emitIndexedLoad(b, rT2, rBigBase, rT1, rBigMask, rT0);
    b.fadd(rAcc, rAcc, rT2);
    emitFiller(b, 16);
    b.addi(rCnt, rCnt, -1);
    b.bnez(rCnt, loop);
    b.halt();

    Workload w;
    w.name = "cactu";
    w.description = "dependent stencil loads (runahead taints)";
    w.program = b.build();
    w.init = [seed](isa::MemoryImage &mem) {
        Random rng(seed ^ 0xCAC);
        fillRandom(mem, kBigBase, bigWords, rng);
    };
    return w;
}

/**
 * Dense-critical family (GemsFDTD / zeusmp / fotonik3d / roms):
 * several independent register-computed misses in a short loop.
 * Criticality density is high, so CDF cannot skip much, while
 * runahead prefetches the register-computable future addresses
 * accurately and far ahead.
 */
Workload
denseLike(std::uint64_t seed, const char *name, unsigned missesPerIter,
          unsigned fillerPerIter)
{
    constexpr std::uint64_t bigWords = 1ull << 22;
    ProgramBuilder b(name);
    emitPrologue(b, kForever);
    b.movi(rBigMask, bigWords - 1);
    auto loop = b.makeLabel();
    auto noA = b.makeLabel();
    b.bind(loop);
    b.addi(rInd, rInd, 1);
    emitLcg(b);
    // An independent (register-computable) miss every other
    // iteration: the baseline window exposes only moderate MLP,
    // while runahead can compute and prefetch these far ahead.
    b.and_(rT5, rInd, rC1);
    b.bnez(rT5, noA);
    emitIndexedLoad(b, rT2, rBigBase, rLcg, rBigMask, rT0);
    // A dependent second hop (value-indexed): serial for everyone.
    emitIndexedLoad(b, rT3, rBigBase, rT2, rBigMask, rT0);
    b.add(rAcc, rAcc, rT3);
    b.bind(noA);
    (void)missesPerIter;
    emitFiller(b, fillerPerIter);
    b.addi(rCnt, rCnt, -1);
    b.bnez(rCnt, loop);
    b.halt();

    Workload w;
    w.name = name;
    w.description = "dense independent misses (runahead-friendly)";
    w.program = b.build();
    w.init = [seed](isa::MemoryImage &mem) {
        Random rng(seed ^ 0xDE45E);
        fillRandom(mem, kBigBase, 1ull << 18, rng);
    };
    return w;
}

/**
 * Neutral family (leslie3d / wrf / parest): moderate LLC-resident
 * working sets and predictable control; there is little for either
 * mechanism to accelerate.
 */
Workload
neutralLike(std::uint64_t seed, const char *name, unsigned filler,
            std::uint64_t wsWords)
{
    ProgramBuilder b(name);
    emitPrologue(b, kForever);
    b.movi(rBigMask, static_cast<std::int64_t>(wsWords - 1));
    auto loop = b.makeLabel();
    b.bind(loop);
    b.addi(rInd, rInd, 1);
    emitLcg(b);
    emitIndexedLoad(b, rT1, rBigBase, rLcg, rBigMask, rT0);
    b.fadd(rAcc, rAcc, rT1);
    emitIndexedLoad(b, rT2, rBigBase, rInd, rBigMask, rT0);
    b.fmul(rT3, rT1, rT2);
    b.add(rAcc, rAcc, rT3);
    emitFiller(b, filler);
    b.addi(rCnt, rCnt, -1);
    b.bnez(rCnt, loop);
    b.halt();

    Workload w;
    w.name = name;
    w.description = "LLC-resident working set; little to accelerate";
    w.program = b.build();
    w.init = [seed, wsWords](isa::MemoryImage &mem) {
        Random rng(seed ^ 0x7E0);
        fillRandom(mem, kBigBase, wsWords, rng);
    };
    return w;
}

/**
 * sphinx3-like: the critical load's index register is produced by a
 * DIFFERENT instruction on alternating control paths, so
 * Fill-Buffer masks keep missing producers and CDF suffers
 * dependence violations (paper Fig. 12's pattern).
 */
Workload
sphinxLike(std::uint64_t seed)
{
    constexpr std::uint64_t medWords = 1ull << 19;
    ProgramBuilder b("sphinx_like");
    emitPrologue(b, kForever);
    b.movi(rBigMask, medWords - 1);
    auto loop = b.makeLabel();
    auto pathB = b.makeLabel();
    auto join = b.makeLabel();
    b.bind(loop);
    b.addi(rInd, rInd, 1);
    emitLcg(b);
    b.and_(rT1, rLcg, rC1);
    b.bnez(rT1, pathB);          // ~50% data-dependent path choice
    b.shr(rT2, rLcg, rC7);       // path A produces the index in rT2
    b.jmp(join);
    b.bind(pathB);
    b.shr(rT2, rLcg, rC13);      // path B produces it differently
    b.bind(join);
    emitIndexedLoad(b, rT3, rBigBase, rT2, rBigMask, rT0);
    b.add(rAcc, rAcc, rT3);
    emitFiller(b, 12);
    b.addi(rCnt, rCnt, -1);
    b.bnez(rCnt, loop);
    b.halt();

    Workload w;
    w.name = "sphinx3";
    w.description = "path-dependent producers defeat mask accumulation";
    w.program = b.build();
    w.init = [seed](isa::MemoryImage &mem) {
        Random rng(seed ^ 0x5F1);
        fillRandom(mem, kBigBase, medWords, rng);
    };
    return w;
}

/**
 * omnetpp-like: event-queue pointer chasing with long dependence
 * chains that overflow the Fill Buffer, plus branchy dispatch.
 */
Workload
omnetppLike(std::uint64_t seed)
{
    constexpr std::uint64_t chainWords = 1ull << 20;
    ProgramBuilder b("omnetpp_like");
    emitPrologue(b, kForever);
    b.movi(rPtr, static_cast<std::int64_t>(kChainBase));
    auto loop = b.makeLabel();
    auto skip1 = b.makeLabel();
    auto skip2 = b.makeLabel();
    b.bind(loop);
    b.load(rPtr, rPtr, 0);
    b.shr(rT1, rPtr, rC3);
    b.and_(rT2, rT1, rC7);
    b.beqz(rT2, skip1);
    b.addi(rAcc, rAcc, 1);
    b.bind(skip1);
    emitFiller(b, 30);
    b.and_(rT3, rT1, rC1);
    b.bnez(rT3, skip2);
    b.add(rAcc, rAcc, rT1);
    b.bind(skip2);
    emitFiller(b, 30);
    b.addi(rCnt, rCnt, -1);
    b.bnez(rCnt, loop);
    b.halt();

    Workload w;
    w.name = "omnetpp";
    w.description = "event-queue chasing with dispatch branches";
    w.program = b.build();
    w.init = [seed](isa::MemoryImage &mem) {
        Random rng(seed ^ 0x03E7);
        fillChain(mem, kChainBase, chainWords, rng);
    };
    return w;
}

} // namespace

std::vector<std::string>
allWorkloadNames()
{
    return {"astar",   "mcf",       "soplex",  "bzip2",      "nab",
            "lbm",     "libquantum", "cactu",   "gems",       "zeusmp",
            "fotonik", "roms",       "leslie3d", "sphinx3",    "wrf",
            "parest",  "omnetpp"};
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "astar")
        return astarLike(seed);
    if (name == "mcf")
        return mcfLike(seed);
    if (name == "soplex")
        return soplexLike(seed);
    if (name == "bzip2")
        return bzipLike(seed, "bzip2", 48, 22);
    if (name == "nab")
        return bzipLike(seed ^ 0xAB, "nab", 96, 26);
    if (name == "lbm")
        return lbmLike(seed);
    if (name == "libquantum")
        return libquantumLike(seed);
    if (name == "cactu")
        return cactuLike(seed);
    if (name == "gems")
        return denseLike(seed, "gems", 3, 3);
    if (name == "zeusmp")
        return denseLike(seed ^ 1, "zeusmp", 2, 2);
    if (name == "fotonik")
        return denseLike(seed ^ 2, "fotonik", 3, 5);
    if (name == "roms")
        return denseLike(seed ^ 3, "roms", 2, 4);
    if (name == "leslie3d")
        return neutralLike(seed, "leslie3d", 10, 1ull << 13);
    if (name == "sphinx3")
        return sphinxLike(seed);
    if (name == "wrf")
        return neutralLike(seed ^ 5, "wrf", 16, 1ull << 13);
    if (name == "parest")
        return neutralLike(seed ^ 6, "parest", 8, 1ull << 12);
    if (name == "omnetpp")
        return omnetppLike(seed);
    fatal("unknown workload '", name, "'");
}

Workload
makeRandomWorkload(std::uint64_t seed, unsigned bodyBlocks,
                   unsigned iterations)
{
    Random rng(seed);
    ProgramBuilder b("random_" + std::to_string(seed));

    // Registers: r0 loop counter, r1 memory base, r2..r11 data.
    b.movi(0, iterations);
    b.movi(1, static_cast<std::int64_t>(kScratchBase));
    for (RegId r = 2; r <= 11; ++r)
        b.movi(r, static_cast<std::int64_t>(rng.below(1000)));

    auto loop = b.makeLabel();
    b.bind(loop);

    for (unsigned blk = 0; blk < bodyBlocks; ++blk) {
        const unsigned len = 2 + static_cast<unsigned>(rng.below(6));
        for (unsigned i = 0; i < len; ++i) {
            const RegId d = 2 + static_cast<RegId>(rng.below(10));
            const RegId s1 = 2 + static_cast<RegId>(rng.below(10));
            const RegId s2 = 2 + static_cast<RegId>(rng.below(10));
            switch (rng.below(10)) {
              case 0: b.add(d, s1, s2); break;
              case 1: b.sub(d, s1, s2); break;
              case 2: b.xor_(d, s1, s2); break;
              case 3: b.mul(d, s1, s2); break;
              case 4: b.cmplt(d, s1, s2); break;
              case 5: b.addi(d, s1,
                             static_cast<std::int64_t>(rng.below(64)));
                      break;
              case 6: { // load from a bounded scratch region
                  b.movi(12, 1023);
                  b.and_(13, s1, 12);
                  b.movi(12, 3);
                  b.shl(13, 13, 12);
                  b.add(13, 13, 1);
                  b.load(d, 13, 0);
                  break;
              }
              case 7: { // store into the scratch region
                  b.movi(12, 1023);
                  b.and_(13, s1, 12);
                  b.movi(12, 3);
                  b.shl(13, 13, 12);
                  b.add(13, 13, 1);
                  b.store(13, 0, s2);
                  break;
              }
              default: b.or_(d, s1, s2); break;
            }
        }
        // A data-dependent forward branch over a small block.
        if (rng.below(2) == 0) {
            auto skip = b.makeLabel();
            const RegId c = 2 + static_cast<RegId>(rng.below(10));
            b.movi(13, 1 + static_cast<std::int64_t>(rng.below(7)));
            b.and_(12, c, 13);
            if (rng.below(2) == 0)
                b.beqz(12, skip);
            else
                b.bnez(12, skip);
            b.addi(2 + static_cast<RegId>(rng.below(10)), 2, 1);
            b.xor_(2 + static_cast<RegId>(rng.below(10)), 3, 4);
            b.bind(skip);
        }
    }

    b.addi(0, 0, -1);
    b.bnez(0, loop);
    b.halt();

    Workload w;
    w.name = "random_" + std::to_string(seed);
    w.description = "random property-test program";
    w.program = b.build();
    const std::uint64_t memSeed = seed ^ 0xF00D;
    w.init = [memSeed](isa::MemoryImage &mem) {
        Random r2(memSeed);
        fillRandom(mem, kScratchBase, 4096, r2);
    };
    return w;
}

} // namespace cdfsim::workloads
