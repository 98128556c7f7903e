/**
 * @file
 * Unit tests for the branch prediction substrate: TAGE learning on
 * characteristic patterns, the loop predictor, checkpoint/recovery,
 * BTB, RAS, and the predictor facade.
 */

#include <gtest/gtest.h>

#include <string>

#include "bp/btb.hh"
#include "bp/predictor.hh"
#include "bp/tage.hh"
#include "common/stats.hh"

using namespace cdfsim;
using namespace cdfsim::bp;

namespace
{

/** Train & measure accuracy of TAGE on a pattern generator. */
template <typename Gen>
double
accuracy(Tage &tage, Addr pc, Gen &&gen, int warmup, int measure)
{
    int correct = 0;
    for (int i = 0; i < warmup + measure; ++i) {
        const bool actual = gen(i);
        auto ckpt = tage.checkpoint();
        auto info = tage.predict(pc);
        if (i >= warmup && info.taken == actual)
            ++correct;
        tage.update(pc, actual, info);
        // Mispredicts rewind speculative history, as the pipeline's
        // recovery would.
        if (info.taken != actual)
            tage.recover(ckpt, actual, pc);
    }
    return static_cast<double>(correct) / measure;
}

} // namespace

TEST(Tage, OutOfRangeGeometryIsAConfigError)
{
    // Every TAGE knob is a spec key. A bad value must fail as a
    // config error naming the key before any table is sized — never
    // an undefined shift, a 2^40-entry allocation, a NaN history
    // length or a silent clamp to the 256-bit history.
    struct Case
    {
        const char *key;
        unsigned TageConfig::*field;
        unsigned value;
    };
    const Case cases[] = {
        {"num_tables", &TageConfig::numTables, 0},
        {"num_tables", &TageConfig::numTables, kMaxTageTables + 1},
        {"table_bits_log2", &TageConfig::tableBitsLog2, 0},
        {"table_bits_log2", &TageConfig::tableBitsLog2, 40},
        {"table_bits_log2", &TageConfig::tableBitsLog2, 64},
        {"tag_bits", &TageConfig::tagBits, 0},
        {"tag_bits", &TageConfig::tagBits, 17},
        {"counter_bits", &TageConfig::counterBits, 0},
        {"counter_bits", &TageConfig::counterBits, 9},
        {"useful_bits", &TageConfig::usefulBits, 9},
        {"min_history", &TageConfig::minHistory, 0},
        {"min_history", &TageConfig::minHistory, 161}, // > max 160
        {"max_history", &TageConfig::maxHistory, 257},
        {"max_history", &TageConfig::maxHistory, 300},
        {"bimodal_bits_log2", &TageConfig::bimodalBitsLog2, 0},
        {"bimodal_bits_log2", &TageConfig::bimodalBitsLog2, 40},
        {"bimodal_bits_log2", &TageConfig::bimodalBitsLog2, 64},
        {"loop_entries", &TageConfig::loopEntries, 0},
        {"loop_entries", &TageConfig::loopEntries, kMaxLoopEntries + 1},
        {"sc_entries_log2", &TageConfig::scEntriesLog2, 0},
        {"sc_entries_log2", &TageConfig::scEntriesLog2, 40},
        {"sc_entries_log2", &TageConfig::scEntriesLog2, 64},
    };
    StatRegistry s;
    for (const Case &c : cases) {
        TageConfig config;
        config.*c.field = c.value;
        try {
            Tage tage(config, s);
            ADD_FAILURE() << c.key << " = " << c.value << " accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(std::string("bp.tage.") +
                                                 c.key),
                      std::string::npos)
                << "message must name the key: " << e.what();
        }
    }
}

TEST(Tage, GeometryRangeEdgesAreAccepted)
{
    StatRegistry s;
    TageConfig config;
    config.maxHistory = 256;
    config.minHistory = 256;
    config.numTables = kMaxTageTables;
    config.tagBits = 16;
    config.counterBits = 8;
    config.usefulBits = 0;
    config.loopEntries = kMaxLoopEntries;
    EXPECT_NO_THROW(Tage(config, s));
    config = TageConfig{};
    config.numTables = 1;
    config.minHistory = 1;
    config.maxHistory = 1;
    config.tableBitsLog2 = 1;
    config.tagBits = 1;
    config.counterBits = 1;
    config.bimodalBitsLog2 = 1;
    config.loopEntries = 1;
    config.scEntriesLog2 = 1;
    EXPECT_NO_THROW(Tage(config, s));
}

TEST(Tage, LearnsAlwaysTaken)
{
    StatRegistry s;
    Tage tage(TageConfig{}, s);
    double acc =
        accuracy(tage, 0x40, [](int) { return true; }, 50, 500);
    EXPECT_GT(acc, 0.99);
}

TEST(Tage, LearnsAlternatingPattern)
{
    StatRegistry s;
    Tage tage(TageConfig{}, s);
    double acc = accuracy(
        tage, 0x44, [](int i) { return (i & 1) == 0; }, 200, 500);
    EXPECT_GT(acc, 0.95);
}

TEST(Tage, LearnsLongPeriodicPattern)
{
    // Period-12 pattern: needs global history, not just bimodal.
    StatRegistry s;
    Tage tage(TageConfig{}, s);
    double acc = accuracy(
        tage, 0x48, [](int i) { return (i % 12) < 5; }, 600, 1000);
    EXPECT_GT(acc, 0.90);
}

TEST(Tage, RandomPatternStaysHard)
{
    StatRegistry s;
    Tage tage(TageConfig{}, s);
    // A xorshift-derived pseudo-random direction sequence.
    std::uint64_t state = 0x1234567;
    auto gen = [&state](int) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return (state & 1) != 0;
    };
    double acc = accuracy(tage, 0x4C, gen, 500, 2000);
    EXPECT_LT(acc, 0.75) << "predictor 'learned' randomness";
}

TEST(Tage, LoopPredictorCatchesFixedTripCount)
{
    StatRegistry s;
    TageConfig cfg;
    Tage tage(cfg, s);
    // Loop branch: taken 7 times, then not-taken, repeatedly. The
    // loop predictor should eventually nail the exits.
    int exits = 0, exitCorrect = 0;
    for (int iter = 0; iter < 300; ++iter) {
        for (int i = 0; i < 8; ++i) {
            const bool actual = i < 7;
            auto ckpt = tage.checkpoint();
            auto info = tage.predict(0x50);
            if (iter > 30 && !actual) {
                ++exits;
                if (!info.taken)
                    ++exitCorrect;
            }
            tage.update(0x50, actual, info);
            if (info.taken != actual)
                tage.recover(ckpt, actual, 0x50);
        }
    }
    EXPECT_GT(exits, 0);
    EXPECT_GT(static_cast<double>(exitCorrect) / exits, 0.9);
    EXPECT_GT(s.get("tage.loop_predictions"), 0u);
}

TEST(Tage, CheckpointRecoveryRestoresHistory)
{
    StatRegistry s;
    Tage tage(TageConfig{}, s);
    for (int i = 0; i < 64; ++i) {
        auto info = tage.predict(0x60 + (i % 3));
        tage.update(0x60 + (i % 3), i % 2 == 0, info);
    }
    auto ckpt = tage.checkpoint();
    const auto hashBefore = tage.historyHash(32);

    // Speculative predictions down a wrong path...
    for (int i = 0; i < 10; ++i)
        tage.predict(0x90 + i);
    EXPECT_NE(tage.historyHash(32), hashBefore);

    // ...recovered with the branch's actual outcome re-inserted.
    tage.recover(ckpt, true, 0x60);
    Tage reference(TageConfig{}, s);
    // Cannot compare against a reference easily; instead verify the
    // recovery is deterministic: recovering twice gives one state.
    auto h1 = tage.historyHash(32);
    tage.recover(ckpt, true, 0x60);
    EXPECT_EQ(tage.historyHash(32), h1);

    // And exact restore puts back the pre-prediction state.
    tage.restore(ckpt);
    EXPECT_EQ(tage.historyHash(32), hashBefore);
}

// --- BTB ---

TEST(Btb, MissThenHitAfterUpdate)
{
    StatRegistry s;
    Btb btb(64, s);
    EXPECT_FALSE(btb.lookup(0x123).has_value());
    btb.update(0x123, 0x456);
    auto t = btb.lookup(0x123);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(*t, 0x456u);
}

TEST(Btb, ConflictEviction)
{
    StatRegistry s;
    Btb btb(16, s);
    btb.update(3, 100);
    btb.update(3 + 16, 200); // same slot
    EXPECT_FALSE(btb.lookup(3).has_value());
    EXPECT_EQ(*btb.lookup(3 + 16), 200u);
}

// --- RAS ---

TEST(Ras, LifoOrder)
{
    Ras ras(8);
    ras.push(10);
    ras.push(20);
    ras.push(30);
    EXPECT_EQ(ras.pop(), 30u);
    EXPECT_EQ(ras.pop(), 20u);
    EXPECT_EQ(ras.pop(), 10u);
    EXPECT_EQ(ras.pop(), 0u); // empty
}

TEST(Ras, OverflowWrapsOldest)
{
    Ras ras(2);
    ras.push(1);
    ras.push(2);
    ras.push(3); // overwrites 1
    EXPECT_EQ(ras.pop(), 3u);
    EXPECT_EQ(ras.pop(), 2u);
    EXPECT_EQ(ras.pop(), 0u);
}

TEST(Ras, SnapshotRestore)
{
    Ras ras(8);
    ras.push(11);
    ras.push(22);
    auto snap = ras.snapshot();
    ras.pop();
    ras.pop();
    ras.restore(snap);
    EXPECT_EQ(ras.pop(), 22u);
    EXPECT_EQ(ras.pop(), 11u);
}

TEST(Ras, SnapshotIsExactAtFullInlineDepth)
{
    // A wrapped stack at the inline capacity must come back entry
    // for entry, including the slots the wrap overwrote.
    Ras ras(kMaxRasDepth);
    for (Addr a = 1; a <= kMaxRasDepth + 5; ++a)
        ras.push(a);
    const auto snap = ras.snapshot();
    for (int i = 0; i < 7; ++i)
        ras.pop();
    ras.push(999);
    ras.restore(snap);
    for (Addr a = kMaxRasDepth + 5; a > 5; --a)
        EXPECT_EQ(ras.pop(), a);
    EXPECT_EQ(ras.pop(), 0u);
}

// --- BranchPredictor facade ---

TEST(Predictor, RasDepthBeyondInlineCapacityIsFatal)
{
    StatRegistry s;
    PredictorConfig config;
    config.rasDepth = kMaxRasDepth + 1;
    try {
        BranchPredictor bp(config, s);
        FAIL() << "oversized RAS depth accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      std::to_string(kMaxRasDepth)),
                  std::string::npos)
            << "message must name the limit: " << e.what();
    }
    config.rasDepth = kMaxRasDepth;
    EXPECT_NO_THROW(BranchPredictor(config, s));
}

TEST(Predictor, DirectJumpPredictsTargetWithBtbMissBubble)
{
    StatRegistry s;
    BranchPredictor bp(PredictorConfig{}, s);
    isa::Uop jmp{isa::Opcode::Jmp, kInvalidReg, kInvalidReg,
                 kInvalidReg, 77};
    auto p1 = bp.predict(5, jmp);
    EXPECT_TRUE(p1.taken);
    EXPECT_EQ(p1.target, 77u);
    EXPECT_TRUE(p1.btbMiss);

    bp.update(5, jmp, true, 77, p1.tageInfo);
    auto p2 = bp.predict(5, jmp);
    EXPECT_FALSE(p2.btbMiss);
}

TEST(Predictor, CallRetPairUsesRas)
{
    StatRegistry s;
    BranchPredictor bp(PredictorConfig{}, s);
    isa::Uop call{isa::Opcode::Call, 10, kInvalidReg, kInvalidReg, 40};
    isa::Uop ret{isa::Opcode::Ret, kInvalidReg, 10, kInvalidReg, 0};

    auto pc_ = bp.predict(7, call);
    EXPECT_EQ(pc_.target, 40u);
    auto pr = bp.predict(45, ret);
    EXPECT_TRUE(pr.taken);
    EXPECT_EQ(pr.target, 8u); // return to call + 1
}

TEST(Predictor, ConditionalNotTakenFallsThrough)
{
    StatRegistry s;
    BranchPredictor bp(PredictorConfig{}, s);
    isa::Uop br{isa::Opcode::Beqz, kInvalidReg, 1, kInvalidReg, 99};
    // Train not-taken.
    for (int i = 0; i < 50; ++i) {
        auto p = bp.predict(11, br);
        bp.update(11, br, false, 12, p.tageInfo);
    }
    auto p = bp.predict(11, br);
    EXPECT_FALSE(p.taken);
    EXPECT_EQ(p.target, 12u);
}

TEST(Predictor, CheckpointRecoveryRestoresRas)
{
    StatRegistry s;
    BranchPredictor bp(PredictorConfig{}, s);
    isa::Uop call{isa::Opcode::Call, 10, kInvalidReg, kInvalidReg, 40};
    isa::Uop ret{isa::Opcode::Ret, kInvalidReg, 10, kInvalidReg, 0};

    bp.predict(7, call); // RAS: [8]
    auto ckpt = bp.checkpoint();
    bp.predict(45, ret); // speculatively pops
    bp.recover(ckpt, true, 45);
    auto pr = bp.predict(45, ret); // must pop 8 again
    EXPECT_EQ(pr.target, 8u);
}
