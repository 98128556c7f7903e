/**
 * @file
 * Unit tests for the simulator hot-path building blocks: the slab
 * object pool and TAGE's incremental folded-history maintenance.
 * These are the pieces the cycle loop leans on after the
 * allocation/scan optimization pass; each is checked against a
 * straightforward reference implementation.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "bp/tage.hh"
#include "common/pool.hh"
#include "common/stats.hh"

using namespace cdfsim;

// ---------------------------------------------------------------------
// SlabPool
// ---------------------------------------------------------------------

TEST(SlabPool, AllocateFreeReuse)
{
    SlabPool<int> pool(4);
    const std::uint32_t a = pool.allocate();
    const std::uint32_t b = pool.allocate();
    EXPECT_NE(a, b);
    EXPECT_EQ(pool.liveCount(), 2u);
    EXPECT_TRUE(pool.alive(a));
    EXPECT_EQ(pool.at(a), 0); // value-initialized

    pool.at(a) = 42;
    pool.free(a);
    EXPECT_FALSE(pool.alive(a));
    EXPECT_EQ(pool.liveCount(), 1u);

    // LIFO freelist: the slot just freed is handed out again, and
    // the object in it is freshly constructed.
    const std::uint32_t c = pool.allocate();
    EXPECT_EQ(c, a);
    EXPECT_EQ(pool.at(c), 0);
}

TEST(SlabPool, AddressesStableAcrossGrowth)
{
    SlabPool<std::uint64_t> pool(8);
    std::vector<std::uint32_t> idx;
    std::vector<std::uint64_t *> ptr;
    for (std::uint32_t i = 0; i < 100; ++i) {
        idx.push_back(pool.allocate());
        pool.at(idx.back()) = i;
        ptr.push_back(&pool.at(idx.back()));
    }
    // Growth happened (multiple slabs); earlier addresses must not
    // have moved.
    EXPECT_GE(pool.capacity(), 100u);
    for (std::uint32_t i = 0; i < 100; ++i) {
        EXPECT_EQ(&pool.at(idx[i]), ptr[i]);
        EXPECT_EQ(*ptr[i], i);
    }
}

TEST(SlabPool, NonTrivialTypeLifetimes)
{
    SlabPool<std::string> pool(2);
    const std::uint32_t a = pool.allocate();
    pool.at(a) = std::string(100, 'x');
    pool.free(a);
    const std::uint32_t b = pool.allocate();
    EXPECT_EQ(b, a);
    EXPECT_TRUE(pool.at(b).empty());
    pool.at(b) = "still live at pool destruction";
    // Destructor must clean up the live object (ASan would flag a
    // leak or double-free if lifetimes were wrong).
}

TEST(SlabPool, StressAgainstReference)
{
    SlabPool<std::uint32_t> pool(16);
    std::unordered_map<std::uint32_t, std::uint32_t> ref;
    std::mt19937 rng(12345);
    std::vector<std::uint32_t> liveIdx;
    for (int step = 0; step < 20'000; ++step) {
        if (liveIdx.empty() || rng() % 3 != 0) {
            const std::uint32_t i = pool.allocate();
            EXPECT_EQ(ref.count(i), 0u);
            const std::uint32_t v = rng();
            pool.at(i) = v;
            ref[i] = v;
            liveIdx.push_back(i);
        } else {
            const std::size_t pick = rng() % liveIdx.size();
            const std::uint32_t i = liveIdx[pick];
            EXPECT_EQ(pool.at(i), ref[i]);
            pool.free(i);
            ref.erase(i);
            liveIdx[pick] = liveIdx.back();
            liveIdx.pop_back();
        }
        EXPECT_EQ(pool.liveCount(), ref.size());
    }
    for (const std::uint32_t i : liveIdx)
        EXPECT_EQ(pool.at(i), ref[i]);
}

// ---------------------------------------------------------------------
// TAGE incremental folded history
// ---------------------------------------------------------------------

// Checkpoints are taken per in-flight branch: they must stay plain
// fixed-size values so copying them never touches the heap.
static_assert(std::is_trivially_copyable_v<bp::TageCheckpoint>);

namespace
{

/** Drive the predictor through a random predict / update /
 *  checkpoint / recover / restore mix, asserting after every step
 *  that each incrementally-maintained fold equals the naive
 *  recomputation (Tage::checkFolds). */
void
exerciseFolds(const bp::TageConfig &cfg, unsigned steps,
              std::uint32_t seed)
{
    StatRegistry stats;
    bp::Tage tage(cfg, stats);
    std::mt19937 rng(seed);
    ASSERT_TRUE(tage.checkFolds());

    std::vector<std::pair<bp::TageCheckpoint, Addr>> ckpts;
    std::vector<std::pair<Addr, bp::TagePredictionInfo>> pending;
    for (unsigned step = 0; step < steps; ++step) {
        const Addr pc = 0x1000 + (rng() % 64) * 4;
        switch (rng() % 8) {
        case 0:
            if (ckpts.size() < 32)
                ckpts.emplace_back(tage.checkpoint(), pc);
            break;
        case 1:
            if (!ckpts.empty()) {
                tage.recover(ckpts.back().first, rng() % 2 != 0,
                             ckpts.back().second);
                ckpts.pop_back();
            }
            break;
        case 2:
            if (!ckpts.empty()) {
                tage.restore(ckpts.back().first);
                ckpts.pop_back();
            }
            break;
        case 3:
            if (!pending.empty()) {
                tage.update(pending.back().first, rng() % 2 != 0,
                            pending.back().second);
                pending.pop_back();
            }
            break;
        default:
            pending.emplace_back(pc, tage.predict(pc));
            if (pending.size() > 16)
                pending.erase(pending.begin());
            break;
        }
        ASSERT_TRUE(tage.checkFolds()) << "step " << step;
    }
}

} // namespace

TEST(TageFolds, DefaultConfig)
{
    exerciseFolds(bp::TageConfig{}, 3000, 7);
}

TEST(TageFolds, ExactMultipleAndShortHistories)
{
    // History lengths 8..64 against fold widths 8 (rem == 0 on both
    // ends), 5, and 4 exercise the partial-chunk wrap paths.
    bp::TageConfig cfg;
    cfg.numTables = 2;
    cfg.tableBitsLog2 = 8;
    cfg.tagBits = 5;
    cfg.minHistory = 8;
    cfg.maxHistory = 64;
    exerciseFolds(cfg, 3000, 11);
}

TEST(TageFolds, ManyTablesLongHistory)
{
    bp::TageConfig cfg;
    cfg.numTables = 9;
    cfg.tableBitsLog2 = 7;
    cfg.tagBits = 9;
    cfg.minHistory = 3;
    cfg.maxHistory = 250;
    exerciseFolds(cfg, 3000, 13);
}
