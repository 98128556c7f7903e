/**
 * @file
 * Unit tests for CycleList, the sorted completion-cycle list behind
 * the MSHR file and the hierarchy's outstanding-miss counters. The
 * fuzz replays mixed operations against a std::multiset model, which
 * is the list's whole contract: the same multiset, pruned the same
 * way, with the same minimum.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/cycle_list.hh"
#include "common/random.hh"
#include "common/serialize.hh"
#include "common/types.hh"

using namespace cdfsim;

TEST(CycleList, PushPruneEarliest)
{
    CycleList l;
    EXPECT_TRUE(l.empty());
    l.push(30);
    l.push(10);
    l.push(20);
    EXPECT_EQ(l.size(), 3u);
    EXPECT_EQ(l.earliest(), 10u);
    l.pruneUpTo(10); // boundary: cycle == now expires
    EXPECT_EQ(l.size(), 2u);
    EXPECT_EQ(l.earliest(), 20u);
    EXPECT_EQ(l.earliestAfter(19), 20u); // cycle == now + 1 survives
    EXPECT_EQ(l.size(), 2u);
    EXPECT_EQ(l.earliestAfter(100), kNeverCycle);
    EXPECT_TRUE(l.empty());
}

TEST(CycleList, PushPruneSize)
{
    // The outstanding-miss counters' use: push completions, prune to
    // the sample cycle, read the count.
    CycleList l;
    l.push(5);
    l.push(5);
    l.push(7);
    EXPECT_EQ(l.size(), 3u);
    l.pruneUpTo(4);
    EXPECT_EQ(l.size(), 3u);
    l.pruneUpTo(5); // boundary: both entries at 5 expire
    EXPECT_EQ(l.size(), 1u);
    l.pruneUpTo(7);
    EXPECT_EQ(l.size(), 0u);
}

TEST(CycleList, DuplicateCyclesAllExpireTogether)
{
    CycleList l;
    l.push(50);
    l.push(50);
    l.push(50);
    l.pruneUpTo(49);
    EXPECT_EQ(l.size(), 3u);
    l.pruneUpTo(50);
    EXPECT_TRUE(l.empty());
}

TEST(CycleList, DescendingPushesStaySorted)
{
    // Every push lands at the front: the backward scan runs the
    // whole list.
    CycleList l;
    for (Cycle c = 40; c > 0; --c)
        l.push(c);
    EXPECT_EQ(l.size(), 40u);
    for (Cycle c = 1; c <= 40; ++c) {
        EXPECT_EQ(l.earliest(), c);
        l.pruneUpTo(c);
    }
    EXPECT_TRUE(l.empty());
}

TEST(CycleList, EarlierPruneIsANoOp)
{
    // Pruning never resurrects: a prune to an earlier cycle than a
    // past one removes nothing more and restores nothing.
    CycleList l;
    l.push(10);
    l.push(12);
    l.pruneUpTo(10);
    EXPECT_EQ(l.size(), 1u);
    l.pruneUpTo(3);
    EXPECT_EQ(l.size(), 1u);
    EXPECT_EQ(l.earliest(), 12u);
}

TEST(CycleList, FuzzAgainstMultisetModel)
{
    // Out-of-order pushes (near-in-order DRAM ready times plus rare
    // far-future ones), repeated cycles, pushes at or before the
    // last prune, idle gaps and the occasional backward prune.
    CycleList l;
    std::multiset<Cycle> model;
    Random rng(0xC0FFEE);
    Cycle now = 1000;
    Cycle last = now;
    for (int step = 0; step < 20000; ++step) {
        switch (rng.below(6)) {
          case 0:
          case 1: {
            last = now + 1 + rng.below(200);
            l.push(last);
            model.insert(last);
            break;
          }
          case 2: { // the same cycle again, or one far ahead
            last = rng.below(2) ? last : now + 1 + rng.below(5000);
            l.push(last);
            model.insert(last);
            break;
          }
          case 3: { // at or before the current cycle
            const Cycle c = now - rng.below(50);
            l.push(c);
            model.insert(c);
            break;
          }
          case 4: {
            now += rng.below(64);
            l.pruneUpTo(now);
            model.erase(model.begin(), model.upper_bound(now));
            break;
          }
          default: {
            const Cycle back = now - rng.below(100);
            l.pruneUpTo(back);
            model.erase(model.begin(), model.upper_bound(back));
            break;
          }
        }
        ASSERT_EQ(l.size(), model.size()) << "step " << step;
        ASSERT_EQ(l.empty(), model.empty()) << "step " << step;
        if (!model.empty()) {
            ASSERT_EQ(l.earliest(), *model.begin()) << "step " << step;
        }
    }
}

TEST(CycleList, FuzzCountsAgainstVectorModel)
{
    // The outstanding-miss counters were vectors of completion cycles
    // with erase_if(c <= now) on every sample; size() after a prune
    // must match that count under adds, samples and idle stretches.
    CycleList l;
    std::vector<Cycle> model;
    Random rng(0xFEED);
    Cycle now = 0;
    for (int step = 0; step < 20000; ++step) {
        const auto action = rng.below(4);
        if (action == 0) {
            now += rng.below(300); // idle gap, possibly huge
        } else {
            // Now and then a completion far in the future (DRAM
            // bank-queue drift).
            const Cycle c =
                now + 1 + rng.below(action == 1 ? 5000 : 250);
            l.push(c);
            model.push_back(c);
        }
        l.pruneUpTo(now);
        std::erase_if(model, [&](Cycle c) { return c <= now; });
        ASSERT_EQ(l.size(), model.size()) << "step " << step;
        ++now;
    }
}

TEST(CycleList, SnapshotRoundTrip)
{
    CycleList l;
    for (Cycle c : {30u, 10u, 20u, 20u, 90u})
        l.push(c);
    l.pruneUpTo(10);
    SnapWriter w;
    w(l);

    CycleList back;
    back.push(7); // restore replaces, never appends
    SnapReader r(w.bytes());
    r(back);
    EXPECT_EQ(back.size(), 4u);
    EXPECT_EQ(back.earliest(), 20u);
    SnapWriter again;
    again(back);
    EXPECT_EQ(again.bytes(), w.bytes());
}
