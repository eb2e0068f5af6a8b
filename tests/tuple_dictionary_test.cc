#include "eval/tuple_dictionary.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "reference/tuple_dictionary_reference.h"

namespace omega {
namespace {

EvalTuple T(NodeId v, Cost d, bool is_final) {
  return EvalTuple{v, v, 0, d, is_final};
}

void ExpectSameTuple(const EvalTuple& got, const EvalTuple& want) {
  EXPECT_EQ(got.v, want.v);
  EXPECT_EQ(got.n, want.n);
  EXPECT_EQ(got.s, want.s);
  EXPECT_EQ(got.d, want.d);
  EXPECT_EQ(got.is_final, want.is_final);
}

TEST(TupleDictionaryTest, EmptyInitially) {
  TupleDictionary dict;
  EXPECT_TRUE(dict.Empty());
  EXPECT_EQ(dict.size(), 0u);
}

TEST(TupleDictionaryTest, RemovesLowestDistanceFirst) {
  TupleDictionary dict;
  dict.Add(T(1, 5, false));
  dict.Add(T(2, 0, false));
  dict.Add(T(3, 2, false));
  EXPECT_EQ(dict.MinDistance(), 0);
  EXPECT_EQ(dict.Remove().v, 2u);
  EXPECT_EQ(dict.Remove().v, 3u);
  EXPECT_EQ(dict.Remove().v, 1u);
  EXPECT_TRUE(dict.Empty());
}

TEST(TupleDictionaryTest, FinalTuplesPoppedBeforeNonFinalAtSameDistance) {
  TupleDictionary dict(/*prioritize_final=*/true);
  dict.Add(T(1, 1, false));
  dict.Add(T(2, 1, true));
  dict.Add(T(3, 1, false));
  dict.Add(T(4, 1, true));
  EXPECT_TRUE(dict.Remove().is_final);
  EXPECT_TRUE(dict.Remove().is_final);
  EXPECT_FALSE(dict.Remove().is_final);
  EXPECT_FALSE(dict.Remove().is_final);
}

TEST(TupleDictionaryTest, LifoWithinAList) {
  TupleDictionary dict;
  dict.Add(T(1, 0, false));
  dict.Add(T(2, 0, false));
  dict.Add(T(3, 0, false));
  // "Tuples are always added to, and removed from, the head of a linked
  // list" — last in, first out.
  EXPECT_EQ(dict.Remove().v, 3u);
  EXPECT_EQ(dict.Remove().v, 2u);
  EXPECT_EQ(dict.Remove().v, 1u);
}

TEST(TupleDictionaryTest, AblationModeIgnoresFinalFlag) {
  TupleDictionary dict(/*prioritize_final=*/false);
  dict.Add(T(1, 1, false));
  dict.Add(T(2, 1, true));
  // Single list, LIFO: the final tuple comes out first because it was added
  // last, not because of prioritisation.
  EXPECT_EQ(dict.Remove().v, 2u);
  EXPECT_EQ(dict.Remove().v, 1u);
}

TEST(TupleDictionaryTest, DistanceBucketsDrainCompletelyBeforeNext) {
  TupleDictionary dict;
  for (int i = 0; i < 5; ++i) dict.Add(T(static_cast<NodeId>(i), 2, i % 2));
  for (int i = 0; i < 3; ++i)
    dict.Add(T(static_cast<NodeId>(10 + i), 7, false));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(dict.Remove().d, 2);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(dict.Remove().d, 7);
}

TEST(TupleDictionaryTest, ClearEmpties) {
  TupleDictionary dict;
  dict.Add(T(1, 0, false));
  dict.Add(T(2, 3, true));
  dict.Clear();
  EXPECT_TRUE(dict.Empty());
  EXPECT_EQ(dict.size(), 0u);
}

TEST(TupleDictionaryTest, SizeTracksAddsAndRemoves) {
  TupleDictionary dict;
  for (int i = 0; i < 10; ++i) dict.Add(T(static_cast<NodeId>(i), i % 3, false));
  EXPECT_EQ(dict.size(), 10u);
  for (int i = 0; i < 4; ++i) dict.Remove();
  EXPECT_EQ(dict.size(), 6u);
}

TEST(TupleDictionaryTest, MinDistanceTracksFront) {
  TupleDictionary dict;
  dict.Add(T(1, 4, false));
  EXPECT_EQ(dict.MinDistance(), 4);
  dict.Add(T(2, 1, false));
  EXPECT_EQ(dict.MinDistance(), 1);
  dict.Remove();
  EXPECT_EQ(dict.MinDistance(), 4);
}

TEST(TupleDictionaryTest, DistancesBeyondDenseWindow) {
  // Exercises the overflow map + rebase path: costs far apart force the
  // bucket queue to re-anchor its dense window mid-drain.
  TupleDictionary dict;
  dict.Add(T(1, 1000000, false));
  dict.Add(T(2, 0, false));
  dict.Add(T(3, 500000, true));
  dict.Add(T(4, 1000000, true));
  EXPECT_EQ(dict.MinDistance(), 0);
  EXPECT_EQ(dict.Remove().v, 2u);
  EXPECT_EQ(dict.MinDistance(), 500000);
  EXPECT_EQ(dict.Remove().v, 3u);
  EXPECT_EQ(dict.Remove().v, 4u);  // final before non-final at 1000000
  EXPECT_EQ(dict.Remove().v, 1u);
  EXPECT_TRUE(dict.Empty());
}

TEST(TupleDictionaryTest, NonMonotoneAddAfterRebaseStaysOrdered) {
  // After the queue re-anchors at a high distance, a later add below the
  // new base (impossible from GetNext, but allowed by the API) must still
  // come out first.
  TupleDictionary dict;
  dict.Add(T(1, 100000, false));
  EXPECT_EQ(dict.Remove().v, 1u);  // re-anchors the window at 100000
  dict.Add(T(2, 100001, false));
  dict.Add(T(3, 7, false));
  EXPECT_EQ(dict.MinDistance(), 7);
  EXPECT_EQ(dict.Remove().v, 3u);
  EXPECT_EQ(dict.Remove().v, 2u);
}

// The seed's std::map implementation is the executable spec of the §3.3
// removal discipline; the bucket queue must match it tuple-for-tuple over
// random add/remove sweeps in every regime it can encounter.
void RunParitySweep(uint64_t seed, bool prioritize_final, Cost max_cost,
                    bool monotone, int ops) {
  Rng rng(seed);
  TupleDictionary dict(prioritize_final);
  ReferenceTupleDictionary reference(prioritize_final);
  Cost floor = 0;  // last removed distance, for monotone sweeps
  uint32_t next_id = 0;
  for (int op = 0; op < ops; ++op) {
    const bool do_add = dict.Empty() || rng.NextBool(0.6);
    if (do_add) {
      const Cost lo = monotone ? floor : 0;
      const Cost d =
          static_cast<Cost>(rng.NextInRange(lo, lo + max_cost));
      const EvalTuple t{next_id, next_id + 1, next_id + 2, d,
                        rng.NextBool(0.3)};
      ++next_id;
      dict.Add(t);
      reference.Add(t);
    } else {
      ASSERT_EQ(dict.size(), reference.size());
      ASSERT_EQ(dict.MinDistance(), reference.MinDistance());
      const EvalTuple got = dict.Remove();
      const EvalTuple want = reference.Remove();
      ExpectSameTuple(got, want);
      floor = want.d;
    }
  }
  // Drain both completely; order must stay identical to the end.
  ASSERT_EQ(dict.size(), reference.size());
  while (!reference.Empty()) {
    ASSERT_FALSE(dict.Empty());
    ExpectSameTuple(dict.Remove(), reference.Remove());
  }
  EXPECT_TRUE(dict.Empty());
}

TEST(TupleDictionaryPropertyTest, MatchesReferenceSmallCosts) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    RunParitySweep(seed, /*prioritize_final=*/true, /*max_cost=*/5,
                   /*monotone=*/true, /*ops=*/4000);
  }
}

TEST(TupleDictionaryPropertyTest, MatchesReferenceAblationMode) {
  for (uint64_t seed = 100; seed < 110; ++seed) {
    RunParitySweep(seed, /*prioritize_final=*/false, /*max_cost=*/5,
                   /*monotone=*/true, /*ops=*/4000);
  }
}

TEST(TupleDictionaryPropertyTest, MatchesReferenceSparseCosts) {
  // Costs routinely exceed the dense window, forcing overflow traffic.
  for (uint64_t seed = 200; seed < 210; ++seed) {
    RunParitySweep(seed, /*prioritize_final=*/true, /*max_cost=*/100000,
                   /*monotone=*/true, /*ops=*/2000);
  }
}

TEST(TupleDictionaryPropertyTest, MatchesReferenceNonMonotoneCosts) {
  // Adds are unconstrained: distances may drop below anything already
  // removed, covering the rebase-below-base path.
  for (uint64_t seed = 300; seed < 310; ++seed) {
    RunParitySweep(seed, /*prioritize_final=*/true, /*max_cost=*/50000,
                   /*monotone=*/false, /*ops=*/2000);
  }
}

#ifndef NDEBUG
TEST(TupleDictionaryDeathTest, MinDistanceOnEmptyDies) {
  TupleDictionary dict;
  EXPECT_DEATH_IF_SUPPORTED(dict.MinDistance(), "empty TupleDictionary");
}

TEST(TupleDictionaryDeathTest, RemoveOnEmptyDies) {
  TupleDictionary dict;
  EXPECT_DEATH_IF_SUPPORTED(dict.Remove(), "empty TupleDictionary");
}

TEST(TupleDictionaryDeathTest, RemoveAfterDrainDies) {
  TupleDictionary dict;
  dict.Add(T(1, 2, false));
  dict.Remove();
  EXPECT_DEATH_IF_SUPPORTED(dict.Remove(), "empty TupleDictionary");
}
#endif  // NDEBUG

}  // namespace
}  // namespace omega
