#include "automata/approx.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <queue>

#include "automata/epsilon_removal.h"
#include "automata/thompson.h"
#include "common/rng.h"
#include "reference/reference_matcher.h"
#include "test_util.h"

namespace omega {
namespace {

using testing::Rx;

LabelDictionary MakeLabels(const std::vector<std::string>& names) {
  LabelDictionary dict;
  for (const auto& n : names) dict.Intern(n);
  return dict;
}

/// Cheapest cost at which A_R accepts the given step sequence — a direct
/// Dijkstra over (state, position), independent of the graph evaluator.
Cost AcceptanceCost(const Nfa& nfa, const LabelDictionary& dict,
                    const std::vector<LabelStep>& word) {
  using Key = std::pair<StateId, size_t>;
  std::map<Key, Cost> dist;
  std::priority_queue<std::pair<Cost, Key>, std::vector<std::pair<Cost, Key>>,
                      std::greater<>>
      heap;
  auto push = [&](StateId s, size_t pos, Cost d) {
    Key k{s, pos};
    auto it = dist.find(k);
    if (it != dist.end() && it->second <= d) return;
    dist[k] = d;
    heap.emplace(d, k);
  };
  push(nfa.initial(), 0, 0);
  Cost best = kInfiniteCost;
  while (!heap.empty()) {
    auto [d, key] = heap.top();
    heap.pop();
    auto [s, pos] = key;
    if (dist[key] < d) continue;
    if (pos == word.size() && nfa.IsFinal(s)) {
      best = std::min(best, d + nfa.FinalWeight(s));
    }
    for (const NfaTransition& t : nfa.Out(s)) {
      switch (t.kind) {
        case TransitionKind::kEpsilon:
          push(t.to, pos, d + t.cost);
          break;
        case TransitionKind::kLabel:
          if (pos < word.size() && t.label != kInvalidLabel &&
              word[pos].label == dict.Name(t.label) &&
              word[pos].dir == t.dir) {
            push(t.to, pos + 1, d + t.cost);
          }
          break;
        case TransitionKind::kAnyLabel:
          if (pos < word.size() && word[pos].dir == t.dir) {
            push(t.to, pos + 1, d + t.cost);
          }
          break;
        case TransitionKind::kAnyLabelBothDirs:
          if (pos < word.size()) push(t.to, pos + 1, d + t.cost);
          break;
        case TransitionKind::kConstrainedType:
          break;  // not produced by APPROX
      }
    }
  }
  return best;
}

Nfa BuildApprox(const std::string& regex, const LabelDictionary& dict,
                const ApproxOptions& options = {}) {
  return BuildApproxAutomaton(
      RemoveEpsilons(BuildThompsonNfa(*Rx(regex), dict)), options);
}

TEST(ApproxAutomatonTest, IsEpsilonFree) {
  LabelDictionary dict = MakeLabels({"a", "b"});
  Nfa a = BuildApprox("a.b", dict);
  EXPECT_FALSE(a.HasEpsilonTransitions());
}

TEST(ApproxAutomatonTest, ExactWordCostsZero) {
  LabelDictionary dict = MakeLabels({"a", "b"});
  Nfa a = BuildApprox("a.b", dict);
  std::vector<LabelStep> ab = {{"a", Direction::kOutgoing},
                               {"b", Direction::kOutgoing}};
  EXPECT_EQ(AcceptanceCost(a, dict, ab), 0);
}

TEST(ApproxAutomatonTest, SubstitutionCost) {
  LabelDictionary dict = MakeLabels({"a", "b", "c"});
  Nfa a = BuildApprox("a.b", dict);
  std::vector<LabelStep> ac = {{"a", Direction::kOutgoing},
                               {"c", Direction::kOutgoing}};
  EXPECT_EQ(AcceptanceCost(a, dict, ac), 1);
  // Substituting by a reversed label also costs one (Example 2's
  // gradFrom -> gradFrom-).
  std::vector<LabelStep> ab_rev = {{"a", Direction::kOutgoing},
                                   {"b", Direction::kIncoming}};
  EXPECT_EQ(AcceptanceCost(a, dict, ab_rev), 1);
}

TEST(ApproxAutomatonTest, DeletionCost) {
  LabelDictionary dict = MakeLabels({"a", "b"});
  Nfa a = BuildApprox("a.b", dict);
  std::vector<LabelStep> just_a = {{"a", Direction::kOutgoing}};
  EXPECT_EQ(AcceptanceCost(a, dict, just_a), 1);  // delete b
  std::vector<LabelStep> empty;
  EXPECT_EQ(AcceptanceCost(a, dict, empty), 2);  // delete both
}

TEST(ApproxAutomatonTest, InsertionCost) {
  LabelDictionary dict = MakeLabels({"a", "b", "x"});
  Nfa a = BuildApprox("a", dict);
  std::vector<LabelStep> xa = {{"x", Direction::kOutgoing},
                               {"a", Direction::kOutgoing}};
  EXPECT_EQ(AcceptanceCost(a, dict, xa), 1);
  std::vector<LabelStep> axx = {{"a", Direction::kOutgoing},
                                {"x", Direction::kOutgoing},
                                {"x", Direction::kIncoming}};
  EXPECT_EQ(AcceptanceCost(a, dict, axx), 2);
}

TEST(ApproxAutomatonTest, CustomCosts) {
  LabelDictionary dict = MakeLabels({"a", "b", "c"});
  ApproxOptions options;
  options.substitution_cost = 5;
  options.deletion_cost = 3;
  options.insertion_cost = 7;
  Nfa a = BuildApprox("a.b", dict, options);
  std::vector<LabelStep> ac = {{"a", Direction::kOutgoing},
                               {"c", Direction::kOutgoing}};
  EXPECT_EQ(AcceptanceCost(a, dict, ac), 5);
  std::vector<LabelStep> just_a = {{"a", Direction::kOutgoing}};
  EXPECT_EQ(AcceptanceCost(a, dict, just_a), 3);
  std::vector<LabelStep> cab = {{"c", Direction::kOutgoing},
                                {"a", Direction::kOutgoing},
                                {"b", Direction::kOutgoing}};
  EXPECT_EQ(AcceptanceCost(a, dict, cab), 7);
}

TEST(ApproxAutomatonTest, UnknownLabelStillEditable) {
  // "zzz" is not in the graph: the exact transition can never fire, but
  // substitution can replace it, so any single step is accepted at cost 1.
  LabelDictionary dict = MakeLabels({"a"});
  Nfa a = BuildApprox("zzz", dict);
  std::vector<LabelStep> one = {{"a", Direction::kOutgoing}};
  EXPECT_EQ(AcceptanceCost(a, dict, one), 1);
}

TEST(ApproxAutomatonTest, TranspositionOptional) {
  LabelDictionary dict = MakeLabels({"a", "b"});
  std::vector<LabelStep> ba = {{"b", Direction::kOutgoing},
                               {"a", Direction::kOutgoing}};
  Nfa without = BuildApprox("a.b", dict);
  EXPECT_EQ(AcceptanceCost(without, dict, ba), 2);  // two substitutions
  ApproxOptions options;
  options.enable_transposition = true;
  Nfa with = BuildApprox("a.b", dict, options);
  EXPECT_EQ(AcceptanceCost(with, dict, ba), 1);  // one swap
}

TEST(ApproxAutomatonTest, PlusRegexDeletionLeavesMandatoryStep) {
  LabelDictionary dict = MakeLabels({"a"});
  Nfa a = BuildApprox("a+", dict);
  std::vector<LabelStep> empty;
  // a+ requires >= 1 symbol; deleting the single mandatory 'a' costs 1.
  EXPECT_EQ(AcceptanceCost(a, dict, empty), 1);
}

class ApproxDistancePropertyTest : public ::testing::TestWithParam<uint64_t> {
};

// A_R acceptance cost == classic Levenshtein distance to the language
// (reference: enumerate L(R) and run the textbook DP).
TEST_P(ApproxDistancePropertyTest, MatchesBruteForceEditDistance) {
  Rng rng(GetParam());
  const std::vector<std::string> labels = {"a", "b"};
  LabelDictionary dict = MakeLabels(labels);
  EditCosts costs;  // all 1, as in the paper's study

  for (int round = 0; round < 10; ++round) {
    // Wildcard-free regexes keep the reference enumeration faithful.
    RegexPtr regex;
    do {
      regex = testing::RandomRegex(&rng, labels, 2);
    } while (ToString(*regex).find('_') != std::string::npos);

    Nfa a = BuildApproxAutomaton(
        RemoveEpsilons(BuildThompsonNfa(*regex, dict)), ApproxOptions{});

    for (int trial = 0; trial < 10; ++trial) {
      std::vector<LabelStep> word;
      const size_t len = rng.NextBounded(4);
      for (size_t i = 0; i < len; ++i) {
        word.push_back({labels[rng.NextBounded(labels.size())],
                        rng.NextBool(0.3) ? Direction::kIncoming
                                          : Direction::kOutgoing});
      }
      // Language words longer than |word| + 3 cannot beat a distance-3 fix;
      // enumerate accordingly and cap the comparison at 3 edits.
      const int reference =
          MinEditDistanceToLanguage(*regex, labels, word, costs, len + 3);
      const Cost automaton = AcceptanceCost(a, dict, word);
      ASSERT_GE(reference, 0) << ToString(*regex);
      if (reference <= 3 || automaton <= 3) {
        EXPECT_EQ(automaton, reference)
            << ToString(*regex) << " word len " << len;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApproxDistancePropertyTest,
                         ::testing::Values(3, 7, 13, 19, 29, 37));

}  // namespace
}  // namespace omega
