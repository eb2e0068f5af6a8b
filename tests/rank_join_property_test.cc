// Property tests for the rank-join layer: RankJoinStream / BuildJoinTree are
// replayed against (a) a naive reference join — materialise both sides,
// nested-loop merge on shared variables, sort by total distance — and (b)
// the seed string-keyed join kept in rank_join_reference.h, on identical
// randomized inputs. Checked: multiset equality of (slots, distance) rows
// and non-decreasing emission order, including the no-shared-variable cross
// product and the (?X, R, ?X) self-join lift.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "eval/rank_join.h"
#include "reference/rank_join_reference.h"
#include "test_util.h"

namespace omega {
namespace {

/// A joined row flattened for comparison.
using Row = std::pair<std::vector<NodeId>, Cost>;

using ScriptedStream = testing::ScriptedBindingStream;

/// One randomly scripted side: conjunct-shaped (1 or 2 variables), rows in
/// non-decreasing distance with values from a small domain so joins hit.
struct SideSpec {
  std::vector<VarId> vars;  // sorted
  std::vector<Binding> rows;
};

/// Random rows over a fixed variable set, distances non-decreasing.
SideSpec MakeSideWithVars(Rng& rng, size_t width, std::vector<VarId> vars,
                          size_t max_rows, NodeId value_domain) {
  SideSpec spec;
  spec.vars = std::move(vars);
  const size_t rows = rng.NextBounded(max_rows + 1);
  Cost distance = 0;
  for (size_t i = 0; i < rows; ++i) {
    distance += static_cast<Cost>(rng.NextBounded(3));
    Binding b(width);
    b.distance = distance;
    for (const VarId v : spec.vars) {
      b.Bind(v, static_cast<NodeId>(rng.NextBounded(value_domain)));
    }
    spec.rows.push_back(std::move(b));
  }
  return spec;
}

SideSpec MakeRandomSide(Rng& rng, size_t width, size_t max_rows,
                        NodeId value_domain) {
  std::vector<VarId> vars;
  const size_t num_vars = 1 + rng.NextBounded(2);  // conjunct-shaped
  while (vars.size() < num_vars) {
    const VarId v = static_cast<VarId>(rng.NextBounded(width));
    if (std::find(vars.begin(), vars.end(), v) == vars.end()) {
      vars.push_back(v);
    }
  }
  std::sort(vars.begin(), vars.end());
  return MakeSideWithVars(rng, width, std::move(vars), max_rows, value_domain);
}

/// Naive reference join: nested loop over fully materialised sides, merging
/// two full-width slot rows when every commonly-bound slot agrees.
std::vector<Row> NaiveJoin(const std::vector<Row>& left,
                           const std::vector<Row>& right) {
  std::vector<Row> out;
  for (const Row& l : left) {
    for (const Row& r : right) {
      std::vector<NodeId> merged = l.first;
      bool ok = true;
      for (size_t slot = 0; slot < merged.size(); ++slot) {
        if (r.first[slot] == kInvalidNode) continue;
        if (merged[slot] != kInvalidNode && merged[slot] != r.first[slot]) {
          ok = false;
          break;
        }
        merged[slot] = r.first[slot];
      }
      if (ok) out.emplace_back(std::move(merged), l.second + r.second);
    }
  }
  return out;
}

std::vector<Row> ToRows(const SideSpec& spec) {
  std::vector<Row> rows;
  for (const Binding& b : spec.rows) rows.emplace_back(b.slots, b.distance);
  return rows;
}

/// Drains `stream`, checking non-decreasing distance, and returns the rows.
std::vector<Row> Drain(BindingStream& stream) {
  std::vector<Row> rows;
  Binding b;
  Cost last = 0;
  while (stream.Next(&b)) {
    EXPECT_GE(b.distance, last) << "emission order must be non-decreasing";
    last = b.distance;
    rows.emplace_back(b.slots, b.distance);
  }
  EXPECT_TRUE(stream.status().ok()) << stream.status().ToString();
  return rows;
}

/// Sorted copy for multiset comparison.
std::vector<Row> Canon(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Lifts a slot spec to the seed string data plane: slot k becomes "Vk".
std::unique_ptr<VectorReferenceBindingStream> ToReferenceStream(
    const SideSpec& spec) {
  std::vector<std::string> names;
  for (const VarId v : spec.vars) names.push_back("V" + std::to_string(v));
  std::sort(names.begin(), names.end());
  std::vector<ReferenceBinding> rows;
  for (const Binding& b : spec.rows) {
    ReferenceBinding rb;
    rb.distance = b.distance;
    for (const VarId v : spec.vars) {
      rb.Bind("V" + std::to_string(v), b.Get(v));
    }
    rows.push_back(std::move(rb));
  }
  return std::make_unique<VectorReferenceBindingStream>(std::move(names),
                                                        std::move(rows));
}

/// Drains the seed join and converts back to slot rows for comparison.
std::vector<Row> DrainReference(ReferenceBindingStream& stream, size_t width) {
  std::vector<Row> rows;
  ReferenceBinding b;
  Cost last = 0;
  while (stream.Next(&b)) {
    EXPECT_GE(b.distance, last);
    last = b.distance;
    std::vector<NodeId> slots(width, kInvalidNode);
    for (const auto& [name, value] : b.vars) {
      slots[static_cast<VarId>(std::stoul(name.substr(1)))] = value;
    }
    rows.emplace_back(std::move(slots), b.distance);
  }
  EXPECT_TRUE(stream.status().ok());
  return rows;
}

TEST(RankJoinPropertyTest, BinaryJoinMatchesNaiveReference) {
  // Slot domains small enough that shared-variable joins, cross products
  // (disjoint variable picks) and self-overlapping picks all occur.
  Rng rng(2026);
  for (int round = 0; round < 200; ++round) {
    const size_t width = 2 + rng.NextBounded(3);   // 2..4 catalogue slots
    const NodeId domain = 2 + rng.NextBounded(5);  // 2..6 distinct values
    const SideSpec left = MakeRandomSide(rng, width, 12, domain);
    const SideSpec right = MakeRandomSide(rng, width, 12, domain);

    const std::vector<Row> expected =
        Canon(NaiveJoin(ToRows(left), ToRows(right)));

    RankJoinStream join(
        std::make_unique<ScriptedStream>(left.vars, left.rows),
        std::make_unique<ScriptedStream>(right.vars, right.rows));
    EXPECT_EQ(Canon(Drain(join)), expected) << "round " << round;

    ReferenceRankJoinStream seed_join(ToReferenceStream(left),
                                      ToReferenceStream(right));
    EXPECT_EQ(Canon(DrainReference(seed_join, width)), expected)
        << "seed reference diverged in round " << round;
  }
}

TEST(RankJoinPropertyTest, JoinTreeMatchesNaiveReference) {
  Rng rng(4097);
  for (int round = 0; round < 100; ++round) {
    const size_t width = 3 + rng.NextBounded(2);  // 3..4 catalogue slots
    const NodeId domain = 2 + rng.NextBounded(4);
    const size_t num_streams = 2 + rng.NextBounded(2);  // 2..3 conjuncts

    std::vector<SideSpec> specs;
    std::vector<std::unique_ptr<BindingStream>> streams;
    for (size_t i = 0; i < num_streams; ++i) {
      specs.push_back(MakeRandomSide(rng, width, 8, domain));
      streams.push_back(
          std::make_unique<ScriptedStream>(specs[i].vars, specs[i].rows));
    }

    std::vector<Row> expected = ToRows(specs[0]);
    for (size_t i = 1; i < specs.size(); ++i) {
      expected = NaiveJoin(expected, ToRows(specs[i]));
    }

    std::unique_ptr<BindingStream> tree = BuildJoinTree(std::move(streams));
    EXPECT_EQ(Canon(Drain(*tree)), Canon(std::move(expected)))
        << "round " << round;
  }
}

TEST(RankJoinPropertyTest, FoldedKeyWithThreeSharedVariables) {
  // More than two shared variables fall off the exact PackPair key onto the
  // FNV fold, whose grouping collisions must be caught by the merge-time
  // consistency re-check. The planner's bushy trees can join two subtrees
  // on wide shared sets, so this branch is live engine behaviour now.
  Rng rng(7331);
  for (int round = 0; round < 100; ++round) {
    const size_t width = 4;
    const NodeId domain = 2 + rng.NextBounded(3);  // small: forces overlaps
    const SideSpec left =
        MakeSideWithVars(rng, width, {0, 1, 2}, 12, domain);
    const SideSpec right =
        MakeSideWithVars(rng, width, {0, 1, 2, 3}, 12, domain);
    const std::vector<Row> expected =
        Canon(NaiveJoin(ToRows(left), ToRows(right)));
    RankJoinStream join(
        std::make_unique<ScriptedStream>(left.vars, left.rows),
        std::make_unique<ScriptedStream>(right.vars, right.rows));
    EXPECT_EQ(Canon(Drain(join)), expected) << "round " << round;
  }
}

TEST(RankJoinPropertyTest, ExplicitCrossProduct) {
  // Disjoint variables: every pair merges; output size is the product.
  const size_t width = 2;
  SideSpec left{{0}, {}};
  SideSpec right{{1}, {}};
  for (NodeId i = 0; i < 7; ++i) {
    Binding l(width);
    l.distance = static_cast<Cost>(i);
    l.Bind(0, i);
    left.rows.push_back(std::move(l));
    Binding r(width);
    r.distance = static_cast<Cost>(2 * i);
    r.Bind(1, i);
    right.rows.push_back(std::move(r));
  }
  const std::vector<Row> expected =
      Canon(NaiveJoin(ToRows(left), ToRows(right)));
  ASSERT_EQ(expected.size(), 49u);
  RankJoinStream join(std::make_unique<ScriptedStream>(left.vars, left.rows),
                      std::make_unique<ScriptedStream>(right.vars, right.rows));
  EXPECT_EQ(Canon(Drain(join)), expected);
}

/// Scripted answer stream for the self-join lift.
class ScriptedAnswerStream : public AnswerStream {
 public:
  explicit ScriptedAnswerStream(std::vector<Answer> answers)
      : answers_(std::move(answers)) {}
  bool Next(Answer* out) override {
    if (pos_ >= answers_.size()) return false;
    *out = answers_[pos_++];
    return true;
  }
  const Status& status() const override { return status_; }

 private:
  std::vector<Answer> answers_;
  size_t pos_ = 0;
  Status status_;
};

TEST(RankJoinPropertyTest, SelfJoinConjunctFiltersEndpointAgreement) {
  // (?X, R, ?X): both endpoints map to slot 0; only v == n answers survive,
  // and joining two such streams intersects their node sets.
  std::vector<Answer> loops_a, loops_b;
  for (NodeId n = 0; n < 10; ++n) {
    loops_a.push_back({n, n, static_cast<Cost>(n)});       // keeps all
    loops_a.push_back({n, n + 1, static_cast<Cost>(n)});   // filtered out
    if (n % 2 == 0) loops_b.push_back({n, n, static_cast<Cost>(n)});
  }
  auto a = std::make_unique<ConjunctBindingStream>(
      std::make_unique<ScriptedAnswerStream>(loops_a), /*width=*/1,
      /*source_slot=*/0, /*target_slot=*/0);
  ASSERT_EQ(a->variables(), (std::vector<VarId>{0}));
  auto b = std::make_unique<ConjunctBindingStream>(
      std::make_unique<ScriptedAnswerStream>(loops_b), /*width=*/1,
      /*source_slot=*/0, /*target_slot=*/0);

  RankJoinStream join(std::move(a), std::move(b));
  std::vector<Row> rows = Drain(join);
  ASSERT_EQ(rows.size(), 5u);  // even nodes only
  for (const Row& row : rows) {
    EXPECT_EQ(row.first[0] % 2, 0u);
    EXPECT_EQ(row.second, static_cast<Cost>(2 * row.first[0]));
  }
}

}  // namespace
}  // namespace omega
