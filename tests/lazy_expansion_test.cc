// Differential tests of ConjunctEvaluator's lazy Succ (expansion records
// and row cursors) against the product-space Dijkstra oracle in
// test_util.h and the eager Succ kept in reference/: the ranked answer
// multiset must match on random graphs across APPROX cost levels, RELAX
// entailment and dom/range rows, neighbours repeated across rows, the
// ablation switches and distance ceilings. Also pins the work the lazy
// expansion saves and that the memory budget still bounds it.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "eval/conjunct_evaluator.h"
#include "reference/eager_conjunct_evaluator.h"
#include "test_util.h"

namespace omega {
namespace {

using testing::ReferenceAnswers;

// Drains `stream` up to `max_distance`, checking non-decreasing emission
// and one answer per key; returns key -> distance. With a constant source
// the key drops v: RELAX ancestor seeds start from different nodes.
std::map<std::pair<NodeId, NodeId>, Cost> Drain(AnswerStream* stream,
                                                bool variable_source,
                                                Cost max_distance) {
  std::map<std::pair<NodeId, NodeId>, Cost> out;
  Answer a;
  Cost last = 0;
  while (stream->Next(&a)) {
    EXPECT_GE(a.distance, last) << "answers out of distance order";
    last = a.distance;
    if (a.distance > max_distance) break;
    const NodeId v = variable_source ? a.v : kInvalidNode;
    EXPECT_TRUE(out.emplace(std::make_pair(v, a.n), a.distance).second)
        << "duplicate answer";
  }
  EXPECT_TRUE(stream->status().ok()) << stream->status().ToString();
  return out;
}

std::map<std::pair<NodeId, NodeId>, Cost> Oracle(
    const GraphStore& g, const BoundOntology* ontology,
    const PreparedConjunct& prepared, Cost max_distance, Cost beta) {
  std::map<std::pair<NodeId, NodeId>, Cost> out;
  for (const Answer& a :
       ReferenceAnswers(g, ontology, prepared, max_distance, beta)) {
    const NodeId v = prepared.eval_source.is_variable ? a.v : kInvalidNode;
    auto [it, inserted] = out.emplace(std::make_pair(v, a.n), a.distance);
    if (!inserted && a.distance < it->second) it->second = a.distance;
  }
  return out;
}

// Lazy == eager == oracle up to `max_distance`; returns the lazy stats.
EvaluatorStats ExpectSameRankedAnswers(const GraphStore& g,
                                       const BoundOntology* ontology,
                                       const Conjunct& conjunct,
                                       const EvaluatorOptions& options,
                                       Cost max_distance) {
  Result<PreparedConjunct> prepared =
      PrepareConjunct(conjunct, g, ontology, options);
  EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
  if (!prepared.ok()) return {};
  const bool variable_source = prepared->eval_source.is_variable;
  ConjunctEvaluator lazy(&g, ontology, &*prepared, options);
  EagerConjunctEvaluator eager(&g, ontology, &*prepared, options);
  const auto got = Drain(&lazy, variable_source, max_distance);
  EXPECT_EQ(got, Drain(&eager, variable_source, max_distance));
  EXPECT_EQ(got, Oracle(g, ontology, *prepared, max_distance,
                        options.relax.beta));
  return lazy.stats();
}

// Random graph over a/b/c edges where some node pairs are linked both ways
// (so the out- and in-rows of APPROX `*` repeat a neighbour), with a few
// type edges so the type rows are not empty. `dag` keeps every edge going
// from a lower to a higher node, for the runs without a visited set.
GraphStore MakeGraph(uint64_t seed, bool dag) {
  Rng rng(seed);
  GraphBuilder builder;
  constexpr size_t kNodes = 9;
  std::vector<NodeId> nodes;
  for (size_t i = 0; i < kNodes; ++i) {
    nodes.push_back(builder.GetOrAddNode("n" + std::to_string(i)));
  }
  const NodeId klass = builder.GetOrAddNode("k");
  std::vector<LabelId> labels;
  for (const char* l : {"a", "b", "c"}) {
    labels.push_back(*builder.InternLabel(l));
  }
  for (int e = 0; e < 14; ++e) {
    size_t from = rng.NextBounded(kNodes);
    size_t to = rng.NextBounded(kNodes);
    if (dag && from == to) continue;
    if (dag && from > to) std::swap(from, to);
    const LabelId l = labels[rng.NextBounded(labels.size())];
    EXPECT_TRUE(builder.AddEdge(nodes[from], l, nodes[to]).ok());
    if (!dag && rng.NextBool(0.4)) {
      const LabelId back = labels[rng.NextBounded(labels.size())];
      EXPECT_TRUE(builder.AddEdge(nodes[to], back, nodes[from]).ok());
    }
  }
  for (size_t i = 0; i < kNodes; i += 3) {
    EXPECT_TRUE(builder.AddTypeEdge(nodes[i], klass).ok());
  }
  return std::move(builder).Finalize();
}

Conjunct RandomConjunct(Rng* rng, ConjunctMode mode,
                        const std::vector<std::string>& labels,
                        const std::vector<std::string>& constants,
                        bool forward_only = false) {
  Conjunct conjunct;
  conjunct.mode = mode;
  do {
    conjunct.regex = testing::RandomRegex(rng, labels, 2);
  } while (forward_only && ToString(*conjunct.regex).find('-') !=
                               std::string::npos);
  conjunct.source =
      rng->NextBool(0.5)
          ? Endpoint::Constant(constants[rng->NextBounded(constants.size())])
          : Endpoint::Variable("X");
  conjunct.target = Endpoint::Variable("Y");
  return conjunct;
}

const std::vector<std::string>& NodeNames() {
  static const std::vector<std::string> names = {"n0", "n1", "n2", "n3",
                                                 "n4", "n5", "n6", "n7"};
  return names;
}

EvaluatorOptions ThreeCostApprox() {
  EvaluatorOptions options;
  options.approx.insertion_cost = 1;
  options.approx.deletion_cost = 2;
  options.approx.substitution_cost = 3;
  return options;
}

class LazyExpansionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LazyExpansionTest, ApproxWithThreeEditCostsMatchesOracle) {
  Rng rng(GetParam() * 7919);
  const GraphStore g = MakeGraph(GetParam(), /*dag=*/false);
  for (int round = 0; round < 6; ++round) {
    const Conjunct conjunct =
        RandomConjunct(&rng, ConjunctMode::kApprox, {"a", "b", "c"},
                       NodeNames());
    ExpectSameRankedAnswers(g, nullptr, conjunct, ThreeCostApprox(), 5);
  }
}

TEST_P(LazyExpansionTest, AblationSwitchesMatchOracle) {
  Rng rng(GetParam() * 104729);
  const GraphStore cyclic = MakeGraph(GetParam(), /*dag=*/false);
  const GraphStore dag = MakeGraph(GetParam(), /*dag=*/true);
  for (int round = 0; round < 4; ++round) {
    const Conjunct conjunct =
        RandomConjunct(&rng, ConjunctMode::kApprox, {"a", "b", "c"},
                       NodeNames(), /*forward_only=*/true);
    EvaluatorOptions no_priority = ThreeCostApprox();
    no_priority.prioritize_final_tuples = false;
    ExpectSameRankedAnswers(cyclic, nullptr, conjunct, no_priority, 5);

    // Without a visited set only the ceiling bounds the search, and only
    // if no cost-0 path cycles: forward labels over a DAG. The budget turns
    // a runaway into a failed comparison instead of a memory blow-up.
    EvaluatorOptions no_visited = ThreeCostApprox();
    no_visited.use_visited_set = false;
    no_visited.max_distance = 3;
    no_visited.max_live_tuples = 1 << 20;
    ExpectSameRankedAnswers(dag, nullptr, conjunct, no_visited, 3);
  }
}

TEST_P(LazyExpansionTest, DistanceCeilingTruncatesLikeTheEagerSpec) {
  Rng rng(GetParam() * 15485863);
  const GraphStore g = MakeGraph(GetParam(), /*dag=*/false);
  for (int round = 0; round < 6; ++round) {
    const Conjunct conjunct =
        RandomConjunct(&rng, ConjunctMode::kApprox, {"a", "b", "c"},
                       NodeNames());
    for (const Cost ceiling : {0, 1, 2, 4}) {
      EvaluatorOptions options = ThreeCostApprox();
      options.max_distance = ceiling;
      ExpectSameRankedAnswers(g, nullptr, conjunct, options, ceiling);

      Result<PreparedConjunct> prepared =
          PrepareConjunct(conjunct, g, nullptr, options);
      ASSERT_TRUE(prepared.ok());
      const bool variable_source = prepared->eval_source.is_variable;
      ConjunctEvaluator lazy(&g, nullptr, &*prepared, options);
      EagerConjunctEvaluator eager(&g, nullptr, &*prepared, options);
      const auto capped = Drain(&lazy, variable_source, ceiling);
      Drain(&eager, variable_source, ceiling);
      // The flag may be conservative, never missing: whenever the eager
      // spec saw a successor past the ceiling, so does the lazy one ...
      if (eager.truncated_by_distance()) {
        EXPECT_TRUE(lazy.truncated_by_distance());
      }
      // ... and when it is clear, no higher ceiling adds an answer.
      if (!lazy.truncated_by_distance()) {
        EXPECT_EQ(capped, Oracle(g, nullptr, *prepared, kInfiniteCost,
                                 options.relax.beta));
      }
    }
  }
}

// RELAX world: sub-properties p0 < p1 < p2 (entailed down-set rows), a
// class chain c0 < c1 < c2 (type ancestors, reverse-type down-set rows)
// and domain/range declarations (constrained-type transitions).
struct RelaxWorld {
  GraphStore graph;
  Ontology ontology;
  std::unique_ptr<BoundOntology> bound;
};

RelaxWorld MakeRelaxWorld(uint64_t seed) {
  Rng rng(seed);
  RelaxWorld world;
  OntologyBuilder ob;
  EXPECT_TRUE(ob.AddSubproperty("p0", "p1").ok());
  EXPECT_TRUE(ob.AddSubproperty("p1", "p2").ok());
  EXPECT_TRUE(ob.AddSubclass("c0", "c1").ok());
  EXPECT_TRUE(ob.AddSubclass("c1", "c2").ok());
  EXPECT_TRUE(ob.SetDomain("p1", "c1").ok());
  EXPECT_TRUE(ob.SetRange("p0", "c0").ok());
  world.ontology = std::move(ob).Finalize().value();

  GraphBuilder gb;
  std::vector<NodeId> nodes;
  for (int i = 0; i < 10; ++i) {
    nodes.push_back(gb.GetOrAddNode("n" + std::to_string(i)));
  }
  std::vector<NodeId> classes;
  for (const char* c : {"c0", "c1", "c2"}) {
    classes.push_back(gb.GetOrAddNode(c));
  }
  for (NodeId n : nodes) {
    if (rng.NextBool(0.7)) {
      EXPECT_TRUE(
          gb.AddTypeEdge(n, classes[rng.NextBounded(classes.size())]).ok());
    }
  }
  for (const char* p : {"p0", "p1", "p2"}) {
    const LabelId l = *gb.InternLabel(p);
    for (int e = 0; e < 10; ++e) {
      EXPECT_TRUE(gb.AddEdge(nodes[rng.NextBounded(nodes.size())], l,
                             nodes[rng.NextBounded(nodes.size())])
                      .ok());
    }
  }
  world.graph = std::move(gb).Finalize();
  world.bound = std::make_unique<BoundOntology>(&world.ontology, &world.graph);
  return world;
}

TEST_P(LazyExpansionTest, RelaxWithEntailmentMatchesOracle) {
  Rng rng(GetParam() * 32452843);
  const RelaxWorld world = MakeRelaxWorld(GetParam());
  for (int round = 0; round < 6; ++round) {
    const Conjunct conjunct = RandomConjunct(
        &rng, ConjunctMode::kRelax, {"p0", "p1", "p2", "type"},
        {"n0", "n3", "n5", "c0", "c1", "c2"});
    EvaluatorOptions options;
    options.relax.enable_domain_range = rng.NextBool(0.5);
    options.relax.gamma = 2;
    ExpectSameRankedAnswers(world.graph, world.bound.get(), conjunct, options,
                            4);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LazyExpansionTest,
                         ::testing::Range<uint64_t>(1, 13));

// A hub with many `a` leaves, queried for APPROX (hub, b, ?X): every
// answer needs one edit, so at distance 1 the eager Succ has pushed each
// leaf once per `*` transition of the hub before popping the first; the
// lazy one pushes a cursor per row and pops what it pushes.
GraphStore MakeStar(size_t leaves) {
  GraphBuilder builder;
  const NodeId hub = builder.GetOrAddNode("hub");
  const LabelId a = *builder.InternLabel("a");
  (void)builder.InternLabel("b");
  for (size_t i = 0; i < leaves; ++i) {
    EXPECT_TRUE(
        builder.AddEdge(hub, a, builder.GetOrAddNode("l" + std::to_string(i)))
            .ok());
  }
  return std::move(builder).Finalize();
}

template <typename Evaluator>
EvaluatorStats TopK(const GraphStore& g, const PreparedConjunct& prepared,
                    const EvaluatorOptions& options, size_t k) {
  Evaluator evaluator(&g, nullptr, &prepared, options);
  Answer a;
  for (size_t i = 0; i < k && evaluator.Next(&a); ++i) {
  }
  EXPECT_TRUE(evaluator.status().ok());
  return evaluator.stats();
}

TEST(LazyExpansionCountTest, StarPushesStayProportionalToPops) {
  const GraphStore g = MakeStar(2000);
  const EvaluatorOptions options;
  Result<PreparedConjunct> prepared =
      PrepareConjunct(testing::Cj("APPROX (hub, b, ?X)"), g, nullptr,
                      options);
  ASSERT_TRUE(prepared.ok());
  const EvaluatorStats lazy =
      TopK<ConjunctEvaluator>(g, *prepared, options, 20);
  const EvaluatorStats eager =
      TopK<EagerConjunctEvaluator>(g, *prepared, options, 20);
  ASSERT_GT(lazy.tuples_popped, 0u);
  EXPECT_LE(lazy.tuples_pushed, 3 * lazy.tuples_popped)
      << lazy.tuples_pushed << " pushed / " << lazy.tuples_popped;
  // The eager spec's amplification is of the order of the fan-out.
  EXPECT_GE(eager.tuples_pushed, 50 * eager.tuples_popped)
      << eager.tuples_pushed << " pushed / " << eager.tuples_popped;
  EXPECT_LT(lazy.max_dictionary_size, 100u);
}

TEST(LazyExpansionCountTest, TinyBudgetStillExhaustsOnAStar) {
  const GraphStore g = MakeStar(2000);
  EvaluatorOptions options;
  options.max_live_tuples = 64;
  Result<PreparedConjunct> prepared =
      PrepareConjunct(testing::Cj("APPROX (hub, b, ?X)"), g, nullptr,
                      options);
  ASSERT_TRUE(prepared.ok());
  ConjunctEvaluator evaluator(&g, nullptr, &*prepared, options);
  Answer a;
  size_t answers = 0;
  while (evaluator.Next(&a)) ++answers;
  EXPECT_EQ(evaluator.status().code(), StatusCode::kResourceExhausted);
  EXPECT_LT(answers, 2000u);
}

// The entailed type closure of a node typed with many classes is not a CSR
// row, so the evaluator copies it into its own buffer; the budget counts
// that buffer like any other live structure.
TEST(LazyExpansionCountTest, BudgetCountsTheOwnedNeighbourBuffer) {
  OntologyBuilder ob;
  EXPECT_TRUE(ob.AddSubclass("c0", "top").ok());
  Ontology ontology = std::move(ob).Finalize().value();
  GraphBuilder gb;
  const NodeId x = gb.GetOrAddNode("x");
  gb.GetOrAddNode("top");
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(
        gb.AddTypeEdge(x, gb.GetOrAddNode("c" + std::to_string(i))).ok());
  }
  const GraphStore g = std::move(gb).Finalize();
  const BoundOntology bound(&ontology, &g);

  EvaluatorOptions options;
  options.max_live_tuples = 100;
  Result<PreparedConjunct> prepared =
      PrepareConjunct(testing::Cj("RELAX (x, type, ?C)"), g, &bound, options);
  ASSERT_TRUE(prepared.ok());
  ConjunctEvaluator evaluator(&g, &bound, &*prepared, options);
  Answer a;
  EXPECT_FALSE(evaluator.Next(&a));  // the 200-class copy alone is over
  EXPECT_EQ(evaluator.status().code(), StatusCode::kResourceExhausted);

  options.max_live_tuples = 0;
  ConjunctEvaluator unbounded(&g, &bound, &*prepared, options);
  size_t answers = 0;
  while (unbounded.Next(&a)) ++answers;
  EXPECT_EQ(answers, 201u);  // c0..c199 and top
}

}  // namespace
}  // namespace omega
