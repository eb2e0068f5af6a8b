#include "eval/initial_node_stream.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "automata/epsilon_removal.h"
#include "automata/thompson.h"
#include "common/rng.h"
#include "reference/materialized_initial_node_stream.h"
#include "test_util.h"

namespace omega {
namespace {

using testing::MakeGraph;
using testing::Rx;

template <typename Stream>
std::vector<NodeId> DrainStream(Stream* stream) {
  std::vector<NodeId> out;
  for (;;) {
    auto batch = stream->NextBatch();
    if (batch.empty()) break;
    out.insert(out.end(), batch.begin(), batch.end());
  }
  return out;
}

Nfa MakeNfa(const GraphStore& g, const std::string& regex) {
  return RemoveEpsilons(BuildThompsonNfa(*Rx(regex), g.labels()));
}

TEST(InitialNodeStreamTest, StartNodesOnlyHaveMatchingEdges) {
  GraphStore g = MakeGraph(
      {{"a", "e", "b"}, {"c", "e", "d"}, {"x", "f", "y"}});
  Nfa nfa = MakeNfa(g, "e.f");
  InitialNodeStream stream(&g, nullptr, &nfa, /*include_remaining=*/false,
                           100);
  auto nodes = DrainStream(&stream);
  // Only nodes with an outgoing e-edge qualify: a and c.
  std::set<NodeId> got(nodes.begin(), nodes.end());
  EXPECT_EQ(got, (std::set<NodeId>{*g.FindNode("a"), *g.FindNode("c")}));
}

TEST(InitialNodeStreamTest, ReversedLabelUsesHeads) {
  GraphStore g = MakeGraph({{"a", "e", "b"}, {"c", "e", "d"}});
  Nfa nfa = MakeNfa(g, "e-");
  InitialNodeStream stream(&g, nullptr, &nfa, false, 100);
  auto nodes = DrainStream(&stream);
  std::set<NodeId> got(nodes.begin(), nodes.end());
  EXPECT_EQ(got, (std::set<NodeId>{*g.FindNode("b"), *g.FindNode("d")}));
}

TEST(InitialNodeStreamTest, IncludeRemainingYieldsEveryNodeExactlyOnce) {
  GraphStore g = MakeGraph({{"a", "e", "b"}, {"x", "f", "y"}});
  Nfa nfa = MakeNfa(g, "e*");  // start state is final: all nodes candidates
  InitialNodeStream stream(&g, nullptr, &nfa, /*include_remaining=*/true,
                           100);
  auto nodes = DrainStream(&stream);
  EXPECT_EQ(nodes.size(), g.NumNodes());
  std::set<NodeId> distinct(nodes.begin(), nodes.end());
  EXPECT_EQ(distinct.size(), g.NumNodes());
  // Nodes with a usable e-edge come before edge-less ones.
  EXPECT_EQ(nodes.front(), *g.FindNode("a"));
}

TEST(InitialNodeStreamTest, BatchSizeControlsChunking) {
  GraphStore g = testing::RandomGraph(3, 50, {"e"}, 2.0);
  Nfa nfa = MakeNfa(g, "e");
  InitialNodeStream stream(&g, nullptr, &nfa, false, 7);
  size_t batches = 0;
  size_t total = 0;
  for (;;) {
    auto batch = stream.NextBatch();
    if (batch.empty()) break;
    EXPECT_LE(batch.size(), 7u);
    ++batches;
    total += batch.size();
  }
  EXPECT_EQ(total, stream.total_yielded());
  EXPECT_GE(batches, total / 7);
  EXPECT_TRUE(stream.Exhausted());
}

TEST(InitialNodeStreamTest, CheaperTransitionGroupsComeFirst) {
  // Manually build an NFA whose start state has a cost-0 exit on label e
  // and a cost-1 exit on label f: e-endpoints must precede f-endpoints.
  GraphStore g = MakeGraph({{"a", "e", "b"}, {"x", "f", "y"}});
  Nfa nfa;
  const StateId s0 = nfa.AddState();
  const StateId s1 = nfa.AddState();
  nfa.SetInitial(s0);
  nfa.MakeFinal(s1);
  nfa.AddLabel(s0, s1, *g.labels().Find("e"), Direction::kOutgoing, 0);
  nfa.AddLabel(s0, s1, *g.labels().Find("f"), Direction::kOutgoing, 1);
  nfa.SortTransitions();

  InitialNodeStream stream(&g, nullptr, &nfa, false, 100);
  auto nodes = DrainStream(&stream);
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(nodes[0], *g.FindNode("a"));  // cost-0 group first
  EXPECT_EQ(nodes[1], *g.FindNode("x"));
}

TEST(InitialNodeStreamTest, NodeInBothGroupsYieldedOnceAtCheaperGroup) {
  // `a` has both e (cost 0 exit) and f (cost 1 exit) edges.
  GraphStore g = MakeGraph({{"a", "e", "b"}, {"a", "f", "c"}, {"x", "f", "y"}});
  Nfa nfa;
  const StateId s0 = nfa.AddState();
  const StateId s1 = nfa.AddState();
  nfa.SetInitial(s0);
  nfa.MakeFinal(s1);
  nfa.AddLabel(s0, s1, *g.labels().Find("e"), Direction::kOutgoing, 0);
  nfa.AddLabel(s0, s1, *g.labels().Find("f"), Direction::kOutgoing, 1);
  nfa.SortTransitions();

  InitialNodeStream stream(&g, nullptr, &nfa, false, 100);
  auto nodes = DrainStream(&stream);
  ASSERT_EQ(nodes.size(), 2u);  // a once (cheap group), then x
  EXPECT_EQ(nodes[0], *g.FindNode("a"));
  EXPECT_EQ(nodes[1], *g.FindNode("x"));
}

TEST(InitialNodeStreamTest, WildcardSeedsSigmaAndTypeEndpoints) {
  GraphBuilder builder;
  const NodeId a = builder.GetOrAddNode("a");
  const NodeId k = builder.GetOrAddNode("K");
  const NodeId b = builder.GetOrAddNode("b");
  ASSERT_TRUE(builder.AddTypeEdge(a, k).ok());
  ASSERT_TRUE(builder.AddEdge(b, *builder.InternLabel("e"), a).ok());
  GraphStore g = std::move(builder).Finalize();

  Nfa nfa = MakeNfa(g, "_");
  InitialNodeStream stream(&g, nullptr, &nfa, false, 100);
  auto nodes = DrainStream(&stream);
  std::set<NodeId> got(nodes.begin(), nodes.end());
  // `_` is a forward step over Σ ∪ {type}: a (type out) and b (e out).
  EXPECT_EQ(got, (std::set<NodeId>{a, b}));
}

TEST(InitialNodeStreamTest, EntailmentExpandsSeedLabels) {
  OntologyBuilder ob;
  ASSERT_TRUE(ob.AddSubproperty("e", "parent").ok());
  Result<Ontology> o = std::move(ob).Finalize();
  ASSERT_TRUE(o.ok());
  GraphStore g = MakeGraph({{"a", "e", "b"}});
  BoundOntology bound(&*o, &g);

  // An NFA over the synthetic `parent` label, marked for entailment.
  Nfa nfa;
  const StateId s0 = nfa.AddState();
  const StateId s1 = nfa.AddState();
  nfa.SetInitial(s0);
  nfa.MakeFinal(s1);
  nfa.AddLabel(s0, s1, *bound.FindSyntheticLabel("parent"),
               Direction::kOutgoing, 0);
  nfa.SetEntailmentMatching(true);

  InitialNodeStream stream(&g, &bound, &nfa, false, 100);
  auto nodes = DrainStream(&stream);
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(nodes[0], *g.FindNode("a"));  // via down-set member e
}

TEST(InitialNodeStreamTest, EmptyGraphLabelYieldsNothing) {
  GraphStore g = MakeGraph({{"a", "e", "b"}});
  Nfa nfa = MakeNfa(g, "zzz");
  InitialNodeStream stream(&g, nullptr, &nfa, false, 100);
  EXPECT_TRUE(DrainStream(&stream).empty());
  EXPECT_TRUE(stream.Exhausted());
}

// --- Equivalence with the materialising stream (reference/) -------------

/// Random world for the seed streams: instances n0..n{k-1}, class nodes
/// c0..c3 under a random sc forest, properties p0..p3 under a random sp
/// forest plus `top` (a super-property of p0 and p1 that never occurs in
/// the graph, so it resolves to a synthetic label), a label `empty` with no
/// edges, and a few nodes with no edges at all.
struct SeedWorld {
  GraphStore graph;
  Ontology ontology;
  std::unique_ptr<BoundOntology> bound;
  std::vector<LabelId> labels;   // every label a transition may carry
  std::vector<NodeId> classes;   // class nodes, for constrained types
};

/// Heap-allocated: `bound` points into the world, so it must not move.
std::unique_ptr<SeedWorld> MakeSeedWorld(uint64_t seed) {
  Rng rng(seed);
  auto world_ptr = std::make_unique<SeedWorld>();
  SeedWorld& world = *world_ptr;

  OntologyBuilder ob;
  const std::vector<std::string> properties = {"p0", "p1", "p2", "p3"};
  for (size_t i = 0; i + 1 < properties.size(); ++i) {
    if (rng.NextBool(0.6)) {
      const size_t parent = i + 1 + rng.NextBounded(properties.size() - i - 1);
      EXPECT_TRUE(ob.AddSubproperty(properties[i], properties[parent]).ok());
    }
  }
  EXPECT_TRUE(ob.AddSubproperty("p0", "top").ok());
  EXPECT_TRUE(ob.AddSubproperty("p1", "top").ok());
  const std::vector<std::string> class_names = {"c0", "c1", "c2", "c3"};
  for (size_t i = 0; i + 1 < class_names.size(); ++i) {
    if (rng.NextBool(0.6)) {
      const size_t parent =
          i + 1 + rng.NextBounded(class_names.size() - i - 1);
      EXPECT_TRUE(ob.AddSubclass(class_names[i], class_names[parent]).ok());
    }
  }
  Result<Ontology> ontology = std::move(ob).Finalize();
  EXPECT_TRUE(ontology.ok());
  world.ontology = std::move(ontology).value();

  GraphBuilder gb;
  const size_t instances = 20 + rng.NextBounded(30);
  std::vector<NodeId> nodes;
  for (size_t i = 0; i < instances; ++i) {
    nodes.push_back(gb.GetOrAddNode("n" + std::to_string(i)));
  }
  for (const std::string& c : class_names) {
    world.classes.push_back(gb.GetOrAddNode(c));
  }
  for (NodeId n : nodes) {
    if (rng.NextBool(0.5)) {
      EXPECT_TRUE(
          gb.AddTypeEdge(n, world.classes[rng.NextBounded(4)]).ok());
    }
  }
  // Edges only among the first 3/4 of the instances: the rest stay
  // isolated and reach the stream only through the remaining-nodes group.
  const size_t connected = instances * 3 / 4;
  for (const std::string& p : properties) {
    Result<LabelId> l = gb.InternLabel(p);
    world.labels.push_back(*l);
    const size_t edges = rng.NextBounded(2 * connected);
    for (size_t e = 0; e < edges; ++e) {
      EXPECT_TRUE(gb.AddEdge(nodes[rng.NextBounded(connected)], *l,
                             nodes[rng.NextBounded(connected)])
                      .ok());
    }
  }
  world.labels.push_back(*gb.InternLabel("empty"));
  world.graph = std::move(gb).Finalize();
  world.bound = std::make_unique<BoundOntology>(&world.ontology, &world.graph);
  world.labels.push_back(LabelDictionary::kTypeLabel);
  world.labels.push_back(*world.bound->FindSyntheticLabel("top"));
  return world_ptr;
}

/// Requires both streams to yield the identical batches for batch sizes 1,
/// 7 and |V|, and both to honour the Exhausted() contract.
void ExpectSameSeeds(const SeedWorld& world, const Nfa& nfa,
                     bool include_remaining) {
  const BoundOntology* ontology =
      nfa.entailment_matching() ? world.bound.get() : nullptr;
  const size_t num_nodes = world.graph.NumNodes();
  for (size_t batch_size : {size_t{1}, size_t{7}, num_nodes}) {
    SCOPED_TRACE("batch_size=" + std::to_string(batch_size) +
                 " include_remaining=" + std::to_string(include_remaining) +
                 "\n" + nfa.DebugString());
    InitialNodeStream lazy(&world.graph, ontology, &nfa, include_remaining,
                           batch_size);
    MaterializedInitialNodeStream spec(&world.graph, ontology, &nfa,
                                       include_remaining, batch_size);
    for (;;) {
      std::span<const NodeId> want = spec.NextBatch();
      std::span<const NodeId> got = lazy.NextBatch();
      ASSERT_EQ(std::vector<NodeId>(got.begin(), got.end()),
                std::vector<NodeId>(want.begin(), want.end()));
      if (lazy.Exhausted()) {
        EXPECT_TRUE(lazy.NextBatch().empty());
        EXPECT_TRUE(spec.NextBatch().empty());
        break;
      }
      if (got.empty()) break;
    }
    EXPECT_EQ(lazy.total_yielded(), spec.total_yielded());
    if (include_remaining) {
      EXPECT_EQ(lazy.total_yielded(), num_nodes);
    }
  }
}

/// s0 --t--> s1 (final) for each given transition.
Nfa StartStateNfa(const std::vector<NfaTransition>& exits, bool entail) {
  Nfa nfa;
  const StateId s0 = nfa.AddState();
  const StateId s1 = nfa.AddState();
  nfa.SetInitial(s0);
  nfa.MakeFinal(s1);
  for (NfaTransition t : exits) {
    t.to = s1;
    nfa.AddTransition(s0, t);
  }
  nfa.SortTransitions();
  nfa.SetEntailmentMatching(entail);
  return nfa;
}

NfaTransition LabelExit(LabelId label, Direction dir, Cost cost) {
  NfaTransition t;
  t.kind = TransitionKind::kLabel;
  t.label = label;
  t.dir = dir;
  t.cost = cost;
  return t;
}

NfaTransition KindExit(TransitionKind kind, Direction dir, Cost cost) {
  NfaTransition t;
  t.kind = kind;
  t.dir = dir;
  t.cost = cost;
  return t;
}

NfaTransition RandomExit(Rng* rng, const SeedWorld& world) {
  const Cost cost = static_cast<Cost>(rng->NextBounded(4));
  const Direction dir =
      rng->NextBool(0.5) ? Direction::kOutgoing : Direction::kIncoming;
  switch (rng->NextBounded(6)) {
    case 0:
      return KindExit(TransitionKind::kAnyLabel, dir, cost);
    case 1:
      return KindExit(TransitionKind::kAnyLabelBothDirs, dir, cost);
    case 2: {
      NfaTransition t = KindExit(TransitionKind::kConstrainedType,
                                 Direction::kOutgoing, cost);
      t.class_node = world.classes[rng->NextBounded(world.classes.size())];
      return t;
    }
    default:
      return LabelExit(world.labels[rng->NextBounded(world.labels.size())],
                       dir, cost);
  }
}

class SeedEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedEquivalenceTest, LazyStreamYieldsMaterializedSequence) {
  Rng rng(GetParam() * 7919 + 1);
  std::unique_ptr<SeedWorld> world = MakeSeedWorld(GetParam());
  for (int round = 0; round < 12; ++round) {
    std::vector<NfaTransition> exits;
    const size_t n = 1 + rng.NextBounded(6);
    for (size_t i = 0; i < n; ++i) exits.push_back(RandomExit(&rng, *world));
    const bool entail = rng.NextBool(0.5);
    ExpectSameSeeds(*world, StartStateNfa(exits, entail), rng.NextBool(0.5));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 25));

// The shapes the random sweep must not leave to chance, one world each.
class SeedShapeTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override { world_ = MakeSeedWorld(GetParam()); }
  LabelId Label(const std::string& name) const {
    return *world_->graph.labels().Find(name);
  }
  void Check(const std::vector<NfaTransition>& exits, bool entail) {
    for (bool include_remaining : {false, true}) {
      ExpectSameSeeds(*world_, StartStateNfa(exits, entail),
                      include_remaining);
    }
  }
  std::unique_ptr<SeedWorld> world_;
};

TEST_P(SeedShapeTest, SameCostGroupWithOverlappingCandidates) {
  // The next+|(prereq+.next) shape: two cost-0 exits whose Tails overlap.
  Check({LabelExit(Label("p0"), Direction::kOutgoing, 0),
         LabelExit(Label("p1"), Direction::kOutgoing, 0),
         LabelExit(Label("p0"), Direction::kIncoming, 0)},
        false);
}

TEST_P(SeedShapeTest, ThreeOrMoreCostGroups) {
  Check({LabelExit(Label("p2"), Direction::kOutgoing, 0),
         LabelExit(Label("p0"), Direction::kIncoming, 1),
         LabelExit(Label("p1"), Direction::kOutgoing, 1),
         LabelExit(Label("p3"), Direction::kOutgoing, 2),
         KindExit(TransitionKind::kAnyLabel, Direction::kOutgoing, 3)},
        false);
}

TEST_P(SeedShapeTest, EntailedReverseTypeMergesHeadsAndBoundClasses) {
  Check({LabelExit(LabelDictionary::kTypeLabel, Direction::kIncoming, 0),
         LabelExit(Label("p1"), Direction::kIncoming, 1)},
        true);
}

TEST_P(SeedShapeTest, RelaxDownSetsMergeEveryMember) {
  Check({LabelExit(*world_->bound->FindSyntheticLabel("top"),
                   Direction::kOutgoing, 0),
         LabelExit(Label("p3"), Direction::kIncoming, 0),
         LabelExit(Label("p2"), Direction::kOutgoing, 2)},
        true);
}

TEST_P(SeedShapeTest, AnyLabelBothDirsMergesFourEndpointSets) {
  Check({LabelExit(Label("p0"), Direction::kOutgoing, 0),
         KindExit(TransitionKind::kAnyLabelBothDirs, Direction::kOutgoing,
                  1)},
        false);
}

TEST_P(SeedShapeTest, LabelsWithNoEdgesYieldNothingButRemaining) {
  Check({LabelExit(Label("empty"), Direction::kOutgoing, 0),
         LabelExit(Label("empty"), Direction::kIncoming, 1),
         LabelExit(kInvalidLabel, Direction::kOutgoing, 2)},
        false);
}

INSTANTIATE_TEST_SUITE_P(Worlds, SeedShapeTest,
                         ::testing::Range<uint64_t>(100, 106));

TEST(InitialNodeStreamTest, ExhaustedMeansEmptyBatches) {
  std::unique_ptr<SeedWorld> world = MakeSeedWorld(7);
  Nfa nfa = StartStateNfa(
      {LabelExit(*world->graph.labels().Find("p0"), Direction::kOutgoing, 0)},
      false);
  InitialNodeStream stream(&world->graph, nullptr, &nfa, true, 3);
  DrainStream(&stream);
  EXPECT_TRUE(stream.Exhausted());
  EXPECT_TRUE(stream.NextBatch().empty());
  EXPECT_EQ(stream.total_yielded(), world->graph.NumNodes());
}

}  // namespace
}  // namespace omega
