// Shared helpers for the omega test suite: tiny graph construction, an
// independent reference evaluator (plain Dijkstra over the product space,
// none of the engine's dictionaries/batching/visited machinery), and random
// graph/regex generators for property sweeps.
#ifndef OMEGA_TESTS_TEST_UTIL_H_
#define OMEGA_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <map>
#include <queue>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "eval/conjunct_evaluator.h"
#include "eval/query_engine.h"
#include "eval/rank_join.h"
#include "obs/metrics.h"
#include "ontology/ontology.h"
#include "rpq/query_parser.h"
#include "rpq/regex_parser.h"
#include "store/graph_builder.h"
#include "store/graph_store.h"

namespace omega::testing {

/// Builds a graph from (src, label, dst) string triples.
inline GraphStore MakeGraph(
    const std::vector<std::tuple<std::string, std::string, std::string>>&
        triples) {
  GraphBuilder builder;
  for (const auto& [src, label, dst] : triples) {
    Status s = builder.AddEdge(src, label, dst);
    if (!s.ok()) throw std::runtime_error(s.ToString());
  }
  return std::move(builder).Finalize();
}

/// Deterministic scripted binding stream for join tests: replays a fixed
/// row vector (rows must have the full catalogue width, like real conjunct
/// streams).
class ScriptedBindingStream : public BindingStream {
 public:
  ScriptedBindingStream(std::vector<VarId> vars, std::vector<Binding> rows)
      : vars_(std::move(vars)), rows_(std::move(rows)) {}

  bool Next(Binding* out) override {
    if (pos_ >= rows_.size()) return false;
    *out = rows_[pos_++];
    return true;
  }
  const Status& status() const override { return status_; }
  const std::vector<VarId>& variables() const override { return vars_; }

 private:
  std::vector<VarId> vars_;
  std::vector<Binding> rows_;
  size_t pos_ = 0;
  Status status_;
};

/// Parses a full query or aborts the test.
inline Query Qy(const std::string& text) {
  Result<Query> q = ParseQuery(text);
  if (!q.ok()) throw std::runtime_error(q.status().ToString());
  return std::move(q).value();
}

/// Normalises projected answers for multiset comparison.
inline std::vector<std::pair<std::vector<NodeId>, Cost>> CanonAnswers(
    const std::vector<QueryAnswer>& answers) {
  std::vector<std::pair<std::vector<NodeId>, Cost>> rows;
  rows.reserve(answers.size());
  for (const QueryAnswer& a : answers) {
    rows.emplace_back(a.bindings, a.distance);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Parses a regex or aborts the test.
inline RegexPtr Rx(const std::string& text) {
  Result<RegexPtr> r = ParseRegex(text);
  if (!r.ok()) throw std::runtime_error(r.status().ToString());
  return std::move(r).value();
}

/// Parses a conjunct or aborts the test.
inline Conjunct Cj(const std::string& text) {
  Result<Conjunct> r = ParseConjunct(text);
  if (!r.ok()) throw std::runtime_error(r.status().ToString());
  return std::move(r).value();
}

/// Independent neighbour semantics mirroring §3.4 (kept deliberately naive).
inline std::vector<NodeId> ReferenceNeighbors(const GraphStore& g,
                                              const BoundOntology* ontology,
                                              bool entailment, NodeId n,
                                              const NfaTransition& t) {
  std::vector<NodeId> out;
  auto add_span = [&out](std::span<const NodeId> ids) {
    out.insert(out.end(), ids.begin(), ids.end());
  };
  switch (t.kind) {
    case TransitionKind::kEpsilon:
      break;
    case TransitionKind::kLabel:
      if (t.label == kInvalidLabel) break;
      if (entailment && ontology != nullptr &&
          t.label != LabelDictionary::kTypeLabel) {
        for (LabelId down : ontology->LabelDownSet(t.label)) {
          add_span(g.Neighbors(n, down, t.dir));
        }
      } else if (entailment && ontology != nullptr &&
                 t.label == LabelDictionary::kTypeLabel) {
        if (t.dir == Direction::kOutgoing) {
          for (NodeId c : g.TypeNeighbors(n, Direction::kOutgoing)) {
            out.push_back(c);
            for (auto& [anc, steps] : ontology->NodeAncestors(c)) {
              out.push_back(anc);
            }
          }
        } else {
          const OidSet& down = ontology->NodeDownSet(n);
          if (down.empty()) {
            add_span(g.TypeNeighbors(n, Direction::kIncoming));
          } else {
            for (NodeId c : down) {
              add_span(g.TypeNeighbors(c, Direction::kIncoming));
            }
          }
        }
      } else {
        add_span(g.Neighbors(n, t.label, t.dir));
      }
      break;
    case TransitionKind::kAnyLabel:
      add_span(g.SigmaNeighbors(n, t.dir));
      add_span(g.TypeNeighbors(n, t.dir));
      break;
    case TransitionKind::kAnyLabelBothDirs:
      add_span(g.SigmaNeighbors(n, Direction::kOutgoing));
      add_span(g.SigmaNeighbors(n, Direction::kIncoming));
      add_span(g.TypeNeighbors(n, Direction::kOutgoing));
      add_span(g.TypeNeighbors(n, Direction::kIncoming));
      break;
    case TransitionKind::kConstrainedType:
      if (ontology != nullptr) {
        for (NodeId c : g.TypeNeighbors(n, Direction::kOutgoing)) {
          if (ontology->NodeDownSet(t.class_node).Contains(c)) {
            out.push_back(c);
          }
        }
      }
      break;
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Plain Dijkstra over (start, node, state): the complete set of answers of
/// a prepared conjunct with distance <= max_distance, sorted by
/// (distance, v, n). Seeds every graph node for variable sources (plus
/// RELAX class-ancestor seeds for constant class sources).
inline std::vector<Answer> ReferenceAnswers(const GraphStore& g,
                                            const BoundOntology* ontology,
                                            const PreparedConjunct& prepared,
                                            Cost max_distance,
                                            Cost relax_beta = 1) {
  const Nfa& nfa = prepared.nfa;
  using Key = std::tuple<NodeId, NodeId, StateId>;  // (v, n, s)
  std::map<Key, Cost> dist;
  using Entry = std::pair<Cost, Key>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;

  auto push = [&](NodeId v, NodeId n, StateId s, Cost d) {
    if (d > max_distance) return;
    Key key{v, n, s};
    auto it = dist.find(key);
    if (it != dist.end() && it->second <= d) return;
    dist[key] = d;
    heap.emplace(d, key);
  };

  if (!prepared.eval_source.is_variable) {
    auto c = g.FindNode(prepared.eval_source.name);
    if (!c) return {};
    push(*c, *c, nfa.initial(), 0);
    if (prepared.mode == ConjunctMode::kRelax && ontology != nullptr) {
      for (auto& [ancestor, steps] : ontology->NodeAncestors(*c)) {
        push(ancestor, ancestor, nfa.initial(),
             static_cast<Cost>(steps) * relax_beta);
      }
    }
  } else {
    for (NodeId n = 0; n < g.NumNodes(); ++n) {
      push(n, n, nfa.initial(), 0);
    }
  }

  std::map<std::pair<NodeId, NodeId>, Cost> best;
  const bool entail = nfa.entailment_matching();
  while (!heap.empty()) {
    auto [d, key] = heap.top();
    heap.pop();
    auto it = dist.find(key);
    if (it == dist.end() || it->second < d) continue;
    auto [v, n, s] = key;
    if (nfa.IsFinal(s) && d + nfa.FinalWeight(s) <= max_distance) {
      bool matches = true;
      if (!prepared.eval_target.is_variable) {
        auto target = g.FindNode(prepared.eval_target.name);
        matches = target && *target == n;
      }
      if (matches) {
        auto bi = best.find({v, n});
        const Cost answer_d = d + nfa.FinalWeight(s);
        if (bi == best.end() || answer_d < bi->second) {
          best[{v, n}] = answer_d;
        }
      }
    }
    for (const NfaTransition& t : nfa.Out(s)) {
      for (NodeId m : ReferenceNeighbors(g, ontology, entail, n, t)) {
        push(v, m, t.to, d + t.cost);
      }
    }
  }

  std::vector<Answer> answers;
  for (const auto& [pair, d] : best) {
    answers.push_back({pair.first, pair.second, d});
  }
  std::sort(answers.begin(), answers.end(), [](const Answer& a,
                                               const Answer& b) {
    return std::tie(a.distance, a.v, a.n) < std::tie(b.distance, b.v, b.n);
  });
  return answers;
}

/// Drains `stream` up to answers of distance <= max_distance (relies on
/// non-decreasing emission order), normalised for set comparison.
inline std::vector<Answer> DrainUpTo(AnswerStream* stream, Cost max_distance) {
  std::vector<Answer> out;
  Answer a;
  while (stream->Next(&a)) {
    if (a.distance > max_distance) break;
    out.push_back(a);
  }
  std::sort(out.begin(), out.end(), [](const Answer& x, const Answer& y) {
    return std::tie(x.distance, x.v, x.n) < std::tie(y.distance, y.v, y.n);
  });
  return out;
}

/// Deterministic random graph: `num_nodes` nodes "n<i>", edges drawn over
/// `labels` with the given density (expected edges per node per label).
inline GraphStore RandomGraph(uint64_t seed, size_t num_nodes,
                              const std::vector<std::string>& labels,
                              double density) {
  Rng rng(seed);
  GraphBuilder builder;
  std::vector<NodeId> nodes;
  for (size_t i = 0; i < num_nodes; ++i) {
    nodes.push_back(builder.GetOrAddNode("n" + std::to_string(i)));
  }
  for (const std::string& label : labels) {
    Result<LabelId> l = builder.InternLabel(label);
    const size_t edges =
        static_cast<size_t>(density * static_cast<double>(num_nodes));
    for (size_t e = 0; e < edges; ++e) {
      Status s = builder.AddEdge(nodes[rng.NextBounded(num_nodes)], *l,
                                 nodes[rng.NextBounded(num_nodes)]);
      (void)s;
    }
  }
  return std::move(builder).Finalize();
}

/// Random regex over `labels` with the paper's grammar, bounded depth.
inline RegexPtr RandomRegex(Rng* rng, const std::vector<std::string>& labels,
                            int depth) {
  const int pick = depth <= 0 ? static_cast<int>(rng->NextBounded(3))
                              : static_cast<int>(rng->NextBounded(7));
  switch (pick) {
    case 0:
      return MakeLabel(labels[rng->NextBounded(labels.size())]);
    case 1:
      return MakeLabel(labels[rng->NextBounded(labels.size())],
                       Direction::kIncoming);
    case 2:
      return MakeWildcard();
    case 3: {
      std::vector<RegexPtr> parts;
      const size_t n = 2 + rng->NextBounded(2);
      for (size_t i = 0; i < n; ++i) {
        parts.push_back(RandomRegex(rng, labels, depth - 1));
      }
      return MakeConcat(std::move(parts));
    }
    case 4: {
      std::vector<RegexPtr> parts;
      const size_t n = 2 + rng->NextBounded(2);
      for (size_t i = 0; i < n; ++i) {
        parts.push_back(RandomRegex(rng, labels, depth - 1));
      }
      return MakeAlternation(std::move(parts));
    }
    case 5:
      return MakeStar(RandomRegex(rng, labels, depth - 1));
    default:
      return MakePlus(RandomRegex(rng, labels, depth - 1));
  }
}

/// A QueryService registry's omega_service_completed_total for one status
/// label value, summed over the query-class label.
inline uint64_t CompletedTotal(MetricsRegistry& registry,
                               const std::string& status) {
  uint64_t total = 0;
  for (const char* cls : {"EXACT", "APPROX", "RELAX", "MIXED"}) {
    total += registry
                 .GetCounter("omega_service_completed_total", "",
                             std::string("class=\"") + cls +
                                 "\",status=\"" + status + "\"")
                 ->Value();
  }
  return total;
}

}  // namespace omega::testing

#endif  // OMEGA_TESTS_TEST_UTIL_H_
