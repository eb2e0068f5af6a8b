// The eager Succ of the paper (§3.3–3.4), kept as the executable
// specification of ConjunctEvaluator: expanding a tuple fetches every
// neighbour set of every transition of its state, sorts and deduplicates
// each SameNeighborGroup union, probes the visited set, and pushes one
// (v, m, s', d + cost) tuple per successor. ConjunctEvaluator (the lazy
// expansion that replaced it on the hot path) must produce the same ranked
// answer multiset — tests/lazy_expansion_test.cc asserts this on random
// graphs, and bench_micro_substrate races the two implementations.
#ifndef OMEGA_REFERENCE_EAGER_CONJUNCT_EVALUATOR_H_
#define OMEGA_REFERENCE_EAGER_CONJUNCT_EVALUATOR_H_

#include <memory>
#include <optional>
#include <vector>

#include "common/flat_hash.h"
#include "common/pack.h"
#include "eval/answer.h"
#include "eval/conjunct_evaluator.h"
#include "eval/initial_node_stream.h"
#include "eval/tuple_dictionary.h"
#include "ontology/ontology.h"
#include "store/graph_store.h"

namespace omega {

class EagerConjunctEvaluator : public AnswerStream {
 public:
  /// Same contract as ConjunctEvaluator's constructor.
  EagerConjunctEvaluator(const GraphStore* graph,
                         const BoundOntology* ontology,
                         const PreparedConjunct* prepared,
                         const EvaluatorOptions& options);

  /// Seeds D_R (the paper's Open). Idempotent; called lazily by Next() too.
  void Open();

  bool Next(Answer* out) override;
  const Status& status() const override { return status_; }
  EvaluatorStats stats() const override { return stats_; }

  /// True if some tuple or answer exceeded options.max_distance.
  bool truncated_by_distance() const { return truncated_by_distance_; }

 private:
  struct VisitedKey {
    uint64_t vn;  // v << 32 | n
    StateId s;
    bool operator==(const VisitedKey&) const = default;
  };
  struct VisitedKeyHash {
    size_t operator()(const VisitedKey& k) const {
      return static_cast<size_t>(
          HashMix64(k.vn ^ (static_cast<uint64_t>(k.s) *
                            0x9e3779b97f4a7c15ULL)));
    }
  };

  uint64_t AnswerKey(NodeId v, NodeId n) const {
    return PackPair(prepared_->eval_source.is_variable ? v : kInvalidNode, n);
  }

  void AddTuple(const EvalTuple& tuple);
  void RefillSeeds();
  void ExpandTuple(const EvalTuple& tuple);
  void CollectNeighbors(NodeId n, const NfaTransition& t,
                        std::vector<NodeId>* out) const;
  bool TargetMatches(NodeId n) const;
  void CheckBudget();

  const GraphStore* graph_;
  const BoundOntology* ontology_;
  const PreparedConjunct* prepared_;
  EvaluatorOptions options_;

  TupleDictionary dict_;
  FlatHashSet<VisitedKey, VisitedKeyHash> visited_;
  FlatHashMap<uint64_t, Cost> answers_;
  std::unique_ptr<InitialNodeStream> stream_;
  std::vector<NodeId> scratch_neighbors_;

  std::optional<NodeId> source_node_;
  std::optional<NodeId> target_node_;
  bool target_is_constant_ = false;

  bool opened_ = false;
  uint32_t cancel_tick_ = 0;
  bool truncated_by_distance_ = false;
  Status status_;
  EvaluatorStats stats_;
};

}  // namespace omega

#endif  // OMEGA_REFERENCE_EAGER_CONJUNCT_EVALUATOR_H_
