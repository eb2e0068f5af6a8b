// Incremental ranked evaluation of one query conjunct: the paper's Open,
// GetNext and Succ procedures (§3.3–3.4) over the weighted product automaton
// H_R of the (possibly APPROX/RELAX-augmented) query NFA and the data graph.
// Answers stream out in non-decreasing distance; the product is explored
// best-first and never materialised.
#ifndef OMEGA_EVAL_CONJUNCT_EVALUATOR_H_
#define OMEGA_EVAL_CONJUNCT_EVALUATOR_H_

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/flat_hash.h"
#include "common/pack.h"
#include "eval/answer.h"
#include "eval/initial_node_stream.h"
#include "eval/tuple_dictionary.h"
#include "ontology/ontology.h"
#include "rpq/query.h"
#include "store/graph_store.h"

namespace omega {

/// A conjunct compiled to its final automaton. Case 2 of Open — a constant
/// target with variable source — is normalised here by reversing the regex
/// (linear on the AST), so `eval_source`/`eval_target` are the endpoints
/// *after* any reversal: Answer.v always binds eval_source and Answer.n
/// always binds eval_target.
struct PreparedConjunct {
  Nfa nfa;
  Endpoint eval_source;
  Endpoint eval_target;
  ConjunctMode mode = ConjunctMode::kExact;
  bool reversed = false;

  /// Shape analysis of the *evaluated* regex (post-reversal), filled by
  /// PrepareConjunct. `closure_shape` is set when the regex is a
  /// single-atom closure ({a^k : k >= min_hops}) — the shape the
  /// reachability index can answer; `max_exact_path_edges` is the longest
  /// accepted path (nullopt = unbounded), which the distance sketch uses
  /// to turn hop distance into a cost floor.
  std::optional<ClosureShape> closure_shape;
  std::optional<uint32_t> max_exact_path_edges;
};

/// Compiles a conjunct: Thompson construction, weighted ε-removal, then the
/// APPROX (A_R) or RELAX (M^K_R) augmentation. `ontology` is required for
/// RELAX conjuncts and otherwise may be null.
Result<PreparedConjunct> PrepareConjunct(const Conjunct& conjunct,
                                         const GraphStore& graph,
                                         const BoundOntology* ontology,
                                         const EvaluatorOptions& options);

/// Succ is lazy at two levels, so the work done before each pop is
/// bounded by what that pop needs rather than by graph fan-out:
///
///  * Expansion records. Expanding (v, n, s, d) handles the cost-0
///    transitions of s at once. For the next distinct transition cost c of
///    s it enqueues one record at d + c; popping the record handles the
///    transitions at that cost and re-arms the record at the next cost.
///    The final weight of s is one more such cost: its level enqueues the
///    final tuple. Costs the search never reaches are never touched.
///  * Row cursors. Each transition handled enqueues one cursor per
///    neighbour row (a CSR row of the store) at its fixed distance, not one
///    tuple per neighbour. Popping a cursor scans the row to its next
///    neighbour m with (v, m, s') unvisited — the visited probe happens at
///    pop time — re-arms the cursor if neighbours remain, and expands
///    (v, m, s') in place. A union of rows (`_`, APPROX `*`, entailed
///    sub-property labels) is one cursor per row; a neighbour repeated
///    across rows is dropped by the same probe. Only the two neighbour
///    sets that are not rows (the entailed type-ancestor closure and the
///    constrained-type filter) are copied into an evaluator-owned buffer.
///
/// The contract is unchanged: the ranked answer multiset, in
/// non-decreasing distance (reference/eager_conjunct_evaluator.h keeps the
/// eager Succ as the executable spec). EvaluatorStats::tuples_pushed counts
/// every dictionary insertion — tuples, cursors, records and re-arms alike —
/// and tuples_popped every removal.
class ConjunctEvaluator : public AnswerStream {
 public:
  /// `prepared` must outlive the evaluator (distance-aware mode re-runs
  /// fresh evaluators over one shared PreparedConjunct).
  ConjunctEvaluator(const GraphStore* graph, const BoundOntology* ontology,
                    const PreparedConjunct* prepared,
                    const EvaluatorOptions& options);

  /// Seeds D_R (the paper's Open). Idempotent; called lazily by Next() too.
  void Open();

  bool Next(Answer* out) override;
  const Status& status() const override { return status_; }
  EvaluatorStats stats() const override { return stats_; }

  /// True if some tuple or answer exceeded options.max_distance — i.e. a
  /// higher distance ceiling could still produce more answers.
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

  /// The work of one state at one cost: its transitions_[begin, end) of
  /// that cost, and whether the cost is the state's final weight (GetNext
  /// lines 12–13 re-enqueue a final tuple at d + weight(s)).
  struct CostLevel {
    Cost cost;
    uint32_t begin;
    uint32_t end;
    bool final;
  };

  /// Duplicate-answer key: answers are deduplicated on variable bindings, so
  /// for a constant source the v component is normalised — RELAX ancestor
  /// seeds (different v per seed class) must not re-answer the same ?X.
  uint64_t AnswerKey(NodeId v, NodeId n) const {
    return PackPair(prepared_->eval_source.is_variable ? v : kInvalidNode, n);
  }

  bool IsVisited(NodeId v, NodeId n, StateId s) const {
    return options_.use_visited_set && visited_.Contains({PackPair(v, n), s});
  }

  /// Groups each state's transitions and final weight by ascending cost
  /// into levels_.
  void BuildCostLevels();

  /// Adds an entry unless it violates the distance ceiling (sets the
  /// truncation flag).
  void AddTuple(const EvalTuple& tuple);

  /// Keeps the invariant that no tuple with d > 0 is popped while unseeded
  /// initial nodes remain (lines 14–17 of GetNext).
  void RefillSeeds();

  /// The Succ function for tuple (v, n, s, d): handles the cost-0 level and
  /// arms the record of the next level.
  void Expand(NodeId v, NodeId n, StateId s, Cost d);

  /// Enqueues the expansion record of levels_[level] for (v, n, s) whose
  /// tuple was expanded at `base`; `level` may be past s's last level.
  void ArmLevel(NodeId v, NodeId n, StateId s, uint32_t level, Cost base);

  /// Enqueues one cursor per neighbour row of each transition of
  /// levels_[level], and the final tuple if the level has one, at distance
  /// d. Rows are fetched once per SameNeighborGroup run of transitions.
  void ExpandLevel(NodeId v, NodeId n, StateId s, uint32_t level, Cost d);

  /// True if the final tuple of (v, n) at a final level would be new.
  bool AnswerPending(NodeId v, NodeId n) const {
    return TargetMatches(n) && !answers_.Contains(AnswerKey(v, n));
  }

  /// Pops one neighbour off `cursor` and expands it (see the class comment).
  void AdvanceCursor(EvalTuple cursor);

  /// Sets rows_ to the neighbour rows of `n` under `t`. Returns true when
  /// the neighbour set is not a CSR row: rows_ then holds one view of
  /// scratch_.
  bool CollectRows(NodeId n, const NfaTransition& t);

  /// Copies scratch_ into buffer_, where cursors can point at it.
  std::span<const NodeId> BufferScratch();

  bool TargetMatches(NodeId n) const;
  void CheckBudget();

  const GraphStore* graph_;
  const BoundOntology* ontology_;
  const PreparedConjunct* prepared_;
  EvaluatorOptions options_;

  std::vector<NfaTransition> transitions_;  // every state's, by level
  std::vector<CostLevel> levels_;           // per state, ascending cost
  std::vector<uint32_t> state_levels_;      // s's levels: [s], [s + 1])

  TupleDictionary dict_;
  FlatHashSet<VisitedKey, VisitedKeyHash> visited_;
  FlatHashMap<uint64_t, Cost> answers_;
  std::unique_ptr<InitialNodeStream> stream_;
  std::vector<std::span<const NodeId>> rows_;
  std::vector<NodeId> scratch_;
  // Neighbour sets that are not CSR rows, referenced by live cursors. Each
  // chunk is filled only up to its reserved capacity, so it never moves.
  std::vector<std::vector<NodeId>> buffer_;
  size_t buffered_ = 0;

  std::optional<NodeId> source_node_;  // resolved constant source
  std::optional<NodeId> target_node_;  // resolved constant target
  bool target_is_constant_ = false;

  bool opened_ = false;
  uint32_t cancel_tick_ = 0;  // strided-deadline-check counter
  bool truncated_by_distance_ = false;
  Status status_;
  EvaluatorStats stats_;
};

}  // namespace omega

#endif  // OMEGA_EVAL_CONJUNCT_EVALUATOR_H_
