// Batched seeding of (?X, R, ?Y) conjuncts — the paper's coroutine
// implementation of GetAllStartNodesByLabel / GetAllNodesByLabel (§3.3):
// nodes that can take some transition out of the start state are yielded
// first, grouped by increasing transition cost; optionally every remaining
// node follows (needed when the start state is final with positive weight,
// making *every* node an answer at that weight). Batches are produced on
// demand so nodes not needed for the requested top-k are never materialised.
//
// Every candidate source (Tails, Heads, SigmaEndpoints, TypeEndpoints,
// BoundClassNodes, the down-set members' Tails/Heads) is already a sorted
// distinct OidSet, so a cost group is a k-way merge over one span per
// source: yielding a batch costs O(batch * k) plus the duplicates it skips,
// never O(|group|). The remaining-nodes group is a counter scan over
// [0, NumNodes). Yield order: groups by ascending cost, ascending NodeId
// within a group, each node only in its cheapest group
// (reference/materialized_initial_node_stream.h is the executable spec).
#ifndef OMEGA_EVAL_INITIAL_NODE_STREAM_H_
#define OMEGA_EVAL_INITIAL_NODE_STREAM_H_

#include <span>
#include <vector>

#include "automata/nfa.h"
#include "ontology/ontology.h"
#include "store/bitmap.h"
#include "store/graph_store.h"

namespace omega {

class InitialNodeStream {
 public:
  /// `ontology` may be null (exact / APPROX conjuncts).
  /// `include_remaining` selects GetAllNodesByLabel (true) vs
  /// GetAllStartNodesByLabel (false) behaviour.
  InitialNodeStream(const GraphStore* graph, const BoundOntology* ontology,
                    const Nfa* nfa, bool include_remaining, size_t batch_size);

  /// Next batch in priority order (most promising node first); empty span
  /// when exhausted. Spans are valid until the next call.
  std::span<const NodeId> NextBatch();

  /// True once nothing is left to yield; NextBatch then returns an empty
  /// batch. May stay false while only already-yielded nodes are left.
  bool Exhausted() const;

  size_t total_yielded() const { return total_yielded_; }

 private:
  /// Next node in yield order, or kInvalidNode when exhausted.
  NodeId NextNode();

  /// Replaces sources_ with the candidate sources of the next cost group.
  void LoadGroup(Cost cost);

  /// Appends the candidate sources of one start-state transition.
  void AddSources(const NfaTransition& t);

  const GraphStore* graph_;
  const BoundOntology* ontology_;
  const Nfa* nfa_;
  bool include_remaining_;
  size_t batch_size_;

  std::vector<Cost> group_costs_;  // ascending distinct costs of s0 exits
  size_t next_group_ = 0;          // index into group_costs_

  // Current cost group: the unconsumed suffix of each candidate source,
  // none of them empty. The merge pops the smallest head.
  std::vector<std::span<const NodeId>> sources_;
  NodeId next_remaining_ = 0;  // counter of the remaining-nodes group

  std::vector<NodeId> batch_;  // storage for the last returned span
  Bitmap yielded_;             // nodes already produced
  size_t total_yielded_ = 0;
};

}  // namespace omega

#endif  // OMEGA_EVAL_INITIAL_NODE_STREAM_H_
