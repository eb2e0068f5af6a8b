// The materialising seed stream, kept as the executable specification of
// InitialNodeStream: each cost group is built whole before its first node
// is yielded — every candidate OidSet of every start-state transition at
// that cost is copied, sorted, deduplicated and filtered against the nodes
// of cheaper groups — and the "remaining nodes" pseudo-group is a vector of
// every node not yet yielded. InitialNodeStream (the lazy k-way merge that
// replaced it on the hot path) must yield the identical node sequence —
// tests/initial_node_stream_test.cc asserts this on random graphs, and
// bench_micro_substrate races the two implementations.
#ifndef OMEGA_REFERENCE_MATERIALIZED_INITIAL_NODE_STREAM_H_
#define OMEGA_REFERENCE_MATERIALIZED_INITIAL_NODE_STREAM_H_

#include <span>
#include <vector>

#include "automata/nfa.h"
#include "ontology/ontology.h"
#include "store/bitmap.h"
#include "store/graph_store.h"

namespace omega {

class MaterializedInitialNodeStream {
 public:
  /// Same contract as InitialNodeStream's constructor.
  MaterializedInitialNodeStream(const GraphStore* graph,
                                const BoundOntology* ontology, const Nfa* nfa,
                                bool include_remaining, size_t batch_size);

  /// Next batch in priority order; empty span when exhausted. Spans are
  /// valid until the next call.
  std::span<const NodeId> NextBatch();

  bool Exhausted() const;

  size_t total_yielded() const { return total_yielded_; }

 private:
  /// Materialises the next non-empty group into group_nodes_.
  void AdvanceGroup();

  /// Sorted distinct candidate nodes for one transition.
  std::vector<NodeId> CandidatesFor(const NfaTransition& t) const;

  const GraphStore* graph_;
  const BoundOntology* ontology_;
  const Nfa* nfa_;
  bool include_remaining_;
  size_t batch_size_;

  std::vector<Cost> group_costs_;  // ascending distinct costs of s0 exits
  size_t next_group_ = 0;          // index into group_costs_; one past =
                                   // the "remaining nodes" pseudo-group
  bool remaining_done_ = false;

  std::vector<NodeId> group_nodes_;  // current group, not yet yielded
  size_t group_pos_ = 0;
  std::vector<NodeId> batch_;  // storage for the last returned span
  Bitmap yielded_;             // nodes already produced by earlier groups
  size_t total_yielded_ = 0;
};

}  // namespace omega

#endif  // OMEGA_REFERENCE_MATERIALIZED_INITIAL_NODE_STREAM_H_
