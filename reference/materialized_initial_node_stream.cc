#include "reference/materialized_initial_node_stream.h"

#include <algorithm>

namespace omega {

MaterializedInitialNodeStream::MaterializedInitialNodeStream(
    const GraphStore* graph, const BoundOntology* ontology, const Nfa* nfa,
    bool include_remaining, size_t batch_size)
    : graph_(graph),
      ontology_(ontology),
      nfa_(nfa),
      include_remaining_(include_remaining),
      batch_size_(batch_size == 0 ? 1 : batch_size),
      yielded_(graph->NumNodes()) {
  for (const NfaTransition& t : nfa->Out(nfa->initial())) {
    group_costs_.push_back(t.cost);
  }
  std::sort(group_costs_.begin(), group_costs_.end());
  group_costs_.erase(std::unique(group_costs_.begin(), group_costs_.end()),
                     group_costs_.end());
}

bool MaterializedInitialNodeStream::Exhausted() const {
  if (group_pos_ < group_nodes_.size()) return false;
  if (next_group_ < group_costs_.size()) return false;
  if (include_remaining_ && !remaining_done_) return false;
  return true;
}

std::vector<NodeId> MaterializedInitialNodeStream::CandidatesFor(
    const NfaTransition& t) const {
  std::vector<NodeId> out;
  auto append = [&out](std::span<const NodeId> ids) {
    out.insert(out.end(), ids.begin(), ids.end());
  };
  const bool entail = nfa_->entailment_matching() && ontology_ != nullptr;
  switch (t.kind) {
    case TransitionKind::kEpsilon:
      break;  // ε-free by construction
    case TransitionKind::kLabel: {
      if (t.label == kInvalidLabel) break;
      const bool outgoing = t.dir == Direction::kOutgoing;
      if (entail && t.label != LabelDictionary::kTypeLabel) {
        for (LabelId down : ontology_->LabelDownSet(t.label)) {
          append(outgoing ? graph_->Tails(down).ids()
                          : graph_->Heads(down).ids());
        }
      } else if (entail && t.label == LabelDictionary::kTypeLabel &&
                 !outgoing) {
        // A reverse type edge from a class node matches instances of any
        // descendant class: any class node with a non-empty down-set of
        // typed descendants qualifies, as does any direct type target.
        append(graph_->Heads(LabelDictionary::kTypeLabel).ids());
        append(ontology_->BoundClassNodes().ids());
      } else {
        append(outgoing ? graph_->Tails(t.label).ids()
                        : graph_->Heads(t.label).ids());
      }
      break;
    }
    case TransitionKind::kAnyLabel:
      append(graph_->SigmaEndpoints(t.dir).ids());
      append(graph_->TypeEndpoints(t.dir).ids());
      break;
    case TransitionKind::kAnyLabelBothDirs:
      append(graph_->SigmaEndpoints(Direction::kOutgoing).ids());
      append(graph_->SigmaEndpoints(Direction::kIncoming).ids());
      append(graph_->TypeEndpoints(Direction::kOutgoing).ids());
      append(graph_->TypeEndpoints(Direction::kIncoming).ids());
      break;
    case TransitionKind::kConstrainedType:
      append(graph_->TypeEndpoints(Direction::kOutgoing).ids());
      break;
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void MaterializedInitialNodeStream::AdvanceGroup() {
  group_nodes_.clear();
  group_pos_ = 0;
  while (group_nodes_.empty()) {
    if (next_group_ < group_costs_.size()) {
      const Cost cost = group_costs_[next_group_++];
      // Union of candidates over all transitions at this cost, minus nodes
      // yielded by cheaper groups ("the same node is not re-added to D_R at
      // a higher cost").
      std::vector<NodeId> merged;
      for (const NfaTransition& t : nfa_->Out(nfa_->initial())) {
        if (t.cost != cost) continue;
        std::vector<NodeId> candidates = CandidatesFor(t);
        merged.insert(merged.end(), candidates.begin(), candidates.end());
      }
      std::sort(merged.begin(), merged.end());
      merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
      for (NodeId n : merged) {
        if (!yielded_.Test(n)) {
          yielded_.Set(n);
          group_nodes_.push_back(n);
        }
      }
      continue;
    }
    if (include_remaining_ && !remaining_done_) {
      remaining_done_ = true;
      for (NodeId n = 0; n < graph_->NumNodes(); ++n) {
        if (!yielded_.Test(n)) group_nodes_.push_back(n);
      }
      continue;
    }
    return;  // fully exhausted
  }
}

std::span<const NodeId> MaterializedInitialNodeStream::NextBatch() {
  batch_.clear();
  while (batch_.size() < batch_size_) {
    if (group_pos_ >= group_nodes_.size()) {
      AdvanceGroup();
      if (group_pos_ >= group_nodes_.size()) break;  // exhausted
    }
    batch_.push_back(group_nodes_[group_pos_++]);
  }
  total_yielded_ += batch_.size();
  return batch_;
}

}  // namespace omega
