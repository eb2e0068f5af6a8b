#include "eval/initial_node_stream.h"

#include <algorithm>

namespace omega {

InitialNodeStream::InitialNodeStream(const GraphStore* graph,
                                     const BoundOntology* ontology,
                                     const Nfa* nfa, bool include_remaining,
                                     size_t batch_size)
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

bool InitialNodeStream::Exhausted() const {
  if (!sources_.empty()) return false;
  if (next_group_ < group_costs_.size()) return false;
  return !include_remaining_ || next_remaining_ >= graph_->NumNodes();
}

void InitialNodeStream::AddSources(const NfaTransition& t) {
  auto add = [this](const OidSet& set) {
    if (!set.empty()) sources_.push_back(set.ids());
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
          add(outgoing ? graph_->Tails(down) : graph_->Heads(down));
        }
      } else if (entail && t.label == LabelDictionary::kTypeLabel &&
                 !outgoing) {
        // A reverse type edge from a class node matches instances of any
        // descendant class: any class node with a non-empty down-set of
        // typed descendants qualifies, as does any direct type target.
        add(graph_->Heads(LabelDictionary::kTypeLabel));
        add(ontology_->BoundClassNodes());
      } else {
        add(outgoing ? graph_->Tails(t.label) : graph_->Heads(t.label));
      }
      break;
    }
    case TransitionKind::kAnyLabel:
      add(graph_->SigmaEndpoints(t.dir));
      add(graph_->TypeEndpoints(t.dir));
      break;
    case TransitionKind::kAnyLabelBothDirs:
      add(graph_->SigmaEndpoints(Direction::kOutgoing));
      add(graph_->SigmaEndpoints(Direction::kIncoming));
      add(graph_->TypeEndpoints(Direction::kOutgoing));
      add(graph_->TypeEndpoints(Direction::kIncoming));
      break;
    case TransitionKind::kConstrainedType:
      add(graph_->TypeEndpoints(Direction::kOutgoing));
      break;
  }
}

void InitialNodeStream::LoadGroup(Cost cost) {
  sources_.clear();
  for (const NfaTransition& t : nfa_->Out(nfa_->initial())) {
    if (t.cost == cost) AddSources(t);
  }
}

NodeId InitialNodeStream::NextNode() {
  for (;;) {
    if (!sources_.empty()) {
      // Merge step: pop the smallest head. A node repeated across sources
      // (or yielded by a cheaper group — "the same node is not re-added to
      // D_R at a higher cost") fails TestAndSet and is skipped.
      size_t best = 0;
      for (size_t i = 1; i < sources_.size(); ++i) {
        if (sources_[i].front() < sources_[best].front()) best = i;
      }
      const NodeId n = sources_[best].front();
      sources_[best] = sources_[best].subspan(1);
      if (sources_[best].empty()) {
        sources_[best] = sources_.back();
        sources_.pop_back();
      }
      if (yielded_.TestAndSet(n)) return n;
      continue;
    }
    if (next_group_ < group_costs_.size()) {
      LoadGroup(group_costs_[next_group_++]);
      continue;
    }
    if (include_remaining_) {
      while (next_remaining_ < graph_->NumNodes()) {
        const NodeId n = next_remaining_++;
        if (!yielded_.Test(n)) return n;
      }
    }
    return kInvalidNode;
  }
}

std::span<const NodeId> InitialNodeStream::NextBatch() {
  batch_.clear();
  while (batch_.size() < batch_size_) {
    const NodeId n = NextNode();
    if (n == kInvalidNode) break;
    batch_.push_back(n);
  }
  total_yielded_ += batch_.size();
  return batch_;
}

}  // namespace omega
