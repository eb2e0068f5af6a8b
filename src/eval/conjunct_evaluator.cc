#include "eval/conjunct_evaluator.h"

#include <algorithm>
#include <cassert>

#include "automata/epsilon_removal.h"
#include "automata/thompson.h"

namespace omega {

Result<PreparedConjunct> PrepareConjunct(const Conjunct& conjunct,
                                         const GraphStore& graph,
                                         const BoundOntology* ontology,
                                         const EvaluatorOptions& options) {
  if (conjunct.regex == nullptr) {
    return Status::InvalidArgument("conjunct has no regular expression");
  }
  if (conjunct.mode == ConjunctMode::kRelax && ontology == nullptr) {
    return Status::FailedPrecondition("RELAX requires an ontology");
  }

  PreparedConjunct prepared;
  prepared.mode = conjunct.mode;

  // Case 2 (§3.3): (?X, R, C) is evaluated as (C, R-, ?X).
  const bool reverse =
      conjunct.source.is_variable && !conjunct.target.is_variable;
  RegexPtr reversed_regex;
  const RegexNode* regex = conjunct.regex.get();
  if (reverse) {
    reversed_regex = ReverseRegex(*conjunct.regex);
    regex = reversed_regex.get();
    prepared.eval_source = conjunct.target;
    prepared.eval_target = conjunct.source;
    prepared.reversed = true;
  } else {
    prepared.eval_source = conjunct.source;
    prepared.eval_target = conjunct.target;
  }

  // Shape analysis on the evaluated (post-reversal) regex: the closure
  // shape drives the planner's index-probe substitution, the max path
  // length the distance sketch's cost floor.
  prepared.closure_shape = RecognizeClosureShape(*regex);
  prepared.max_exact_path_edges = MaxEdgeCount(*regex);

  Nfa exact =
      RemoveEpsilons(BuildThompsonNfa(*regex, graph.labels(), ontology));
  switch (conjunct.mode) {
    case ConjunctMode::kExact:
      prepared.nfa = std::move(exact);
      break;
    case ConjunctMode::kApprox:
      prepared.nfa = BuildApproxAutomaton(exact, options.approx);
      break;
    case ConjunctMode::kRelax:
      prepared.nfa = BuildRelaxAutomaton(exact, *ontology, options.relax);
      break;
  }
  if (!prepared.eval_source.is_variable) {
    prepared.nfa.SetSourceConstant(prepared.eval_source.name);
  }
  if (!prepared.eval_target.is_variable) {
    prepared.nfa.SetTargetConstant(prepared.eval_target.name);
  }
  prepared.nfa.SortTransitions();
  return prepared;
}

ConjunctEvaluator::ConjunctEvaluator(const GraphStore* graph,
                                     const BoundOntology* ontology,
                                     const PreparedConjunct* prepared,
                                     const EvaluatorOptions& options)
    : graph_(graph),
      ontology_(ontology),
      prepared_(prepared),
      options_(options),
      dict_(options.prioritize_final_tuples) {
  assert(prepared_->mode != ConjunctMode::kRelax || ontology_ != nullptr);
}

void ConjunctEvaluator::BuildCostLevels() {
  const Nfa& nfa = prepared_->nfa;
  transitions_.reserve(nfa.NumTransitions());
  state_levels_.reserve(nfa.NumStates() + 1);
  state_levels_.push_back(0);
  for (StateId s = 0; s < nfa.NumStates(); ++s) {
    const size_t first = transitions_.size();
    const size_t first_level = levels_.size();
    std::span<const NfaTransition> out = nfa.Out(s);
    transitions_.insert(transitions_.end(), out.begin(), out.end());
    // Cost first; within a cost SortTransitions' order, which keeps
    // SameNeighborGroup members adjacent.
    std::stable_sort(transitions_.begin() + first, transitions_.end(),
                     [](const NfaTransition& a, const NfaTransition& b) {
                       return a.cost < b.cost;
                     });
    for (size_t i = first; i < transitions_.size();) {
      size_t j = i;
      while (j < transitions_.size() &&
             transitions_[j].cost == transitions_[i].cost) {
        ++j;
      }
      levels_.push_back({transitions_[i].cost, static_cast<uint32_t>(i),
                         static_cast<uint32_t>(j), false});
      i = j;
    }
    if (nfa.IsFinal(s)) {
      const Cost w = nfa.FinalWeight(s);
      auto it = std::lower_bound(
          levels_.begin() + first_level, levels_.end(), w,
          [](const CostLevel& l, Cost cost) { return l.cost < cost; });
      if (it != levels_.end() && it->cost == w) {
        it->final = true;
      } else {
        levels_.insert(it, {w, 0, 0, true});
      }
    }
    state_levels_.push_back(static_cast<uint32_t>(levels_.size()));
  }
}

void ConjunctEvaluator::Open() {
  if (opened_) return;
  opened_ = true;
  BuildCostLevels();
  const Nfa& nfa = prepared_->nfa;
  const StateId s0 = nfa.initial();

  target_is_constant_ = !prepared_->eval_target.is_variable;
  if (target_is_constant_) {
    target_node_ = graph_->FindNode(prepared_->eval_target.name);
    if (!target_node_) return;  // constant absent: conjunct has no answers
  }

  if (!prepared_->eval_source.is_variable) {
    // Case 1: begin the traversal at the constant's node.
    source_node_ = graph_->FindNode(prepared_->eval_source.name);
    if (!source_node_) return;
    const NodeId c = *source_node_;
    if (prepared_->mode == ConjunctMode::kRelax && ontology_ != nullptr &&
        ontology_->IsClassNode(c)) {
      // sc rule: also seed every ancestor class, at distance steps * β.
      // Ancestors are added most-general-first so that, on cost ties, the
      // LIFO bucket pops the most specific class first (the GetAncestors
      // ordering rationale of §3.3).
      auto ancestors = ontology_->NodeAncestors(c);
      for (auto it = ancestors.rbegin(); it != ancestors.rend(); ++it) {
        const Cost d = static_cast<Cost>(it->second) * options_.relax.beta;
        AddTuple({it->first, it->first, s0, d, false});
        ++stats_.seeds_added;
      }
    }
    AddTuple({c, c, s0, 0, false});
    ++stats_.seeds_added;
    return;
  }

  // Case 3: (?X, R, ?Y) — batched seeding. When s0 is final, every node of G
  // is a candidate answer at weight(s0), so the stream must eventually yield
  // all nodes (GetAllNodesByLabel); otherwise only nodes with a usable first
  // edge are seeded (GetAllStartNodesByLabel). The visited set and answer
  // map are not sized from the graph: they grow by doubling, so a top-k
  // query pays for the entries it inserts, not for |V|.
  const bool include_remaining = nfa.IsFinal(s0);
  stream_ = std::make_unique<InitialNodeStream>(
      graph_, ontology_, &nfa, include_remaining, options_.batch_size);
  RefillSeeds();
}

void ConjunctEvaluator::AddTuple(const EvalTuple& tuple) {
  if (tuple.d > options_.max_distance) {
    truncated_by_distance_ = true;
    return;
  }
  dict_.Add(tuple);
  ++stats_.tuples_pushed;
  if (dict_.size() > stats_.max_dictionary_size) {
    stats_.max_dictionary_size = dict_.size();
  }
}

void ConjunctEvaluator::CheckBudget() {
  if (options_.max_live_tuples == 0) return;
  const size_t live =
      dict_.size() + visited_.size() + answers_.size() + buffered_;
  if (live > options_.max_live_tuples) {
    status_ = Status::ResourceExhausted(
        "conjunct evaluation exceeded max_live_tuples=" +
        std::to_string(options_.max_live_tuples));
  }
}

void ConjunctEvaluator::RefillSeeds() {
  if (stream_ == nullptr) return;
  // Pull batches while the dictionary has no distance-0 tuples left, so no
  // d > 0 tuple is ever popped ahead of an unseeded distance-0 start node.
  while (!stream_->Exhausted() &&
         (dict_.Empty() || dict_.MinDistance() > 0)) {
    std::span<const NodeId> batch = stream_->NextBatch();
    if (batch.empty()) break;
    // The stream yields most-promising-first; adding in reverse makes the
    // LIFO bucket pop them in stream order ("we iterate through the set of
    // nodes in order of decreasing cost").
    for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
      AddTuple({*it, *it, prepared_->nfa.initial(), 0, false});
      ++stats_.seeds_added;
    }
  }
}

bool ConjunctEvaluator::TargetMatches(NodeId n) const {
  return !target_is_constant_ || (target_node_ && *target_node_ == n);
}

std::span<const NodeId> ConjunctEvaluator::BufferScratch() {
  constexpr size_t kChunk = 4096;
  if (buffer_.empty() ||
      buffer_.back().capacity() - buffer_.back().size() < scratch_.size()) {
    buffer_.emplace_back().reserve(std::max(kChunk, scratch_.size()));
  }
  std::vector<NodeId>& chunk = buffer_.back();
  const size_t at = chunk.size();
  chunk.insert(chunk.end(), scratch_.begin(), scratch_.end());
  buffered_ += scratch_.size();
  return std::span<const NodeId>(chunk).subspan(at);
}

bool ConjunctEvaluator::CollectRows(NodeId n, const NfaTransition& t) {
  rows_.clear();
  const bool entail =
      prepared_->nfa.entailment_matching() && ontology_ != nullptr;
  switch (t.kind) {
    case TransitionKind::kEpsilon:
      assert(false && "evaluator requires an ε-free automaton");
      break;
    case TransitionKind::kLabel: {
      if (t.label == kInvalidLabel) break;
      if (entail && t.label != LabelDictionary::kTypeLabel) {
        // RDFS entailment: an edge labelled with any subproperty of t.label
        // satisfies the transition (this is what makes a relaxed
        // relationLocatedByObject transition match happenedIn edges).
        for (LabelId down : ontology_->LabelDownSet(t.label)) {
          rows_.push_back(graph_->Neighbors(n, down, t.dir));
        }
      } else if (entail && t.label == LabelDictionary::kTypeLabel) {
        if (t.dir == Direction::kOutgoing) {
          // (n, type, c) holds for each stored class and its ancestors.
          scratch_.clear();
          for (NodeId c : graph_->TypeNeighbors(n, Direction::kOutgoing)) {
            scratch_.push_back(c);
            for (const auto& [ancestor, steps] : ontology_->NodeAncestors(c)) {
              scratch_.push_back(ancestor);
            }
          }
          rows_.push_back(scratch_);
          return true;
        }
        // Reverse type edge from class n: instances of n or of any
        // descendant class.
        const OidSet& down = ontology_->NodeDownSet(n);
        if (down.empty()) {
          rows_.push_back(graph_->TypeNeighbors(n, Direction::kIncoming));
        } else {
          for (NodeId c : down) {
            rows_.push_back(graph_->TypeNeighbors(c, Direction::kIncoming));
          }
        }
      } else {
        rows_.push_back(graph_->Neighbors(n, t.label, t.dir));
      }
      break;
    }
    case TransitionKind::kAnyLabel:
      rows_.push_back(graph_->SigmaNeighbors(n, t.dir));
      rows_.push_back(graph_->TypeNeighbors(n, t.dir));
      break;
    case TransitionKind::kAnyLabelBothDirs:
      rows_.push_back(graph_->SigmaNeighbors(n, Direction::kOutgoing));
      rows_.push_back(graph_->SigmaNeighbors(n, Direction::kIncoming));
      rows_.push_back(graph_->TypeNeighbors(n, Direction::kOutgoing));
      rows_.push_back(graph_->TypeNeighbors(n, Direction::kIncoming));
      break;
    case TransitionKind::kConstrainedType: {
      // Forward type edge whose target class is (a descendant of) the
      // dom/range class recorded on the transition.
      if (ontology_ == nullptr) break;
      const OidSet& allowed = ontology_->NodeDownSet(t.class_node);
      scratch_.clear();
      for (NodeId c : graph_->TypeNeighbors(n, Direction::kOutgoing)) {
        if (allowed.Contains(c)) scratch_.push_back(c);
      }
      rows_.push_back(scratch_);
      return true;
    }
  }
  return false;
}

void ConjunctEvaluator::ExpandLevel(NodeId v, NodeId n, StateId s,
                                    uint32_t level, Cost d) {
  const CostLevel& l = levels_[level];
  size_t i = l.begin;
  while (i < l.end) {
    // One neighbour fetch per SameNeighborGroup run (§3.4's U-set reuse).
    if (CollectRows(n, transitions_[i]) && scratch_.size() > 1) {
      rows_[0] = BufferScratch();  // cursors outlive scratch_
    }
    ++stats_.neighbor_group_fetches;
    size_t j = i;
    for (; j < l.end && transitions_[j].SameNeighborGroup(transitions_[i]);
         ++j) {
      const StateId to = transitions_[j].to;
      // Cursors scan their row from the back and the first row is pushed
      // last, so the LIFO bucket pops neighbours in the order the eager Succ
      // did: rows in fetch order, largest node first within a row.
      for (auto it = rows_.rbegin(); it != rows_.rend(); ++it) {
        const std::span<const NodeId> row = *it;
        if (row.size() > 1) {
          AddTuple({v, n, to, d, false, TupleKind::kCursor,
                    static_cast<uint32_t>(row.size()), row.data()});
        } else if (row.size() == 1 && !IsVisited(v, row[0], to)) {
          AddTuple({v, row[0], to, d, false});
        }
      }
    }
    i = j;
  }
  if (l.final && AnswerPending(v, n)) AddTuple({v, n, s, d, true});
}

void ConjunctEvaluator::ArmLevel(NodeId v, NodeId n, StateId s,
                                 uint32_t level, Cost base) {
  const uint32_t end = state_levels_[s + 1];
  if (level >= end) return;
  const Cost d = base + levels_[level].cost;
  if (d <= options_.max_distance) {
    // A level that emits a final tuple is queued with the final tuples, so
    // the answer comes out as early as an eagerly pushed one would.
    AddTuple({v, n, s, d, levels_[level].final, TupleKind::kExpansion, level});
    return;
  }
  // Levels ascend, so every remaining one is past the ceiling: a higher
  // ceiling could only produce more if one of them has a neighbour.
  for (; level < end && !truncated_by_distance_; ++level) {
    if (levels_[level].final && AnswerPending(v, n)) {
      truncated_by_distance_ = true;
    }
    for (uint32_t i = levels_[level].begin; i < levels_[level].end; ++i) {
      CollectRows(n, transitions_[i]);
      ++stats_.neighbor_group_fetches;
      for (std::span<const NodeId> row : rows_) {
        if (!row.empty()) truncated_by_distance_ = true;
      }
    }
  }
}

void ConjunctEvaluator::Expand(NodeId v, NodeId n, StateId s, Cost d) {
  ++stats_.succ_expansions;
  uint32_t level = state_levels_[s];
  if (level < state_levels_[s + 1] && levels_[level].cost == 0) {
    ExpandLevel(v, n, s, level, d);
    ++level;
  }
  ArmLevel(v, n, s, level, d);
}

void ConjunctEvaluator::AdvanceCursor(EvalTuple cursor) {
  while (cursor.count > 0) {
    const NodeId m = cursor.row[--cursor.count];
    if (options_.use_visited_set &&
        !visited_.Insert({PackPair(cursor.v, m), cursor.s})) {
      continue;  // reached before at a lower-or-equal d
    }
    if (cursor.count > 0) AddTuple(cursor);  // re-arm at the same distance
    Expand(cursor.v, m, cursor.s, cursor.d);
    return;
  }
}

bool ConjunctEvaluator::Next(Answer* out) {
  if (!status_.ok()) return false;
  Open();
  for (;;) {
    // Cooperative cancellation at pop granularity: a null token costs one
    // branch, a live one a relaxed flag load per pop plus a strided
    // deadline clock read (see common/cancel.h).
    if (options_.cancel.valid()) {
      Status s = options_.cancel.CheckStrided(&cancel_tick_,
                                              "conjunct evaluation");
      if (!s.ok()) {
        status_ = std::move(s);
        return false;
      }
    }
    RefillSeeds();
    if (dict_.Empty()) return false;  // exhausted
    const EvalTuple tuple = dict_.Remove();
    ++stats_.tuples_popped;

    switch (tuple.kind) {
      case TupleKind::kTuple:
        if (tuple.is_final) {
          if (!answers_.Insert(AnswerKey(tuple.v, tuple.n), tuple.d)) {
            continue;  // answer already generated at some d'
          }
          ++stats_.answers_emitted;
          *out = Answer{tuple.v, tuple.n, tuple.d};
          return true;
        }
        if (options_.use_visited_set &&
            !visited_.Insert({PackPair(tuple.v, tuple.n), tuple.s})) {
          continue;  // processed before at a lower-or-equal d
        }
        Expand(tuple.v, tuple.n, tuple.s, tuple.d);
        break;
      case TupleKind::kCursor:
        AdvanceCursor(tuple);
        break;
      case TupleKind::kExpansion:
        ExpandLevel(tuple.v, tuple.n, tuple.s, tuple.count, tuple.d);
        ArmLevel(tuple.v, tuple.n, tuple.s, tuple.count + 1,
                 tuple.d - levels_[tuple.count].cost);
        break;
    }
    CheckBudget();
    if (!status_.ok()) return false;
  }
}

}  // namespace omega
