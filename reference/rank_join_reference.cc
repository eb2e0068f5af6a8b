#include "reference/rank_join_reference.h"

#include <algorithm>

namespace omega {

NodeId ReferenceBinding::Lookup(const std::string& name) const {
  for (const auto& [var, value] : vars) {
    if (var == name) return value;
  }
  return kInvalidNode;
}

bool ReferenceBinding::Bind(const std::string& name, NodeId value) {
  auto it = std::lower_bound(
      vars.begin(), vars.end(), name,
      [](const auto& entry, const std::string& key) { return entry.first < key; });
  if (it != vars.end() && it->first == name) return it->second == value;
  vars.insert(it, {name, value});
  return true;
}

ReferenceRankJoinStream::ReferenceRankJoinStream(
    std::unique_ptr<ReferenceBindingStream> left,
    std::unique_ptr<ReferenceBindingStream> right) {
  left_.stream = std::move(left);
  right_.stream = std::move(right);
  std::set_intersection(left_.stream->variables().begin(),
                        left_.stream->variables().end(),
                        right_.stream->variables().begin(),
                        right_.stream->variables().end(),
                        std::back_inserter(shared_vars_));
  std::set_union(left_.stream->variables().begin(),
                 left_.stream->variables().end(),
                 right_.stream->variables().begin(),
                 right_.stream->variables().end(),
                 std::back_inserter(variables_));
}

std::string ReferenceRankJoinStream::KeyFor(const ReferenceBinding& b) const {
  std::string key;
  for (const std::string& var : shared_vars_) {
    key += std::to_string(b.Lookup(var));
    key += '|';
  }
  return key;
}

void ReferenceRankJoinStream::Advance(Side* side, Side* other,
                                      bool side_is_left) {
  ReferenceBinding binding;
  if (!side->stream->Next(&binding)) {
    side->exhausted = true;
    if (!side->stream->status().ok()) status_ = side->stream->status();
    return;
  }
  if (!side->seen_any) {
    side->seen_any = true;
    side->bottom = binding.distance;
  }
  side->top = binding.distance;

  const std::string key = KeyFor(binding);
  auto it = other->table.find(key);
  if (it != other->table.end()) {
    for (const ReferenceBinding& match : it->second) {
      ReferenceBinding merged = side_is_left ? binding : match;
      const ReferenceBinding& addition = side_is_left ? match : binding;
      bool ok = true;
      for (const auto& [var, value] : addition.vars) {
        if (!merged.Bind(var, value)) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      merged.distance = binding.distance + match.distance;
      heap_.push(Candidate{std::move(merged)});
    }
  }
  side->table[key].push_back(std::move(binding));
}

Cost ReferenceRankJoinStream::Threshold() const {
  Cost via_new_left = kInfiniteCost;
  Cost via_new_right = kInfiniteCost;
  if (!left_.exhausted) via_new_left = left_.top + right_.bottom;
  if (!right_.exhausted) via_new_right = right_.top + left_.bottom;
  return std::min(via_new_left, via_new_right);
}

bool ReferenceRankJoinStream::Next(ReferenceBinding* out) {
  if (!status_.ok()) return false;
  for (;;) {
    if (!heap_.empty() && heap_.top().binding.distance <= Threshold()) {
      *out = heap_.top().binding;
      heap_.pop();
      return true;
    }
    if (left_.exhausted && right_.exhausted) {
      if (heap_.empty()) return false;
      *out = heap_.top().binding;
      heap_.pop();
      return true;
    }
    const bool pick_left =
        right_.exhausted || (!left_.exhausted && pull_left_next_);
    pull_left_next_ = !pick_left;
    Advance(pick_left ? &left_ : &right_, pick_left ? &right_ : &left_,
            pick_left);
    if (!status_.ok()) return false;
  }
}

}  // namespace omega
