// The seed rank-join data plane, kept in-tree as an executable specification
// and perf baseline (like ReferenceTupleDictionary): bindings are sorted
// (name, NodeId) pair vectors with linear Lookup, join keys are
// std::to_string-concatenated strings into std::unordered_map, and heap pops
// copy. bench_micro_substrate races RankJoinStream against this pair-for-pair
// and tools/check_substrate_gate.py fails the build if the compiled-slot
// join stops winning; the property tests also replay both implementations on
// identical inputs.
#ifndef OMEGA_REFERENCE_RANK_JOIN_REFERENCE_H_
#define OMEGA_REFERENCE_RANK_JOIN_REFERENCE_H_

#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "automata/nfa.h"  // Cost / kInfiniteCost
#include "common/status.h"
#include "store/types.h"

namespace omega {

/// Seed Binding: variables kept sorted by name so equal assignments have
/// equal representations.
struct ReferenceBinding {
  std::vector<std::pair<std::string, NodeId>> vars;  // sorted by name
  Cost distance = 0;

  /// Value bound to `name`, or kInvalidNode (linear scan, as in the seed).
  NodeId Lookup(const std::string& name) const;
  /// Inserts or checks consistency; returns false on conflicting value.
  bool Bind(const std::string& name, NodeId value);
};

/// Seed pull stream of bindings in non-decreasing distance.
class ReferenceBindingStream {
 public:
  virtual ~ReferenceBindingStream() = default;
  virtual bool Next(ReferenceBinding* out) = 0;
  virtual const Status& status() const = 0;
  virtual const std::vector<std::string>& variables() const = 0;
};

/// Materialised stream for benches and tests: replays a fixed row vector.
class VectorReferenceBindingStream : public ReferenceBindingStream {
 public:
  VectorReferenceBindingStream(std::vector<std::string> vars,
                               std::vector<ReferenceBinding> rows)
      : vars_(std::move(vars)), owned_(std::move(rows)), rows_(&owned_) {}

  /// Borrowing: `rows` must outlive the stream. The paired benches replay a
  /// cached script this way so row materialisation stays outside the timed
  /// region on both sides.
  VectorReferenceBindingStream(std::vector<std::string> vars,
                               const std::vector<ReferenceBinding>* rows)
      : vars_(std::move(vars)), rows_(rows) {}

  bool Next(ReferenceBinding* out) override {
    if (pos_ >= rows_->size()) return false;
    *out = (*rows_)[pos_++];
    return true;
  }
  const Status& status() const override { return status_; }
  const std::vector<std::string>& variables() const override { return vars_; }

 private:
  std::vector<std::string> vars_;
  std::vector<ReferenceBinding> owned_;
  const std::vector<ReferenceBinding>* rows_;
  size_t pos_ = 0;
  Status status_;
};

/// The seed binary hash rank join, byte-faithful: string keys, node-based
/// hash tables, copy-on-pop, rows stored unconditionally on both sides, and
/// no memory budget.
class ReferenceRankJoinStream : public ReferenceBindingStream {
 public:
  ReferenceRankJoinStream(std::unique_ptr<ReferenceBindingStream> left,
                          std::unique_ptr<ReferenceBindingStream> right);

  bool Next(ReferenceBinding* out) override;
  const Status& status() const override { return status_; }
  const std::vector<std::string>& variables() const override {
    return variables_;
  }

 private:
  struct Side {
    std::unique_ptr<ReferenceBindingStream> stream;
    std::unordered_map<std::string, std::vector<ReferenceBinding>> table;
    Cost bottom = 0;
    Cost top = 0;
    bool seen_any = false;
    bool exhausted = false;
  };

  struct Candidate {
    ReferenceBinding binding;
    bool operator>(const Candidate& other) const {
      return binding.distance > other.binding.distance;
    }
  };

  std::string KeyFor(const ReferenceBinding& b) const;
  void Advance(Side* side, Side* other, bool side_is_left);
  Cost Threshold() const;

  Side left_;
  Side right_;
  std::vector<std::string> shared_vars_;
  std::vector<std::string> variables_;
  std::priority_queue<Candidate, std::vector<Candidate>, std::greater<>>
      heap_;
  bool pull_left_next_ = true;
  Status status_;
};

}  // namespace omega

#endif  // OMEGA_REFERENCE_RANK_JOIN_REFERENCE_H_
