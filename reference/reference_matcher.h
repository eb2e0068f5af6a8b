// Brute-force oracles used by the test suite to validate the automaton
// pipeline independently: direct AST matching of label paths, bounded
// language enumeration, and classic edit distance between label sequences.
// None of this code shares logic with the NFA implementation.
#ifndef OMEGA_REFERENCE_REFERENCE_MATCHER_H_
#define OMEGA_REFERENCE_REFERENCE_MATCHER_H_

#include <span>
#include <string>
#include <vector>

#include "rpq/regex_ast.h"
#include "store/types.h"

namespace omega {

/// One concrete traversal step: an edge label read forward or in reverse.
struct LabelStep {
  std::string label;
  Direction dir = Direction::kOutgoing;

  bool operator==(const LabelStep&) const = default;
  auto operator<=>(const LabelStep&) const = default;
};

/// True iff the step sequence belongs to L(R). Interval-memoized recursion
/// straight off the AST; exponential-safe for the short paths tests use.
bool RegexMatchesPath(const RegexNode& regex, std::span<const LabelStep> path);

/// Enumerates distinct members of L(R) with length <= max_len (wildcards
/// expand over `alphabet`, forward and — for `_-` — reverse). Stops early at
/// max_count strings. Sorted lexicographically for determinism.
std::vector<std::vector<LabelStep>> EnumerateLanguage(
    const RegexNode& regex, const std::vector<std::string>& alphabet,
    size_t max_len, size_t max_count = 100000);

/// Unit-operation costs for the reference edit distance.
struct EditCosts {
  int insertion = 1;
  int deletion = 1;
  int substitution = 1;
};

/// Classic Levenshtein distance between two step sequences. `from` plays the
/// role of the query word w ∈ L(R), `to` the role of the graph path:
/// deletions remove symbols of `from`, insertions add symbols of `to`.
int EditDistance(std::span<const LabelStep> from, std::span<const LabelStep> to,
                 const EditCosts& costs);

/// min over w ∈ L(R), |w| <= max_len, of EditDistance(w, path). Returns -1
/// if the language is empty up to max_len.
int MinEditDistanceToLanguage(const RegexNode& regex,
                              const std::vector<std::string>& alphabet,
                              std::span<const LabelStep> path,
                              const EditCosts& costs, size_t max_len);

}  // namespace omega

#endif  // OMEGA_REFERENCE_REFERENCE_MATCHER_H_
