#include "reference/reference_matcher.h"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

namespace omega {
namespace {

class IntervalMatcher {
 public:
  IntervalMatcher(std::span<const LabelStep> path) : path_(path) {}

  bool Match(const RegexNode& node, size_t i, size_t j) {
    const auto key = std::make_tuple(&node, i, j);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    const bool result = Compute(node, i, j);
    memo_.emplace(key, result);
    return result;
  }

 private:
  bool Compute(const RegexNode& node, size_t i, size_t j) {
    switch (node.op) {
      case RegexOp::kEpsilon:
        return i == j;
      case RegexOp::kLabel:
        return j == i + 1 && path_[i].label == node.label &&
               path_[i].dir == node.dir;
      case RegexOp::kWildcard:
        return j == i + 1 && path_[i].dir == node.dir;
      case RegexOp::kConcat:
        return MatchSequence(node.children, 0, i, j);
      case RegexOp::kAlternation:
        for (const RegexPtr& child : node.children) {
          if (Match(*child, i, j)) return true;
        }
        return false;
      case RegexOp::kStar: {
        if (i == j) return true;
        for (size_t k = i + 1; k <= j; ++k) {
          if (Match(*node.children[0], i, k) && Match(node, k, j)) return true;
        }
        return false;
      }
      case RegexOp::kPlus: {
        // One iteration may already cover the whole interval — including the
        // empty interval when the body itself accepts ε (e.g. (b*)+).
        if (Match(*node.children[0], i, j)) return true;
        for (size_t k = i + 1; k <= j; ++k) {
          if (!Match(*node.children[0], i, k)) continue;
          if (k == j) return true;
          // Remaining repetitions (>= 0) behave like star.
          if (MatchPlusTail(node, k, j)) return true;
        }
        return false;
      }
    }
    return false;
  }

  bool MatchPlusTail(const RegexNode& plus, size_t i, size_t j) {
    if (i == j) return true;
    for (size_t k = i + 1; k <= j; ++k) {
      if (Match(*plus.children[0], i, k) && MatchPlusTail(plus, k, j)) {
        return true;
      }
    }
    return false;
  }

  bool MatchSequence(const std::vector<RegexPtr>& parts, size_t part, size_t i,
                     size_t j) {
    if (part == parts.size()) return i == j;
    for (size_t k = i; k <= j; ++k) {
      if (Match(*parts[part], i, k) && MatchSequence(parts, part + 1, k, j)) {
        return true;
      }
    }
    return false;
  }

  std::span<const LabelStep> path_;
  std::map<std::tuple<const RegexNode*, size_t, size_t>, bool> memo_;
};

using Language = std::set<std::vector<LabelStep>>;

Language Enumerate(const RegexNode& node,
                   const std::vector<std::string>& alphabet, size_t max_len,
                   size_t max_count) {
  Language lang;
  switch (node.op) {
    case RegexOp::kEpsilon:
      lang.insert({});
      break;
    case RegexOp::kLabel:
      if (max_len >= 1) lang.insert({LabelStep{node.label, node.dir}});
      break;
    case RegexOp::kWildcard:
      if (max_len >= 1) {
        for (const std::string& a : alphabet) {
          lang.insert({LabelStep{a, node.dir}});
          if (lang.size() >= max_count) break;
        }
      }
      break;
    case RegexOp::kConcat: {
      lang.insert(std::vector<LabelStep>{});
      for (const RegexPtr& child : node.children) {
        Language next;
        const Language child_lang =
            Enumerate(*child, alphabet, max_len, max_count);
        for (const auto& prefix : lang) {
          for (const auto& suffix : child_lang) {
            if (prefix.size() + suffix.size() > max_len) continue;
            std::vector<LabelStep> joined = prefix;
            joined.insert(joined.end(), suffix.begin(), suffix.end());
            next.insert(std::move(joined));
            if (next.size() >= max_count) break;
          }
          if (next.size() >= max_count) break;
        }
        lang = std::move(next);
      }
      break;
    }
    case RegexOp::kAlternation:
      for (const RegexPtr& child : node.children) {
        for (auto& w : Enumerate(*child, alphabet, max_len, max_count)) {
          lang.insert(std::move(w));
          if (lang.size() >= max_count) break;
        }
      }
      break;
    case RegexOp::kStar:
    case RegexOp::kPlus: {
      const Language body =
          Enumerate(*node.children[0], alphabet, max_len, max_count);
      Language frontier;
      if (node.op == RegexOp::kStar) {
        lang.insert(std::vector<LabelStep>{});
        frontier.insert(std::vector<LabelStep>{});
      } else {
        for (const auto& w : body) {
          lang.insert(w);
          frontier.insert(w);
        }
      }
      // Keep appending body words until no new strings fit under max_len.
      while (!frontier.empty() && lang.size() < max_count) {
        Language next_frontier;
        for (const auto& prefix : frontier) {
          for (const auto& w : body) {
            if (prefix.size() + w.size() > max_len) continue;
            if (w.empty()) continue;
            std::vector<LabelStep> joined = prefix;
            joined.insert(joined.end(), w.begin(), w.end());
            if (lang.insert(joined).second) {
              next_frontier.insert(std::move(joined));
            }
            if (lang.size() >= max_count) break;
          }
          if (lang.size() >= max_count) break;
        }
        frontier = std::move(next_frontier);
      }
      break;
    }
  }
  return lang;
}

}  // namespace

bool RegexMatchesPath(const RegexNode& regex,
                      std::span<const LabelStep> path) {
  return IntervalMatcher(path).Match(regex, 0, path.size());
}

std::vector<std::vector<LabelStep>> EnumerateLanguage(
    const RegexNode& regex, const std::vector<std::string>& alphabet,
    size_t max_len, size_t max_count) {
  Language lang = Enumerate(regex, alphabet, max_len, max_count);
  return {lang.begin(), lang.end()};
}

int EditDistance(std::span<const LabelStep> from, std::span<const LabelStep> to,
                 const EditCosts& costs) {
  const size_t n = from.size();
  const size_t m = to.size();
  std::vector<std::vector<int>> dp(n + 1, std::vector<int>(m + 1, 0));
  for (size_t i = 1; i <= n; ++i) dp[i][0] = dp[i - 1][0] + costs.deletion;
  for (size_t j = 1; j <= m; ++j) dp[0][j] = dp[0][j - 1] + costs.insertion;
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= m; ++j) {
      const int match_cost = from[i - 1] == to[j - 1] ? 0 : costs.substitution;
      dp[i][j] = std::min({dp[i - 1][j - 1] + match_cost,
                           dp[i - 1][j] + costs.deletion,
                           dp[i][j - 1] + costs.insertion});
    }
  }
  return dp[n][m];
}

int MinEditDistanceToLanguage(const RegexNode& regex,
                              const std::vector<std::string>& alphabet,
                              std::span<const LabelStep> path,
                              const EditCosts& costs, size_t max_len) {
  int best = -1;
  for (const auto& w : EnumerateLanguage(regex, alphabet, max_len)) {
    const int d = EditDistance(w, path, costs);
    if (best < 0 || d < best) best = d;
  }
  return best;
}

}  // namespace omega
