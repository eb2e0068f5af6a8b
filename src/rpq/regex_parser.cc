#include "rpq/regex_parser.h"

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

namespace omega {
namespace {

bool IsLabelChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Every consumer of the AST (Thompson construction, reversal, shape
// analysis, destruction) recurses on it, so its height is capped: past the
// cap, text from outside would exhaust the stack instead of failing.
// Parenthesis nesting and stacked postfix operators both add height.
constexpr int kMaxRegexDepth = 256;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<RegexPtr> Parse() {
    int height = 0;
    Result<RegexPtr> regex = ParseAlternation(&height);
    if (!regex.ok()) return regex;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("unexpected trailing input");
    }
    return regex;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument(what + " at offset " +
                                   std::to_string(pos_) + " in regex '" +
                                   std::string(text_) + "'");
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Peek(char c) {
    SkipWhitespace();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  bool Consume(char c) {
    if (!Peek(c)) return false;
    ++pos_;
    return true;
  }

  Status TooDeep() const {
    return Error("regex nests deeper than " + std::to_string(kMaxRegexDepth));
  }

  // Each Parse* function sets *height to the height of the AST it returns.
  Result<RegexPtr> ParseAlternation(int* height) {
    Result<RegexPtr> first = ParseConcat(height);
    if (!first.ok()) return first;
    std::vector<RegexPtr> branches;
    branches.push_back(std::move(first).value());
    while (Consume('|')) {
      int branch_height = 0;
      Result<RegexPtr> next = ParseConcat(&branch_height);
      if (!next.ok()) return next;
      branches.push_back(std::move(next).value());
      *height = std::max(*height, branch_height);
    }
    if (branches.size() == 1) return std::move(branches[0]);
    if (++*height > kMaxRegexDepth) return TooDeep();
    return MakeAlternation(std::move(branches));
  }

  Result<RegexPtr> ParseConcat(int* height) {
    Result<RegexPtr> first = ParsePostfix(height);
    if (!first.ok()) return first;
    std::vector<RegexPtr> parts;
    parts.push_back(std::move(first).value());
    while (Consume('.')) {
      int part_height = 0;
      Result<RegexPtr> next = ParsePostfix(&part_height);
      if (!next.ok()) return next;
      parts.push_back(std::move(next).value());
      *height = std::max(*height, part_height);
    }
    if (parts.size() == 1) return std::move(parts[0]);
    if (++*height > kMaxRegexDepth) return TooDeep();
    return MakeConcat(std::move(parts));
  }

  Result<RegexPtr> ParsePostfix(int* height) {
    Result<RegexPtr> atom = ParseAtom(height);
    if (!atom.ok()) return atom;
    RegexPtr node = std::move(atom).value();
    for (;;) {
      if (Consume('*')) {
        if (++*height > kMaxRegexDepth) return TooDeep();
        node = MakeStar(std::move(node));
      } else if (Consume('+')) {
        if (++*height > kMaxRegexDepth) return TooDeep();
        node = MakePlus(std::move(node));
      } else if (Peek('-')) {
        // Reversal applies to label/wildcard atoms only (grammar: a-).
        if (node->op != RegexOp::kLabel && node->op != RegexOp::kWildcard) {
          return Error("'-' may only reverse a label or '_'");
        }
        if (node->dir == Direction::kIncoming) {
          return Error("label is already reversed");
        }
        ++pos_;
        node->dir = Direction::kIncoming;
      } else {
        break;
      }
    }
    return node;
  }

  Result<RegexPtr> ParseAtom(int* height) {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("expected label, '_' or '('");
    const char c = text_[pos_];
    *height = 1;
    if (c == '(') {
      // The parser recurses once per open group, so nesting is checked
      // before descending, not only on the finished AST.
      if (++open_groups_ > kMaxRegexDepth) return TooDeep();
      ++pos_;
      if (Consume(')')) {
        --open_groups_;
        return MakeEpsilon();  // "()" is the empty path
      }
      Result<RegexPtr> inner = ParseAlternation(height);
      if (!inner.ok()) return inner;
      if (!Consume(')')) return Error("expected ')'");
      --open_groups_;
      return inner;
    }
    if (IsLabelChar(c)) {
      const size_t start = pos_;
      while (pos_ < text_.size() && IsLabelChar(text_[pos_])) ++pos_;
      std::string label(text_.substr(start, pos_ - start));
      if (label == "_") return MakeWildcard();
      return MakeLabel(std::move(label));
    }
    return Error(std::string("unexpected character '") + c + "'");
  }

  std::string_view text_;
  size_t pos_ = 0;
  int open_groups_ = 0;
};

}  // namespace

Result<RegexPtr> ParseRegex(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace omega
