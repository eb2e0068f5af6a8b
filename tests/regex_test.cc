#include "rpq/regex_parser.h"

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "reference/reference_matcher.h"
#include "test_util.h"

namespace omega {
namespace {

using testing::Rx;

std::string Reparse(const std::string& text) {
  return ToString(*Rx(text));
}

TEST(RegexParserTest, Atoms) {
  EXPECT_EQ(Rx("a")->op, RegexOp::kLabel);
  EXPECT_EQ(Rx("a")->dir, Direction::kOutgoing);
  EXPECT_EQ(Rx("a-")->dir, Direction::kIncoming);
  EXPECT_EQ(Rx("_")->op, RegexOp::kWildcard);
  EXPECT_EQ(Rx("_-")->dir, Direction::kIncoming);
  EXPECT_EQ(Rx("()")->op, RegexOp::kEpsilon);
}

TEST(RegexParserTest, PaperQueries) {
  // Every regex from Fig. 4 and Fig. 9 parses and round-trips.
  for (const char* text :
       {"type-", "type-.qualif-", "type-.job-", "job.type", "next+",
        "prereq+", "next+|(prereq+.next)", "type.prereq+",
        "prereq*.next+.prereq", "type-.job-.next", "level-.qualif-.prereq",
        "bornIn-.marriedTo.hasChild", "hasChild.gradFrom.gradFrom-.hasWonPrize",
        "type-.locatedIn-", "directed.married.married+.playsFor",
        "isConnectedTo.wasBornIn", "imports.exports-",
        "type-.happenedIn-.participatedIn-", "type.type-.actedIn",
        "(livesIn-.hasCurrency)|(locatedIn-.gradFrom)"}) {
    Result<RegexPtr> r = ParseRegex(text);
    ASSERT_TRUE(r.ok()) << text << ": " << r.status().ToString();
    // Round-trip: unparse -> reparse -> structural equality.
    Result<RegexPtr> again = ParseRegex(ToString(**r));
    ASSERT_TRUE(again.ok()) << ToString(**r);
    EXPECT_TRUE(RegexEquals(**r, **again)) << text;
  }
}

TEST(RegexParserTest, PrecedenceAlternationVsConcat) {
  // a.b|c == (a.b)|c, not a.(b|c).
  RegexPtr r = Rx("a.b|c");
  ASSERT_EQ(r->op, RegexOp::kAlternation);
  EXPECT_EQ(r->children[0]->op, RegexOp::kConcat);
  EXPECT_EQ(r->children[1]->op, RegexOp::kLabel);
}

TEST(RegexParserTest, PostfixBinding) {
  RegexPtr r = Rx("a.b*");
  ASSERT_EQ(r->op, RegexOp::kConcat);
  EXPECT_EQ(r->children[1]->op, RegexOp::kStar);
  RegexPtr g = Rx("(a.b)*");
  EXPECT_EQ(g->op, RegexOp::kStar);
}

TEST(RegexParserTest, ReversedLabelWithClosure) {
  RegexPtr r = Rx("a-*");
  ASSERT_EQ(r->op, RegexOp::kStar);
  EXPECT_EQ(r->children[0]->dir, Direction::kIncoming);
}

TEST(RegexParserTest, Whitespace) {
  EXPECT_EQ(Reparse(" a . b | c "), "a.b|c");
}

TEST(RegexParserTest, Errors) {
  for (const char* bad :
       {"", "a..b", "|a", "a|", "(a", "a)", "a--", "(a.b)-", "*a", "a b",
        ".a", "a.", "a+*-"}) {
    EXPECT_FALSE(ParseRegex(bad).ok()) << bad;
  }
}

// Regression: both inputs used to overflow the stack (in the parser's
// recursion, or later when the AST was walked or destroyed).
TEST(RegexParserTest, DeepParenthesisNestingIsInvalidArgument) {
  const std::string text =
      std::string(10000, '(') + "a" + std::string(10000, ')');
  Result<RegexPtr> r = ParseRegex(text);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(RegexParserTest, StackedPostfixOperatorsAreInvalidArgument) {
  for (const char op : {'*', '+'}) {
    Result<RegexPtr> r = ParseRegex("a" + std::string(300000, op));
    ASSERT_FALSE(r.ok()) << op;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << op;
  }
}

TEST(RegexParserTest, ModerateNestingStillParses) {
  EXPECT_TRUE(
      ParseRegex(std::string(100, '(') + "a.b" + std::string(100, ')')).ok());
  EXPECT_TRUE(ParseRegex("(a" + std::string(100, '*') + ")+").ok());
}

TEST(RegexAstTest, CloneIsDeepAndEqual) {
  RegexPtr r = Rx("(a|b-).c+");
  RegexPtr copy = Clone(*r);
  EXPECT_TRUE(RegexEquals(*r, *copy));
  copy->children[1]->children[0]->label = "zzz";
  EXPECT_FALSE(RegexEquals(*r, *copy));
}

TEST(RegexAstTest, ReverseSimple) {
  EXPECT_EQ(ToString(*ReverseRegex(*Rx("a.b"))), "b-.a-");
  EXPECT_EQ(ToString(*ReverseRegex(*Rx("a-"))), "a");
  EXPECT_EQ(ToString(*ReverseRegex(*Rx("a|b"))), "a-|b-");
  EXPECT_EQ(ToString(*ReverseRegex(*Rx("a*"))), "a-*");
  EXPECT_EQ(ToString(*ReverseRegex(*Rx("(a.b)+|c"))), "(b-.a-)+|c-");
  EXPECT_EQ(ToString(*ReverseRegex(*Rx("_")))[0], '_');
}

TEST(RegexAstTest, ReverseIsInvolution) {
  Rng rng(31);
  const std::vector<std::string> labels = {"a", "b", "c"};
  for (int i = 0; i < 50; ++i) {
    RegexPtr r = testing::RandomRegex(&rng, labels, 3);
    RegexPtr twice = ReverseRegex(*ReverseRegex(*r));
    EXPECT_TRUE(RegexEquals(*r, *twice)) << ToString(*r);
  }
}

TEST(RegexAstTest, ReversedLanguageMatchesReversedPaths) {
  Rng rng(77);
  const std::vector<std::string> labels = {"a", "b"};
  for (int i = 0; i < 40; ++i) {
    RegexPtr r = testing::RandomRegex(&rng, labels, 2);
    RegexPtr rev = ReverseRegex(*r);
    // Random path of length <= 4.
    std::vector<LabelStep> path;
    const size_t len = rng.NextBounded(5);
    for (size_t k = 0; k < len; ++k) {
      path.push_back({labels[rng.NextBounded(labels.size())],
                      rng.NextBool(0.5) ? Direction::kOutgoing
                                        : Direction::kIncoming});
    }
    std::vector<LabelStep> reversed_path(path.rbegin(), path.rend());
    for (LabelStep& step : reversed_path) step.dir = Reverse(step.dir);
    EXPECT_EQ(RegexMatchesPath(*r, path), RegexMatchesPath(*rev, reversed_path))
        << ToString(*r);
  }
}

TEST(RegexAstTest, TopLevelAlternatives) {
  RegexPtr alt = Rx("a|b.c|d");
  EXPECT_EQ(TopLevelAlternatives(*alt).size(), 3u);
  RegexPtr non_alt = Rx("(a|b).c");
  EXPECT_EQ(TopLevelAlternatives(*non_alt).size(), 1u);
}

TEST(ReferenceMatcherTest, BasicMembership) {
  RegexPtr r = Rx("a.b*");
  std::vector<LabelStep> empty;
  EXPECT_FALSE(RegexMatchesPath(*r, empty));
  std::vector<LabelStep> a = {{"a", Direction::kOutgoing}};
  EXPECT_TRUE(RegexMatchesPath(*r, a));
  std::vector<LabelStep> abb = {{"a", Direction::kOutgoing},
                                {"b", Direction::kOutgoing},
                                {"b", Direction::kOutgoing}};
  EXPECT_TRUE(RegexMatchesPath(*r, abb));
  std::vector<LabelStep> ba = {{"b", Direction::kOutgoing},
                               {"a", Direction::kOutgoing}};
  EXPECT_FALSE(RegexMatchesPath(*r, ba));
}

TEST(ReferenceMatcherTest, EnumerateLanguage) {
  RegexPtr r = Rx("a|b.b");
  auto lang = EnumerateLanguage(*r, {"a", "b"}, 3);
  // {a, bb}
  EXPECT_EQ(lang.size(), 2u);
  auto star = EnumerateLanguage(*Rx("a*"), {"a"}, 3);
  EXPECT_EQ(star.size(), 4u);  // ε, a, aa, aaa
  auto plus = EnumerateLanguage(*Rx("a+"), {"a"}, 3);
  EXPECT_EQ(plus.size(), 3u);  // a, aa, aaa
}

TEST(ReferenceMatcherTest, EditDistance) {
  EditCosts costs;
  std::vector<LabelStep> ab = {{"a", Direction::kOutgoing},
                               {"b", Direction::kOutgoing}};
  std::vector<LabelStep> ac = {{"a", Direction::kOutgoing},
                               {"c", Direction::kOutgoing}};
  std::vector<LabelStep> a = {{"a", Direction::kOutgoing}};
  EXPECT_EQ(EditDistance(ab, ab, costs), 0);
  EXPECT_EQ(EditDistance(ab, ac, costs), 1);   // substitute b -> c
  EXPECT_EQ(EditDistance(ab, a, costs), 1);    // delete b
  EXPECT_EQ(EditDistance(a, ab, costs), 1);    // insert b
  // Reversed direction counts as a different symbol.
  std::vector<LabelStep> a_rev = {{"a", Direction::kIncoming}};
  EXPECT_EQ(EditDistance(a, a_rev, costs), 1);
}

}  // namespace
}  // namespace omega
