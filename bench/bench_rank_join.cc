// Ranked-join scaling for multi-conjunct queries. The paper describes the
// ranked join (§3) but reports no numbers for it; this bench characterises
// top-k multi-conjunct latency vs. chain length and k on L4All data, then
// races the compiled-slot join substrate against the seed string-keyed one
// (rank_join_reference.h) on identical synthetic streams.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "eval/rank_join.h"
#include "reference/rank_join_reference.h"
#include "rpq/query_parser.h"

using namespace omega;
using namespace omega::bench;

namespace {

double TimeQuery(const QueryEngine& engine, const Query& query, size_t k,
                 size_t* answers) {
  // Warm-up + 3 timed runs.
  double total = 0;
  for (int run = 0; run < 4; ++run) {
    Timer timer;
    auto result = engine.ExecuteTopK(query, k);
    if (!result.ok()) {
      *answers = 0;
      return -1;
    }
    if (run > 0) total += timer.ElapsedMs();
    *answers = result->size();
  }
  return total / 3;
}

// --- Seed-vs-new join substrate on synthetic streams ------------------------

void RunSubstrateComparison() {
  std::printf("\n== Join substrate: compiled slots vs seed string keys ==\n\n");
  TablePrinter table({"Rows/side", "Outputs", "Compiled (ms)", "Seed (ms)",
                      "Speedup"});
  for (size_t n : {500u, 2000u, 8000u}) {
    const std::vector<SyntheticJoinRow> left = SyntheticJoinRows(61, n, 128);
    const std::vector<SyntheticJoinRow> right = SyntheticJoinRows(62, n, 128);
    // Converted outside the timed loops: the Speedup column must compare
    // the joins, not reference-side row materialisation.
    const std::vector<ReferenceBinding> ref_left =
        SyntheticReferenceRows(left, true);
    const std::vector<ReferenceBinding> ref_right =
        SyntheticReferenceRows(right, false);

    double compiled_ms = 0, seed_ms = 0;
    size_t outputs = 0;
    for (int run = 0; run < 4; ++run) {  // warm-up + 3 timed
      Timer timer;
      RankJoinStream join(
          std::make_unique<SyntheticBindingStream>(&left, true),
          std::make_unique<SyntheticBindingStream>(&right, false));
      Binding out;
      size_t rows = 0;
      while (join.Next(&out)) ++rows;
      if (run > 0) compiled_ms += timer.ElapsedMs();
      outputs = rows;
    }
    size_t seed_outputs = 0;
    for (int run = 0; run < 4; ++run) {
      Timer timer;
      ReferenceRankJoinStream join(
          std::make_unique<VectorReferenceBindingStream>(
              SyntheticReferenceVars(true), &ref_left),
          std::make_unique<VectorReferenceBindingStream>(
              SyntheticReferenceVars(false), &ref_right));
      ReferenceBinding out;
      size_t rows = 0;
      while (join.Next(&out)) ++rows;
      if (run > 0) seed_ms += timer.ElapsedMs();
      seed_outputs = rows;
    }
    compiled_ms /= 3;
    seed_ms /= 3;
    if (seed_outputs != outputs) {
      // The pair only means something when both joins did the same work.
      std::printf("WARNING: output mismatch at %zu rows/side: compiled=%zu "
                  "seed=%zu\n",
                  n, outputs, seed_outputs);
    }
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  compiled_ms > 0 ? seed_ms / compiled_ms : 0.0);
    table.AddRow({std::to_string(n), std::to_string(outputs),
                  FormatMs(compiled_ms), FormatMs(seed_ms), speedup});
  }
  table.Print();
}

}  // namespace

int main() {
  const int level = std::min(2, MaxL4AllLevel());
  const L4AllDataset& d = L4All(level);
  QueryEngine engine(&d.graph, &d.ontology);

  std::printf("== Ranked join: multi-conjunct top-k on L4All %s ==\n\n",
              L4AllScaleName(level).c_str());
  TablePrinter table({"Query shape", "k", "Time (ms)", "Answers"});

  const std::vector<std::pair<std::string, std::string>> shapes = {
      {"1 conjunct", "(?A, ?B) <- (?A, next, ?B)"},
      {"2-chain", "(?A, ?C) <- (?A, next, ?B), (?B, next, ?C)"},
      {"3-chain",
       "(?A, ?D) <- (?A, next, ?B), (?B, next, ?C), (?C, next, ?D)"},
      {"2-chain + APPROX",
       "(?A, ?C) <- (?A, next, ?B), APPROX (?B, prereq, ?C)"},
      {"star join",
       "(?A) <- (?A, job, ?J), (?A, next, ?B), (?B, qualif, ?Q)"},
  };
  for (const auto& [name, text] : shapes) {
    Result<Query> query = ParseQuery(text);
    if (!query.ok()) {
      std::printf("parse error for %s: %s\n", name.c_str(),
                  query.status().ToString().c_str());
      continue;
    }
    for (size_t k : {10u, 100u, 1000u}) {
      size_t answers = 0;
      const double ms = TimeQuery(engine, *query, k, &answers);
      table.AddRow({name, std::to_string(k),
                    ms < 0 ? "?" : FormatMs(ms), std::to_string(answers)});
    }
  }
  table.Print();

  RunSubstrateComparison();
  return 0;
}
