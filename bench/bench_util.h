// Shared infrastructure for the figure/table benches: dataset caching, the
// paper's timing protocol (§4.1), and fixed-width table printing.
#ifndef OMEGA_BENCH_BENCH_UTIL_H_
#define OMEGA_BENCH_BENCH_UTIL_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "datasets/l4all.h"
#include "datasets/query_sets.h"
#include "datasets/yago.h"
#include "eval/query_engine.h"
#include "reference/rank_join_reference.h"

namespace omega::bench {

/// Maximum L4All scale level to bench (1..4); OMEGA_L4ALL_MAX_LEVEL.
int MaxL4AllLevel();

/// YAGO scale factor; OMEGA_YAGO_SCALE (default 0.02 ~ 1/50 of the paper).
double YagoScale();

/// Evaluator memory budget (live tuples) before a query is declared '?';
/// OMEGA_TUPLE_BUDGET (default 20M, roughly the paper's 6 GB machine).
size_t TupleBudget();

/// Cached datasets (generated once per process).
const L4AllDataset& L4All(int level);
const YagoDataset& Yago();

/// Result of the paper's run protocol for one query.
struct ProtocolResult {
  bool failed = false;         ///< the '?' case: budget exhausted
  std::string failure;         ///< status message when failed
  size_t answers = 0;          ///< total answers retrieved
  std::map<Cost, size_t> per_distance;  ///< answer count per distance
  double init_ms = 0;          ///< automaton construction + Open
  double mean_batch_ms = 0;    ///< mean time of the 10-answer batches
  double total_ms = 0;         ///< end-to-end (init + all batches)
  EvaluatorStats stats;
};

/// Runs a query under the §4.1 protocol: 5 runs, the first discarded as
/// cache warm-up; exact queries run to completion, flexible ones fetch
/// top-100 in batches of 10. Timings are averaged over runs 2-5.
ProtocolResult RunProtocol(const GraphStore& graph, const Ontology& ontology,
                           const std::string& conjunct, ConjunctMode mode,
                           const QueryEngineOptions& options = {},
                           size_t top_k = 100, int runs = 5);

/// Fixed-width markdown-ish table printer.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void AddRow(std::vector<std::string> cells);
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// "1 (42) 2 (100)" — the Fig. 5 / Fig. 10 distance-breakdown notation:
/// count of answers at each non-zero distance.
std::string DistanceBreakdown(const std::map<Cost, size_t>& per_distance);

// --- Synthetic rank-join workload (bench_rank_join, bench_micro_substrate) --

/// One scripted join row: `a` is the private variable (X on the left side,
/// Z on the right), `y` the shared one, `d` the non-decreasing distance.
struct SyntheticJoinRow {
  NodeId a;
  NodeId y;
  Cost d;
};

/// Deterministic row script: `a` uniform over 2^20, `y` over `y_domain`,
/// distances bump by one with probability 1/4 per row.
std::vector<SyntheticJoinRow> SyntheticJoinRows(uint64_t seed, size_t n,
                                                NodeId y_domain);

/// Compiled-slot stream over a synthetic row script, catalogue width 3:
/// the left side binds (X=0, Y=1), the right (Y=1, Z=2).
class SyntheticBindingStream : public BindingStream {
 public:
  /// `rows` must outlive the stream.
  SyntheticBindingStream(const std::vector<SyntheticJoinRow>* rows, bool left)
      : rows_(rows),
        vars_(left ? std::vector<VarId>{0, 1} : std::vector<VarId>{1, 2}),
        left_(left) {}

  bool Next(Binding* out) override {
    if (pos_ >= rows_->size()) return false;
    const SyntheticJoinRow& row = (*rows_)[pos_++];
    Binding b(3);
    b.distance = row.d;
    b.Bind(left_ ? 0 : 2, row.a);
    b.Bind(1, row.y);
    *out = std::move(b);
    return true;
  }
  const Status& status() const override { return status_; }
  const std::vector<VarId>& variables() const override { return vars_; }

 private:
  const std::vector<SyntheticJoinRow>* rows_;
  std::vector<VarId> vars_;
  bool left_;
  size_t pos_ = 0;
  Status status_;
};

/// The same script lifted to the seed string data plane of
/// rank_join_reference.h (slot X/Y/Z become names "X"/"Y"/"Z"). Convert
/// once, outside any timed region, then replay through the borrowing
/// VectorReferenceBindingStream constructor — otherwise the paired bench
/// times string-row materialisation on the reference side only.
std::vector<ReferenceBinding> SyntheticReferenceRows(
    const std::vector<SyntheticJoinRow>& rows, bool left);

/// Variable names of one synthetic side on the seed data plane.
inline std::vector<std::string> SyntheticReferenceVars(bool left) {
  return left ? std::vector<std::string>{"X", "Y"}
              : std::vector<std::string>{"Y", "Z"};
}

std::string FormatMs(double ms);

}  // namespace omega::bench

#endif  // OMEGA_BENCH_BENCH_UTIL_H_
