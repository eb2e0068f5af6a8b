#include "service/query_service.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <optional>
#include <span>
#include <type_traits>

#include "common/timer.h"
#include "obs/event_log.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/plan_node.h"

namespace omega {

/// Epoch retire/drain bookkeeping shared between the service (SwapDataset
/// records retirement) and every published epoch's deleter (the last pin
/// drop records the drain). Outlives both sides via shared_ptr: the final
/// pin on a retired epoch may be a ticket a client holds after the service
/// is gone, so the deleter must never call back into the service.
struct EpochDrainTracker {
  Mutex mu;
  /// Epochs retired but not yet drained: id -> retire timestamp. Tiny —
  /// bounded by the number of epochs still pinned by in-flight queries.
  std::vector<std::pair<uint64_t, std::chrono::steady_clock::time_point>>
      retired_at OMEGA_GUARDED_BY(mu);
  double drain_ms_max OMEGA_GUARDED_BY(mu) = 0;
  /// Written once at service construction; `registry` is co-owned so
  /// `drain_us` outlives the service. Drains are observed under `mu`.
  std::shared_ptr<MetricsRegistry> registry;
  Histogram* drain_us = nullptr;
  /// Lifecycle journal for drain events. Written once at construction;
  /// never null afterwards (defaults to EventLog::Global(), which outlives
  /// any detached epoch deleter).
  EventLog* events = nullptr;
};

namespace {

/// The status label values of omega_service_completed_total (the order of
/// ServiceMetrics::PerClass::completed) and the ServiceStats total of each.
constexpr struct {
  const char* label;
  uint64_t ServiceStats::*total;
} kStatuses[] = {{"ok", &ServiceStats::completed},
                 {"cancelled", &ServiceStats::cancelled},
                 {"deadline", &ServiceStats::deadline_exceeded},
                 {"error", &ServiceStats::failed}};
constexpr size_t kNumStatuses = std::size(kStatuses);

size_t StatusIndex(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kCancelled:
      return 1;
    case StatusCode::kDeadlineExceeded:
      return 2;
    default:
      return 3;
  }
}

/// An EvaluatorStats field the service exports per query class.
struct EvalField {
  const char* name;
  const char* help;
  uint64_t EvaluatorStats::*field;
};

/// Sums over executed queries: one counter per class each.
constexpr EvalField kEvalSums[] = {
    {"omega_eval_tuples_popped_total", "Tuple-dictionary removals",
     &EvaluatorStats::tuples_popped},
    {"omega_eval_tuples_pushed_total",
     "Tuple-dictionary insertions (tuples, cursors, expansion records)",
     &EvaluatorStats::tuples_pushed},
    {"omega_eval_succ_expansions_total", "Non-final tuples expanded",
     &EvaluatorStats::succ_expansions},
    {"omega_eval_neighbor_fetches_total", "Neighbour-row fetches",
     &EvaluatorStats::neighbor_group_fetches},
    {"omega_eval_answers_emitted_total", "Answers the result streams emitted",
     &EvaluatorStats::answers_emitted},
    {"omega_eval_seeds_total", "Start tuples seeding added",
     &EvaluatorStats::seeds_added},
    {"omega_eval_rounds_total", "Distance-aware restarts",
     &EvaluatorStats::rounds},
};
constexpr size_t kNumEvalSums = std::size(kEvalSums);

/// High-waters over executed queries: one max-updated gauge per class each.
constexpr EvalField kEvalPeaks[] = {
    {"omega_eval_dict_peak", "Largest tuple-dictionary size seen",
     &EvaluatorStats::max_dictionary_size},
    {"omega_eval_join_live_peak",
     "Largest rank-join tables + heap size seen",
     &EvaluatorStats::max_join_live},
};
constexpr size_t kNumEvalPeaks = std::size(kEvalPeaks);

}  // namespace

/// Cached instrument pointers, resolved once at construction: hot paths
/// (Submit, WorkerLoop, Complete) do lock-free increments through these and
/// never touch the registry map.
struct QueryService::ServiceMetrics {
  /// The instruments labelled class="EXACT|APPROX|RELAX|MIXED".
  struct PerClass {
    Counter* completed[kNumStatuses];
    Counter* cache_lookups;
    Counter* cache_hits;
    Histogram* queue_wait_us;
    Histogram* exec_us;
    Counter* join_rows;
    Counter* eval_sums[kNumEvalSums];
    Gauge* eval_peaks[kNumEvalPeaks];
  };

  explicit ServiceMetrics(MetricsRegistry* registry) {
    submitted = registry->GetCounter("omega_service_submitted_total",
                                     "Admitted submissions (incl. hits)");
    rejected = registry->GetCounter("omega_service_rejected_total",
                                    "Admission-queue-full rejections");
    queue_depth = registry->GetGauge("omega_service_queue_depth",
                                     "Requests waiting in the admission "
                                     "queue");
    in_flight = registry->GetGauge("omega_service_in_flight",
                                   "Requests currently executing on workers");
    workers = registry->GetGauge("omega_service_workers",
                                 "Query worker pool size");
    cache.hits = registry->GetCounter("omega_cache_hits_total",
                                      "Result-cache hits");
    cache.misses = registry->GetCounter("omega_cache_misses_total",
                                        "Result-cache misses");
    cache.insertions = registry->GetCounter("omega_cache_insertions_total",
                                            "Result-cache insertions");
    cache.evictions = registry->GetCounter(
        "omega_cache_evictions_total",
        "Result-cache evictions (LRU pressure + invalidations)");
    swaps = registry->GetCounter("omega_service_swaps_total",
                                 "Dataset hot-swaps published");
    swap_us = registry->GetHistogram("omega_service_swap_us",
                                     "SwapDataset publish time");
    epoch_drain_us = registry->GetHistogram(
        "omega_service_epoch_drain_us",
        "Retired-epoch drain time (retire to last pin drop)");
    for (size_t c = 0; c < kNumQueryClasses; ++c) {
      const std::string labels =
          std::string("class=\"") +
          QueryClassToString(static_cast<QueryClass>(c)) + "\"";
      PerClass& m = per_class[c];
      for (size_t s = 0; s < kNumStatuses; ++s) {
        m.completed[s] = registry->GetCounter(
            "omega_service_completed_total",
            "Request completions by query class and status",
            labels + ",status=\"" + kStatuses[s].label + "\"");
      }
      m.cache_lookups = registry->GetCounter(
          "omega_service_cache_lookups_total",
          "Completed requests that consulted the result cache", labels);
      m.cache_hits = registry->GetCounter(
          "omega_service_cache_hits_total",
          "Completed requests served from the result cache", labels);
      m.queue_wait_us = registry->GetHistogram(
          "omega_service_queue_wait_us", "Admission-queue wait", labels);
      m.exec_us = registry->GetHistogram(
          "omega_service_exec_us", "Engine execution time by query class",
          labels);
      m.join_rows = registry->GetCounter(
          "omega_service_join_rows_total",
          "Rows released by rank-join operators", labels);
      for (size_t i = 0; i < kNumEvalSums; ++i) {
        m.eval_sums[i] = registry->GetCounter(kEvalSums[i].name,
                                              kEvalSums[i].help, labels);
      }
      for (size_t i = 0; i < kNumEvalPeaks; ++i) {
        m.eval_peaks[i] = registry->GetGauge(kEvalPeaks[i].name,
                                             kEvalPeaks[i].help, labels);
      }
    }
  }

  Counter* submitted;
  Counter* rejected;
  Gauge* queue_depth;
  Gauge* in_flight;
  Gauge* workers;
  ResultCacheCounters cache;
  Counter* swaps;
  Histogram* swap_us;
  Histogram* epoch_drain_us;
  PerClass per_class[kNumQueryClasses];
};

namespace {

/// Epoch-deleter body: the last pin on a *retired* epoch just dropped. The
/// live epoch at service destruction has no retire record and is skipped.
void RecordEpochDrained(EpochDrainTracker& tracker, uint64_t epoch_id) {
  const auto now = std::chrono::steady_clock::now();
  MutexLock lock(tracker.mu);
  for (auto it = tracker.retired_at.begin(); it != tracker.retired_at.end();
       ++it) {
    if (it->first != epoch_id) continue;
    const double ms =
        std::chrono::duration<double, std::milli>(now - it->second).count();
    tracker.drain_ms_max = std::max(tracker.drain_ms_max, ms);
    tracker.drain_us->Observe(static_cast<uint64_t>(ms * 1000.0));
    tracker.retired_at.erase(it);
    if (tracker.events != nullptr) {
      char msg[96];
      std::snprintf(msg, sizeof(msg), "epoch %llu drained after %.1f ms",
                    static_cast<unsigned long long>(epoch_id), ms);
      tracker.events->Record(EventSeverity::kInfo, "service", msg);
    }
    return;
  }
}

}  // namespace

namespace {

// Compile-time spot-checks of the frozen-store thread-safety contract: the
// read paths the evaluators hit during concurrent serving must be const
// member functions (see the contract comments on GraphStore, LabelDictionary
// and BoundOntology). If one of these loses its const — say a lazy cache
// sneaks back in — serving over a shared store stops being provably safe
// and this file stops compiling.
static_assert(
    std::is_same_v<decltype(&GraphStore::Neighbors),
                   std::span<const NodeId> (GraphStore::*)(
                       NodeId, LabelId, Direction) const>);
static_assert(
    std::is_same_v<decltype(&GraphStore::SigmaNeighbors),
                   std::span<const NodeId> (GraphStore::*)(NodeId, Direction)
                       const>);
static_assert(
    std::is_same_v<decltype(&GraphStore::FindNode),
                   std::optional<NodeId> (GraphStore::*)(std::string_view)
                       const>);
static_assert(
    std::is_same_v<decltype(&LabelDictionary::Find),
                   std::optional<LabelId> (LabelDictionary::*)(
                       std::string_view) const>);
static_assert(
    std::is_same_v<decltype(&BoundOntology::LabelDownSet),
                   const std::vector<LabelId>& (BoundOntology::*)(LabelId)
                       const>);
static_assert(
    std::is_same_v<decltype(&BoundOntology::NodeDownSet),
                   const OidSet& (BoundOntology::*)(NodeId) const>);

/// Sums the rows the rank-join operators released over the compiled plan
/// tree (their live-peaks reach the merged stream stats' max_join_live).
void SumJoinRows(const PlanNode* node, uint64_t* rows) {
  if (node == nullptr || node->is_leaf()) return;
  if (node->stream != nullptr) {
    *rows += node->stream->OperatorStats().answers_emitted;
  }
  SumJoinRows(node->left.get(), rows);
  SumJoinRows(node->right.get(), rows);
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

// --- QueryTicket -------------------------------------------------------------

const QueryResponse& QueryTicket::Wait() {
  MutexLock lock(mu_);
  while (!done_) cv_.Wait(mu_);
  return response_;
}

QueryResponse QueryTicket::TakeResponse() {
  MutexLock lock(mu_);
  while (!done_) cv_.Wait(mu_);
  return std::move(response_);
}

bool QueryTicket::done() const {
  MutexLock lock(mu_);
  return done_;
}

// --- QueryService ------------------------------------------------------------

QueryService::QueryService(std::shared_ptr<const Dataset> dataset,
                           QueryServiceOptions options)
    : options_(std::move(options)) {
  if (options_.num_workers == 0) {
    options_.num_workers =
        std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  options_.max_queue = std::max<size_t>(options_.max_queue, 1);
  // An injected registry is held without ownership (its owner outlives us).
  registry_ = options_.metrics != nullptr
                  ? std::shared_ptr<MetricsRegistry>(std::shared_ptr<void>(),
                                                     options_.metrics)
                  : std::make_shared<MetricsRegistry>();
  metrics_ = std::make_unique<const ServiceMetrics>(registry_.get());
  metrics_->workers->Set(static_cast<int64_t>(options_.num_workers));
  events_ =
      options_.events != nullptr ? options_.events : EventLog::Global();
  drain_tracker_ = std::make_shared<EpochDrainTracker>();
  drain_tracker_->registry = registry_;
  drain_tracker_->drain_us = metrics_->epoch_drain_us;
  drain_tracker_->events = events_;
  lifetime_base_ = ReadLedger({}, {});
  StartCacheGeneration();
  epoch_ = MakeEpoch(/*id=*/0, std::move(dataset));
  running_.resize(options_.num_workers);
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back(&QueryService::WorkerLoop, this, i);
  }
}

std::shared_ptr<const DatasetEpoch> QueryService::MakeEpoch(
    uint64_t id, std::shared_ptr<const Dataset> dataset) const {
  std::unique_ptr<ResultCache> cache;
  if (options_.cache_entries > 0) {
    // Every epoch's cache counts into the same registry counters, which
    // run on across epochs and cache generations (Prometheus semantics).
    cache = std::make_unique<ResultCache>(
        options_.cache_entries, options_.cache_shards, metrics_->cache);
  }
  // QueryEngine's constructor binds the ontology against the graph
  // (BoundOntology precompute) — per epoch, not per query.
  auto epoch =
      std::make_unique<DatasetEpoch>(id, std::move(dataset), std::move(cache));
  // Custom deleter so the last pin drop on a retired epoch records the
  // drain. The tracker is captured by shared_ptr because a ticket (and
  // therefore the epoch it pins) may legitimately outlive the service.
  std::shared_ptr<EpochDrainTracker> tracker = drain_tracker_;
  return std::shared_ptr<const DatasetEpoch>(
      epoch.release(), [tracker](const DatasetEpoch* e) {
        RecordEpochDrained(*tracker, e->id);
        delete e;
      });
}

std::shared_ptr<const DatasetEpoch> QueryService::CurrentEpoch() const {
  ReaderMutexLock lock(epoch_mu_);
  return epoch_;
}

uint64_t QueryService::dataset_epoch() const { return CurrentEpoch()->id; }

Status QueryService::SwapDataset(std::shared_ptr<const Dataset> dataset) {
  if (dataset == nullptr) {
    return Status::InvalidArgument("SwapDataset requires a dataset");
  }
  const Timer swap_timer;
  std::shared_ptr<const DatasetEpoch> retired;
  {
    WriterMutexLock lock(epoch_mu_);
    // Building the epoch outside the lock would allow two concurrent swaps
    // to publish the same id; binds are cheap relative to swap frequency.
    auto next = MakeEpoch(epoch_->id + 1, std::move(dataset));
    // The cache generation starts as the new cache is published: nothing
    // can reach that cache before the baseline is taken.
    StartCacheGeneration();
    retired = std::move(epoch_);
    epoch_ = std::move(next);
  }
  const double swap_ms = swap_timer.ElapsedMs();
  const uint64_t retired_id = retired->id;
  // Record the retirement *before* dropping our reference: if no query has
  // the old epoch pinned, reset() runs the drain deleter immediately and it
  // must find the retire timestamp already in place. The swap is counted
  // under the same lock, so stats() never sees a drain before its swap.
  {
    MutexLock lock(drain_tracker_->mu);
    metrics_->swaps->Increment();
    metrics_->swap_us->Observe(static_cast<uint64_t>(swap_ms * 1000.0));
    drain_tracker_->retired_at.emplace_back(retired->id,
                                            std::chrono::steady_clock::now());
  }
  // The retired epoch (dataset, engine, cache entries) lives on in the
  // tickets that pinned it and dies with the last of them; dropping our
  // reference here is what makes the swap an invalidation.
  retired.reset();
  {
    char msg[112];
    std::snprintf(msg, sizeof(msg),
                  "dataset swap published: epoch %llu -> %llu (%.1f ms)",
                  static_cast<unsigned long long>(retired_id),
                  static_cast<unsigned long long>(retired_id + 1), swap_ms);
    events_->Record(EventSeverity::kInfo, "service", msg);
  }
  return Status::OK();
}

QueryService::~QueryService() {
  std::deque<std::shared_ptr<QueryTicket>> leftovers;
  std::vector<std::shared_ptr<QueryTicket>> in_flight;
  {
    MutexLock lock(mu_);
    stopping_ = true;
    leftovers.swap(queue_);
    in_flight = running_;
  }
  // Fast shutdown: in-flight queries stop at their next cancellation poll
  // and complete with kCancelled before their worker exits.
  for (const std::shared_ptr<QueryTicket>& ticket : in_flight) {
    if (ticket != nullptr) ticket->cancel_.Cancel();
  }
  work_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
  // The queue was drained into `leftovers` above; don't leave a stale
  // non-zero depth behind in a shared registry. (in_flight needs no reset:
  // it is delta-based and every worker balanced its Add(1) before joining.)
  metrics_->queue_depth->Set(0);
  for (const std::shared_ptr<QueryTicket>& ticket : leftovers) {
    QueryResponse response;
    response.status = Status::Cancelled("query service is shutting down");
    response.epoch = ticket->epoch_->id;
    response.queue_ms = MsSince(ticket->enqueued_at_);
    Complete(ticket, std::move(response));
  }
}

Result<std::shared_ptr<QueryTicket>> QueryService::Submit(
    QueryRequest request) {
  OMEGA_RETURN_NOT_OK(ValidateQuery(request.query));
  auto ticket = std::make_shared<QueryTicket>();
  ticket->request_ = std::move(request);
  ticket->query_class_ = ClassifyQuery(ticket->request_.query);
  const std::chrono::milliseconds deadline =
      ticket->request_.deadline.count() > 0 ? ticket->request_.deadline
                                            : options_.default_deadline;
  if (deadline.count() > 0) {
    ticket->cancel_ = CancelSource::WithTimeout(deadline);
  }
  ticket->enqueued_at_ = std::chrono::steady_clock::now();

  // Pin the serving epoch at admission: the request executes against this
  // epoch's engine and cache no matter how many swaps happen while it
  // waits, and the pin keeps the dataset alive until completion.
  ticket->epoch_ = CurrentEpoch();
  TraceRecorder* const trace = ticket->request_.trace;
  if (trace != nullptr) {
    const TraceRecorder::SpanId pin = trace->Event("epoch_pin");
    trace->Annotate(pin, "epoch", static_cast<int64_t>(ticket->epoch_->id));
    trace->AnnotateStr(pin, "class",
                       QueryClassToString(ticket->query_class_));
  }
  const bool use_cache =
      ticket->epoch_->cache != nullptr && !ticket->request_.bypass_cache;
  ticket->used_cache_ = use_cache;
  if (use_cache || options_.flight_recorder != nullptr) {
    // Canonical query text + k identifies the artifact: the engine options
    // (the other input that shapes the answer sequence) are fixed for this
    // service's lifetime, and the cache dies with its epoch. The flight
    // recorder needs it even on cache-bypass requests — its records key on
    // the hash of this string.
    ticket->cache_key_ = ticket->request_.query.CanonicalKey() + "|k=" +
                         std::to_string(ticket->request_.top_k);
  }
  if (use_cache) {
    // Fresh hits are served synchronously on the submitting thread: no
    // queueing, no worker hand-off — this is the latency the cache exists
    // to buy.
    const Timer lookup_timer;
    std::shared_ptr<const CachedResult> entry =
        ticket->epoch_->cache->Lookup(ticket->cache_key_);
    if (trace != nullptr) {
      const TraceRecorder::SpanId lookup =
          trace->RecordComplete("cache_lookup", lookup_timer.ElapsedUs());
      trace->Annotate(lookup, "hit", entry != nullptr ? 1 : 0);
    }
    if (entry != nullptr) {
      metrics_->submitted->Increment();
      ServeHit(ticket, *entry, /*queue_ms=*/0);
      return ticket;
    }
  }

  std::vector<std::shared_ptr<QueryTicket>> purged;
  bool admitted = false;
  {
    MutexLock lock(mu_);
    if (stopping_) {
      return Status::FailedPrecondition("query service is shutting down");
    }
    if (queue_.size() >= options_.max_queue) {
      // Queued requests that are already cancelled or past their deadline
      // hold admission slots they will never use; release them before
      // deciding to reject. Completion runs after mu_ is dropped —
      // Complete takes the ticket lock, which must stay a leaf lock.
      purged = PurgeDeadLocked();
    }
    if (queue_.size() < options_.max_queue) {
      queue_.push_back(ticket);
      admitted = true;
      // Counted while still holding mu_, before any worker can pop the
      // ticket: the admission happens-before the completion (see stats()).
      metrics_->submitted->Increment();
    }
    metrics_->queue_depth->Set(static_cast<int64_t>(queue_.size()));
  }
  for (const std::shared_ptr<QueryTicket>& p : purged) {
    QueryResponse response;
    response.epoch = p->epoch_->id;
    response.status = p->cancel_.token().Check("queued query");
    if (response.status.ok()) {  // raced with Cancel/clock: treat as cancelled
      response.status = Status::Cancelled("queued query was cancelled");
    }
    response.queue_ms = MsSince(p->enqueued_at_);
    Complete(p, std::move(response));
  }
  if (!admitted) {
    metrics_->rejected->Increment();
    events_->Record(EventSeverity::kWarn, "service",
                    "admission rejected: queue full (max_queue=" +
                        std::to_string(options_.max_queue) + ")");
    return Status::ResourceExhausted(
        "admission queue is full (max_queue=" +
        std::to_string(options_.max_queue) + ")");
  }
  work_cv_.NotifyOne();
  return ticket;
}

QueryResponse QueryService::Execute(QueryRequest request) {
  Result<std::shared_ptr<QueryTicket>> ticket = Submit(std::move(request));
  if (!ticket.ok()) {
    QueryResponse response;
    response.status = ticket.status();
    return response;
  }
  // The local shared_ptr is this caller's only handle: move the response
  // out instead of deep-copying the answers vector.
  return (*ticket)->TakeResponse();
}

void QueryService::InvalidateCache() {
  // See the header comment for the intended semantics: entries are dropped
  // AND the cache-accounting generation restarts — a hit rate that mixes
  // generations would overstate a cache that no longer holds anything. The
  // Clear()-time evictions belong to the old generation.
  const std::shared_ptr<const DatasetEpoch> epoch = CurrentEpoch();
  if (epoch->cache != nullptr) epoch->cache->Clear();
  StartCacheGeneration();
}

void QueryService::StartCacheGeneration() {
  MutexLock lock(generation_mu_);
  generation_base_ = ReadLedger({}, {});
}

ServiceStats QueryService::ReadLedger(const ServiceStats& life,
                                      const ServiceStats& gen) const {
  const ServiceMetrics& m = *metrics_;
  ServiceStats out;
  // Completions first, admissions after. Counter increments are release
  // and Value() an acquire (obs/metrics.h), and every request's admission
  // is counted before its completion — on the submitting thread for a
  // synchronous hit, under mu_ before a worker can pop it otherwise. So a
  // completion this read sees happened-after its admission's increment,
  // which the later read of `submitted` must then see: completions never
  // exceed admissions in one read. For the same reason Complete() counts
  // the completion last, and a hit after its lookup (read hits first).
  for (size_t c = 0; c < kNumQueryClasses; ++c) {
    const ServiceMetrics::PerClass& pm = m.per_class[c];
    const ClassAggregate& base = life.per_class[c];
    ClassAggregate& agg = out.per_class[c];
    uint64_t queries = 0, ok = 0;
    for (size_t s = 0; s < kNumStatuses; ++s) {
      const uint64_t n = pm.completed[s]->Value();
      out.*kStatuses[s].total += n;
      queries += n;
      if (s == 0) ok = n;
    }
    agg.queries = queries - base.queries;
    agg.failures = queries - ok - base.failures;
    agg.cache_hits = pm.cache_hits->Value() - gen.per_class[c].cache_hits;
    agg.cache_lookups =
        pm.cache_lookups->Value() - gen.per_class[c].cache_lookups;
    agg.queue_ms = pm.queue_wait_us->Sum() / 1000.0 - base.queue_ms;
    agg.executed = pm.exec_us->Count() - base.executed;
    agg.exec_ms = pm.exec_us->Sum() / 1000.0 - base.exec_ms;
    agg.join_rows = pm.join_rows->Value() - base.join_rows;
    for (size_t i = 0; i < kNumEvalSums; ++i) {
      const auto field = kEvalSums[i].field;
      agg.eval.*field = pm.eval_sums[i]->Value() - base.eval.*field;
    }
    // A maximum cannot be rebased: report the registry's high-water, but
    // none for a class that executed nothing since `life`.
    for (size_t i = 0; agg.executed > 0 && i < kNumEvalPeaks; ++i) {
      agg.eval.*kEvalPeaks[i].field =
          static_cast<uint64_t>(pm.eval_peaks[i]->Value());
    }
  }
  for (const auto& status : kStatuses) out.*status.total -= life.*status.total;
  out.submitted = m.submitted->Value() - life.submitted;
  out.rejected = m.rejected->Value() - life.rejected;
  out.cache.hits = m.cache.hits->Value() - gen.cache.hits;
  out.cache.misses = m.cache.misses->Value() - gen.cache.misses;
  out.cache.insertions = m.cache.insertions->Value() - gen.cache.insertions;
  out.cache.evictions = m.cache.evictions->Value() - gen.cache.evictions;
  out.swap_ms_total = m.swap_us->Sum() / 1000.0 - life.swap_ms_total;
  {
    // Under the lock swaps and drains are counted under: a retired epoch
    // drains only after its swap was counted.
    MutexLock lock(drain_tracker_->mu);
    out.epochs_drained = m.epoch_drain_us->Count() - life.epochs_drained;
    out.drain_ms_total =
        m.epoch_drain_us->Sum() / 1000.0 - life.drain_ms_total;
    out.drain_ms_max = drain_tracker_->drain_ms_max;
    // Each swap retires exactly one epoch.
    out.dataset_swaps = m.swaps->Value() - life.dataset_swaps;
    out.epochs_retired = out.dataset_swaps;
  }
  return out;
}

ServiceStats QueryService::stats() const {
  // The generation baseline is read before the ledger, so it can never be
  // newer than the values it is subtracted from.
  ServiceStats generation_base;
  {
    MutexLock lock(generation_mu_);
    generation_base = generation_base_;
  }
  ServiceStats out = ReadLedger(lifetime_base_, generation_base);
  {
    MutexLock lock(mu_);
    out.queue_depth = queue_.size();
    for (const std::shared_ptr<QueryTicket>& t : running_) {
      if (t != nullptr) ++out.in_flight;
    }
  }
  const std::shared_ptr<const DatasetEpoch> epoch = CurrentEpoch();
  out.dataset_epoch = epoch->id;
  if (epoch->cache != nullptr) out.cache.entries = epoch->cache->entries();
  return out;
}

size_t QueryService::queue_depth() const {
  MutexLock lock(mu_);
  return queue_.size();
}

bool QueryService::accepting() const {
  MutexLock lock(mu_);
  return !stopping_;
}

FlightRecorder* QueryService::flight_recorder() const {
  return options_.flight_recorder;
}

std::vector<std::shared_ptr<QueryTicket>> QueryService::PurgeDeadLocked() {
  std::vector<std::shared_ptr<QueryTicket>> purged;
  for (auto it = queue_.begin(); it != queue_.end();) {
    // Dead = explicitly cancelled or deadline already expired: either way
    // the ticket is guaranteed to complete without executing, so its slot
    // can be handed to a live request.
    if (!(*it)->cancel_.token().Check("queued query").ok()) {
      purged.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  return purged;
}

void QueryService::WorkerLoop(size_t worker_index) {
  for (;;) {
    std::shared_ptr<QueryTicket> ticket;
    {
      MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) work_cv_.Wait(mu_);
      if (stopping_) return;  // leftovers are completed by the destructor
      ticket = std::move(queue_.front());
      queue_.pop_front();
      running_[worker_index] = ticket;
      metrics_->queue_depth->Set(static_cast<int64_t>(queue_.size()));
    }
    metrics_->in_flight->Add(1);
    RunTask(ticket);
    metrics_->in_flight->Add(-1);
    {
      MutexLock lock(mu_);
      running_[worker_index] = nullptr;
    }
  }
}

void QueryService::RunTask(const std::shared_ptr<QueryTicket>& ticket) {
  // Everything below runs against the epoch the ticket pinned at Submit():
  // a swap that lands mid-execution changes nothing for this request.
  const DatasetEpoch& epoch = *ticket->epoch_;
  QueryResponse response;
  response.epoch = epoch.id;
  response.queue_ms = MsSince(ticket->enqueued_at_);
  TraceRecorder* const trace = ticket->request_.trace;
  const ServiceMetrics::PerClass& m =
      metrics_->per_class[static_cast<size_t>(ticket->query_class_)];
  m.queue_wait_us->Observe(static_cast<uint64_t>(response.queue_ms * 1000.0));
  if (trace != nullptr) {
    // The wait started at Submit(), before this worker had the recorder, so
    // the span is back-dated from the measured duration.
    trace->RecordComplete("queue_wait", response.queue_ms * 1000.0);
  }

  // The deadline clock started at Submit(), so a request can expire (or be
  // cancelled) before it ever executes.
  const CancelToken token = ticket->cancel_.token();
  response.status = token.Check("queued query");
  if (!response.status.ok()) {
    Complete(ticket, std::move(response));
    return;
  }

  const bool use_cache =
      epoch.cache != nullptr && !ticket->request_.bypass_cache;
  // An identical request may have completed while this one queued. Submit
  // already counted this request's miss, so the re-probe doesn't.
  if (use_cache) {
    const Timer lookup_timer;
    std::shared_ptr<const CachedResult> entry =
        epoch.cache->Lookup(ticket->cache_key_, /*count_miss=*/false);
    if (trace != nullptr) {
      const TraceRecorder::SpanId lookup =
          trace->RecordComplete("cache_reprobe", lookup_timer.ElapsedUs());
      trace->Annotate(lookup, "hit", entry != nullptr ? 1 : 0);
    }
    if (entry != nullptr) {
      ServeHit(ticket, *entry, response.queue_ms);
      return;
    }
  }

  Timer timer;
  QueryEngineOptions options = options_.engine;
  options.evaluator.cancel = token;
  // Hand the ticket's recorder to the engine: plan / compile spans and
  // index-probe events land in the same per-query trace as the service
  // spans above.
  options.evaluator.trace = trace;
  if (options.evaluator.top_k_hint == 0) {
    options.evaluator.top_k_hint = ticket->request_.top_k;
  }
  TraceRecorder::SpanId exec_span = 0;
  if (trace != nullptr) exec_span = trace->Begin("execute");
  Result<std::unique_ptr<QueryResultStream>> stream =
      epoch.engine.Execute(ticket->request_.query, options);
  if (!stream.ok()) {
    if (trace != nullptr) {
      trace->Annotate(exec_span, "ok", 0);
      trace->End(exec_span);
    }
    response.status = stream.status();
    response.exec_ms = timer.ElapsedMs();
    const ExecutionStats exec;  // reached the engine, no stream counters
    Complete(ticket, std::move(response), &exec);
    return;
  }

  const size_t k = ticket->request_.top_k;
  QueryAnswer answer;
  bool drained = false;
  while (k == 0 || response.answers.size() < k) {
    if (!(*stream)->Next(&answer)) {
      drained = true;
      break;
    }
    response.answers.push_back(std::move(answer));
  }
  response.exec_ms = timer.ElapsedMs();
  response.status = (*stream)->status();
  response.head = (*stream)->head();
  response.exhausted = drained && response.status.ok();

  ExecutionStats exec;
  exec.eval = (*stream)->stats();
  if ((*stream)->plan() != nullptr) {
    SumJoinRows((*stream)->plan()->root.get(), &exec.join_rows);
  }
  if (trace != nullptr) {
    trace->Annotate(exec_span, "ok", response.status.ok() ? 1 : 0);
    trace->Annotate(exec_span, "answers",
                    static_cast<int64_t>(response.answers.size()));
    trace->Annotate(exec_span, "exhausted", response.exhausted ? 1 : 0);
    // Per-operator pull/emit totals, recorded after draining so the
    // counters are final.
    if ((*stream)->plan() != nullptr) {
      RecordOperatorTrace(*(*stream)->plan(), trace);
    }
    trace->End(exec_span);
  }

  if (use_cache && response.status.ok()) {
    auto entry = std::make_shared<CachedResult>();
    entry->answers = response.answers;
    entry->exhausted = response.exhausted;
    // Fills go to the *pinned* epoch's cache: after a swap this is the
    // retired cache dying with its epoch, so a stale result can never be
    // served to post-swap admissions (they pin the new epoch).
    epoch.cache->Insert(ticket->cache_key_, std::move(entry));
  }
  Complete(ticket, std::move(response), &exec);
}

void QueryService::ServeHit(const std::shared_ptr<QueryTicket>& ticket,
                            const CachedResult& entry, double queue_ms) {
  QueryResponse response;
  response.epoch = ticket->epoch_->id;
  // Entries are shared across alpha-renamed queries, so the column labels
  // come from the query as submitted, not from whoever filled the cache.
  response.head = ticket->request_.query.head;
  response.answers = entry.answers;
  response.exhausted = entry.exhausted;
  response.cache_hit = true;
  response.queue_ms = queue_ms;
  Complete(ticket, std::move(response));
}

void QueryService::Complete(const std::shared_ptr<QueryTicket>& ticket,
                            QueryResponse response,
                            const ExecutionStats* exec) {
  if (options_.flight_recorder != nullptr) {
    // One mutex-guarded flat append per completion (near-free: see the
    // bench_obs _RecorderOn/_RecorderOff gate pair). Trace JSON is captured
    // inside only for completions over the slow threshold.
    QueryFlightRecord record;
    record.query_class = QueryClassToString(ticket->query_class_);
    record.status = response.status.code();
    record.key_hash = ticket->cache_key_.empty()
                          ? 0
                          : FlightRecorder::HashKey(ticket->cache_key_);
    record.queue_us = static_cast<uint64_t>(response.queue_ms * 1000.0);
    record.exec_us = static_cast<uint64_t>(response.exec_ms * 1000.0);
    record.epoch = response.epoch;
    record.answers = static_cast<uint32_t>(response.answers.size());
    record.cache_hit = response.cache_hit;
    options_.flight_recorder->Record(record, ticket->request_.trace);
  }
  if (response.status.IsCancelled() || response.status.IsDeadlineExceeded()) {
    // Lifecycle journal: cancellations and deadline expiries are the
    // completions an operator reconstructs after the fact.
    events_->Record(EventSeverity::kWarn, "service",
                    std::string(StatusCodeToString(response.status.code())) +
                        ": " + response.status.message());
  }
  const ServiceMetrics::PerClass& m =
      metrics_->per_class[static_cast<size_t>(ticket->query_class_)];
  if (ticket->used_cache_) m.cache_lookups->Increment();
  if (response.cache_hit) m.cache_hits->Increment();
  // exec is non-null exactly when the request reached the engine; a
  // queued-dead completion counts toward neither hits nor exec time.
  if (exec != nullptr) {
    m.exec_us->Observe(static_cast<uint64_t>(response.exec_ms * 1000.0));
    m.join_rows->Increment(exec->join_rows);
    for (size_t i = 0; i < kNumEvalSums; ++i) {
      m.eval_sums[i]->Increment(exec->eval.*kEvalSums[i].field);
    }
    for (size_t i = 0; i < kNumEvalPeaks; ++i) {
      m.eval_peaks[i]->UpdateMax(
          static_cast<int64_t>(exec->eval.*kEvalPeaks[i].field));
    }
  }
  // Last: its release publishes the increments above (see ReadLedger).
  m.completed[StatusIndex(response.status.code())]->Increment();
  {
    MutexLock lock(ticket->mu_);
    ticket->response_ = std::move(response);
    ticket->done_ = true;
  }
  ticket->cv_.NotifyAll();
}

}  // namespace omega
