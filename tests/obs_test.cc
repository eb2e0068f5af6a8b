// Unit tests for the observability layer: metrics registry instruments and
// their Prometheus text exposition, per-query trace spans, EXPLAIN ANALYZE
// actual-vs-estimated rendering, the service's instrument wiring (with an
// injected private registry), cache-generation reset semantics vs the
// monotonic registry counters, epoch swap/drain accounting, and the
// snapshot layer's open/mmap metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "eval/query_engine.h"
#include "net/ops_routes.h"
#include "obs/event_log.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpq/query_parser.h"
#include "service/query_service.h"
#include "snapshot/snapshot_reader.h"
#include "snapshot/snapshot_writer.h"
#include "store/graph_builder.h"
#include "test_util.h"

namespace omega {
namespace {

using omega::testing::CompletedTotal;
using omega::testing::MakeGraph;
using omega::testing::Qy;

// --- MetricsRegistry ---------------------------------------------------------

TEST(ObsMetricsTest, CounterGaugeHistogramBasics) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("requests_total", "help");
  c->Increment();
  c->Increment(4);
  EXPECT_EQ(c->Value(), 5u);
  // Same (name, labels) -> same instrument; different labels -> distinct.
  EXPECT_EQ(registry.GetCounter("requests_total"), c);
  EXPECT_NE(registry.GetCounter("requests_total", "", "k=\"v\""), c);

  Gauge* g = registry.GetGauge("depth");
  g->Set(7);
  g->Add(-3);
  EXPECT_EQ(g->Value(), 4);

  Histogram* h = registry.GetHistogram("lat_us", "", "", {10, 100, 1000});
  h->Observe(5);     // bucket 0 (le=10)
  h->Observe(10);    // inclusive upper bound: still bucket 0
  h->Observe(500);   // bucket 2 (le=1000)
  h->Observe(5000);  // +Inf bucket
  EXPECT_EQ(h->Count(), 4u);
  EXPECT_EQ(h->Sum(), 5515u);
  EXPECT_EQ(h->BucketCount(0), 2u);
  EXPECT_EQ(h->BucketCount(1), 0u);
  EXPECT_EQ(h->BucketCount(2), 1u);
  EXPECT_EQ(h->BucketCount(3), 1u);  // +Inf
}

// High-water gauges take concurrent UpdateMax calls from every worker: the
// compare-exchange loop must keep the largest value any writer offered and
// never move backwards.
TEST(ObsMetricsTest, GaugeUpdateMaxHoldsUnderConcurrentWriters) {
  Gauge gauge;
  constexpr int64_t kWriters = 4;
  constexpr int64_t kPerWriter = 20'000;
  std::atomic<bool> done{false};
  std::atomic<size_t> regressions{0};
  std::thread reader([&] {
    int64_t last = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const int64_t now = gauge.Value();
      if (now < last) ++regressions;
      last = now;
    }
  });
  std::vector<std::thread> writers;
  for (int64_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&gauge, w] {
      // Interleaved ascending offers contend on every step; the descending
      // tail must never lower the gauge.
      for (int64_t i = 0; i < kPerWriter; ++i) {
        gauge.UpdateMax(i * kWriters + w);
      }
      for (int64_t i = kPerWriter; i > 0; --i) gauge.UpdateMax(i);
    });
  }
  for (std::thread& writer : writers) writer.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(gauge.Value(), kPerWriter * kWriters - 1);
  EXPECT_EQ(regressions.load(), 0u);
  gauge.UpdateMax(3);
  EXPECT_EQ(gauge.Value(), kPerWriter * kWriters - 1);
}

TEST(ObsMetricsTest, RenderTextPrometheusFormat) {
  MetricsRegistry registry;
  registry.GetCounter("omega_reqs_total", "Requests", "class=\"EXACT\"")
      ->Increment(3);
  registry.GetCounter("omega_reqs_total", "Requests", "class=\"RELAX\"")
      ->Increment();
  registry.GetGauge("omega_depth", "Depth")->Set(2);
  Histogram* h = registry.GetHistogram("omega_lat_us", "Latency", "", {10, 20});
  h->Observe(15);

  const std::string text = registry.RenderText();
  // Families render HELP/TYPE once, then every labelled series.
  EXPECT_NE(text.find("# HELP omega_reqs_total Requests"), std::string::npos);
  EXPECT_NE(text.find("# TYPE omega_reqs_total counter"), std::string::npos);
  EXPECT_NE(text.find("omega_reqs_total{class=\"EXACT\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("omega_reqs_total{class=\"RELAX\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE omega_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("omega_depth 2"), std::string::npos);
  // Histogram buckets are cumulative and end with +Inf == _count.
  EXPECT_NE(text.find("# TYPE omega_lat_us histogram"), std::string::npos);
  EXPECT_NE(text.find("omega_lat_us_bucket{le=\"10\"} 0"), std::string::npos);
  EXPECT_NE(text.find("omega_lat_us_bucket{le=\"20\"} 1"), std::string::npos);
  EXPECT_NE(text.find("omega_lat_us_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("omega_lat_us_sum 15"), std::string::npos);
  EXPECT_NE(text.find("omega_lat_us_count 1"), std::string::npos);
  // HELP/TYPE appear once per family even with two series.
  EXPECT_EQ(text.find("# HELP omega_reqs_total"),
            text.rfind("# HELP omega_reqs_total"));
}

// --- TraceRecorder -----------------------------------------------------------

TEST(ObsTraceTest, SpansEventsAnnotationsAndJson) {
  TraceRecorder trace;
  const TraceRecorder::SpanId a = trace.Begin("plan");
  trace.Annotate(a, "conjuncts", 2);
  trace.End(a);
  const TraceRecorder::SpanId e = trace.Event("epoch_pin");
  trace.AnnotateStr(e, "class", "EXACT");
  trace.RecordComplete("queue_wait", 125.0);
  EXPECT_EQ(trace.NumSpans(), 3u);

  const std::vector<TraceRecorder::Span> spans = trace.Snapshot();
  EXPECT_EQ(spans[0].name, "plan");
  EXPECT_GE(spans[0].dur_us, 0.0);
  ASSERT_EQ(spans[0].attrs.size(), 1u);
  EXPECT_EQ(spans[0].attrs[0].key, "conjuncts");
  EXPECT_EQ(spans[0].attrs[0].value, 2);
  EXPECT_EQ(spans[1].dur_us, 0.0);  // instant event
  EXPECT_EQ(spans[2].name, "queue_wait");
  EXPECT_DOUBLE_EQ(spans[2].dur_us, 125.0);
  // RecordComplete back-dates the start so the span nests plausibly.
  EXPECT_GE(spans[2].start_us, 0.0);

  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"spans\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"plan\""), std::string::npos);
  EXPECT_NE(json.find("\"conjuncts\":2"), std::string::npos);
  EXPECT_NE(json.find("\"class\":\"EXACT\""), std::string::npos);
}

TEST(ObsTraceTest, ScopedSpanIsNullSafe) {
  {
    ScopedSpan span(nullptr, "noop");
    span.Annotate("k", 1);
    span.AnnotateStr("s", "v");
  }
  TraceRecorder trace;
  {
    ScopedSpan span(&trace, "work");
    span.Annotate("k", 1);
  }
  const std::vector<TraceRecorder::Span> spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "work");
  EXPECT_GE(spans[0].dur_us, 0.0);  // closed by the destructor
}

// --- EXPLAIN ANALYZE ---------------------------------------------------------

/// Hub-skewed graph: one node with a large type fan-in, so the planner's
/// uniform-degree estimate misses the actual cardinality by a wide margin —
/// exactly what EXPLAIN ANALYZE exists to expose.
GraphStore HubGraph() {
  GraphBuilder builder;
  for (int i = 0; i < 150; ++i) {
    (void)builder.AddEdge("item" + std::to_string(i), "type", "Hub");
    if (i % 30 == 0) {
      (void)builder.AddEdge("item" + std::to_string(i), "type", "Rare");
    }
  }
  (void)builder.AddEdge("Hub", "related", "Rare");
  return std::move(builder).Finalize();
}

TEST(ObsExplainAnalyzeTest, ShowsActualVsEstimatedWithRatio) {
  const GraphStore graph = HubGraph();
  QueryEngine engine(&graph, nullptr);
  const Query query = Qy("(?X) <- (Hub, type-, ?X)");

  Result<std::unique_ptr<QueryResultStream>> stream =
      engine.Execute(query, {});
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  QueryAnswer answer;
  size_t answers = 0;
  while ((*stream)->Next(&answer)) ++answers;
  ASSERT_TRUE((*stream)->status().ok());
  EXPECT_EQ(answers, 150u);

  const std::string rendered = (*stream)->ExplainString();
  // Estimates render alongside actuals with the mis-estimate ratio.
  EXPECT_NE(rendered.find("est="), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("act=150 rows"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("err="), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("popped="), std::string::npos) << rendered;
}

TEST(ObsExplainAnalyzeTest, JoinNodesReportActualRowsToo) {
  const GraphStore graph = HubGraph();
  QueryEngine engine(&graph, nullptr);
  const Query query = Qy("(?X, ?Y) <- (?X, type, ?Z), (?X, type, ?Y)");

  Result<std::unique_ptr<QueryResultStream>> stream =
      engine.Execute(query, {});
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  QueryAnswer answer;
  while ((*stream)->Next(&answer)) {
  }
  ASSERT_TRUE((*stream)->status().ok());

  const std::string rendered = (*stream)->ExplainString();
  EXPECT_NE(rendered.find("RankJoin"), std::string::npos) << rendered;
  // Both the join node and its leaves carry {act=... err=...} blocks.
  EXPECT_NE(rendered.find("live-peak="), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("err="), std::string::npos) << rendered;
}

// --- Service wiring ----------------------------------------------------------

const std::shared_ptr<const Dataset>& ServiceDataset() {
  static const auto* dataset =
      new std::shared_ptr<const Dataset>(Dataset::FromParts(
          MakeGraph({
              {"a1", "knows", "a2"},
              {"a2", "knows", "a3"},
              {"a3", "knows", "a1"},
              {"a1", "likes", "a3"},
          }),
          std::nullopt));
  return *dataset;
}

QueryRequest Req(const std::string& text, bool bypass_cache = false) {
  QueryRequest request;
  request.query = Qy(text);
  request.top_k = 10;
  request.bypass_cache = bypass_cache;
  return request;
}

TEST(ObsServiceTest, InjectedRegistryCountsSubmissionsAndCompletions) {
  MetricsRegistry registry;
  QueryServiceOptions options;
  options.num_workers = 2;
  options.metrics = &registry;
  QueryService service(ServiceDataset(), options);

  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(
        service.Execute(Req("(?X) <- (?X, knows, ?Y)")).status.ok());
  }
  EXPECT_TRUE(
      service.Execute(Req("(?X) <- (?X, likes, ?Y)", /*bypass_cache=*/true))
          .status.ok());

  EXPECT_EQ(registry.GetCounter("omega_service_submitted_total")->Value(), 4u);
  EXPECT_EQ(CompletedTotal(registry, "ok"), 4u);
  // Two repeats of the cached query hit; the first miss inserted.
  EXPECT_EQ(registry.GetCounter("omega_cache_hits_total")->Value(), 2u);
  EXPECT_GE(registry.GetCounter("omega_cache_misses_total")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("omega_cache_insertions_total")->Value(), 1u);
  // Executed (non-hit) requests land in the per-class latency histogram.
  Histogram* exec = registry.GetHistogram("omega_service_exec_us", "",
                                          "class=\"EXACT\"");
  EXPECT_EQ(exec->Count(), 2u);
  EXPECT_EQ(registry.GetGauge("omega_service_queue_depth")->Value(), 0);
  // The whole wiring shows up in the exposition.
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("omega_service_submitted_total 4"), std::string::npos);
  EXPECT_NE(text.find("omega_service_exec_us_count{class=\"EXACT\"} 2"),
            std::string::npos);
}

TEST(ObsServiceTest, ServiceWithoutInjectedRegistryCountsPrivately) {
  Counter* const global_submitted =
      MetricsRegistry::Global()->GetCounter("omega_service_submitted_total");
  const uint64_t global_before = global_submitted->Value();
  QueryServiceOptions options;
  options.num_workers = 1;
  QueryService service(ServiceDataset(), options);
  EXPECT_TRUE(service.Execute(Req("(?X) <- (?X, knows, ?Y)")).status.ok());
  // The service counted into a registry of its own, which stats() reads;
  // the process-global registry never saw the request.
  ASSERT_NE(service.metrics_registry(), MetricsRegistry::Global());
  EXPECT_EQ(service.metrics_registry()
                ->GetCounter("omega_service_submitted_total")
                ->Value(),
            1u);
  EXPECT_EQ(service.stats().submitted, 1u);
  EXPECT_EQ(global_submitted->Value(), global_before);
}

// S1 regression: cache-generation resets must clear the per-class and
// per-cache counters but leave the registry's monotonic totals untouched.
TEST(ObsServiceTest, CacheGenerationResetKeepsRegistryMonotonic) {
  MetricsRegistry registry;
  QueryServiceOptions options;
  options.num_workers = 1;
  options.metrics = &registry;
  QueryService service(ServiceDataset(), options);

  EXPECT_TRUE(service.Execute(Req("(?X) <- (?X, knows, ?Y)")).status.ok());
  EXPECT_TRUE(service.Execute(Req("(?X) <- (?X, knows, ?Y)")).status.ok());
  ServiceStats stats = service.stats();
  const size_t exact = static_cast<size_t>(QueryClass::kExact);
  EXPECT_EQ(stats.per_class[exact].cache_hits, 1u);
  EXPECT_EQ(stats.cache.hits, 1u);

  service.InvalidateCache();
  stats = service.stats();
  EXPECT_EQ(stats.per_class[exact].cache_hits, 0u);
  EXPECT_EQ(stats.per_class[exact].cache_lookups, 0u);
  EXPECT_EQ(stats.cache.hits, 0u);
  // The generation reset zeroed the cache's own eviction tally too, but the
  // registry keeps the Clear()-time eviction: Prometheus counters never
  // rewind.
  EXPECT_EQ(stats.cache.evictions, 0u);
  EXPECT_GT(registry.GetCounter("omega_cache_evictions_total")->Value(), 0u);
  EXPECT_EQ(registry.GetCounter("omega_cache_hits_total")->Value(), 1u);
}

TEST(ObsServiceTest, SwapAndDrainAccounting) {
  MetricsRegistry registry;
  QueryServiceOptions options;
  options.num_workers = 1;
  options.metrics = &registry;
  std::shared_ptr<const Dataset> initial = Dataset::FromParts(
      MakeGraph({{"a", "knows", "b"}}), std::nullopt);
  std::shared_ptr<const Dataset> next = Dataset::FromParts(
      MakeGraph({{"x", "knows", "y"}, {"y", "knows", "z"}}), std::nullopt);
  QueryService service(initial, options);

  // No query ever pinned epoch 0, so the swap drains it synchronously.
  ASSERT_TRUE(service.SwapDataset(next).ok());
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.dataset_swaps, 1u);
  EXPECT_EQ(stats.epochs_retired, 1u);
  EXPECT_EQ(stats.epochs_drained, 1u);
  EXPECT_GE(stats.swap_ms_total, 0.0);
  EXPECT_GE(stats.drain_ms_total, 0.0);
  EXPECT_GE(stats.drain_ms_max, 0.0);
  EXPECT_EQ(registry.GetCounter("omega_service_swaps_total")->Value(), 1u);
  EXPECT_EQ(registry.GetHistogram("omega_service_swap_us")->Count(), 1u);
  EXPECT_EQ(registry.GetHistogram("omega_service_epoch_drain_us")->Count(),
            1u);

  // A query against the new epoch, then another swap: the pinned epoch 1
  // drains once its last ticket is gone (the worker may hold the ticket a
  // beat after Execute returns, so poll briefly).
  EXPECT_TRUE(service.Execute(Req("(?X) <- (?X, knows, ?Y)")).status.ok());
  ASSERT_TRUE(service.SwapDataset(initial).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (service.stats().epochs_drained < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  stats = service.stats();
  EXPECT_EQ(stats.epochs_retired, 2u);
  EXPECT_EQ(stats.epochs_drained, 2u);
}

TEST(ObsServiceTest, PerQueryTraceCoversServiceAndEngine) {
  QueryServiceOptions options;
  options.num_workers = 1;
  QueryService service(ServiceDataset(), options);

  TraceRecorder trace;
  QueryRequest request = Req("(?X) <- (?X, knows, ?Y)", /*bypass_cache=*/true);
  request.trace = &trace;
  ASSERT_TRUE(service.Execute(std::move(request)).status.ok());

  std::vector<std::string> names;
  for (const TraceRecorder::Span& span : trace.Snapshot()) {
    names.push_back(span.name);
  }
  auto has = [&](const char* name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  EXPECT_TRUE(has("epoch_pin"));
  EXPECT_TRUE(has("queue_wait"));
  EXPECT_TRUE(has("plan"));     // recorded inside the engine
  EXPECT_TRUE(has("compile"));  // recorded inside the engine
  EXPECT_TRUE(has("execute"));
  // The operator totals were appended after draining.
  bool has_operator_span = false;
  for (const std::string& name : names) {
    if (name.rfind("op ", 0) == 0) has_operator_span = true;
  }
  EXPECT_TRUE(has_operator_span);

  // A cached re-run records the lookup hit instead of an execution.
  TraceRecorder hit_trace;
  QueryRequest repeat = Req("(?X) <- (?X, knows, ?Y)");
  ASSERT_TRUE(service.Execute(std::move(repeat)).status.ok());  // warm
  QueryRequest traced = Req("(?X) <- (?X, knows, ?Y)");
  traced.trace = &hit_trace;
  ASSERT_TRUE(service.Execute(std::move(traced)).status.ok());
  bool saw_hit = false;
  for (const TraceRecorder::Span& span : hit_trace.Snapshot()) {
    if (span.name != "cache_lookup") continue;
    for (const TraceRecorder::Attr& attr : span.attrs) {
      if (attr.key == "hit" && attr.value == 1) saw_hit = true;
    }
  }
  EXPECT_TRUE(saw_hit);
}

// --- Injected observability surfaces ----------------------------------------

// Regression for the shell's `.metrics` / `.trace save` routing: a service
// constructed with injected surfaces must expose exactly those through its
// accessors, and the Effective* helpers must resolve injected-or-global the
// way every consumer (shell, ops routes) does.
TEST(ObsServiceTest, InjectedSurfacesResolveThroughAccessors) {
  MetricsRegistry registry;
  FlightRecorder recorder;
  EventLog events;
  QueryServiceOptions options;
  options.num_workers = 1;
  options.metrics = &registry;
  options.flight_recorder = &recorder;
  options.events = &events;
  QueryService service(ServiceDataset(), options);

  EXPECT_EQ(service.metrics_registry(), &registry);
  EXPECT_EQ(service.flight_recorder(), &recorder);
  EXPECT_EQ(service.event_log(), &events);
  EXPECT_EQ(EffectiveMetricsRegistry(&service), &registry);
  EXPECT_EQ(EffectiveFlightRecorder(&service), &recorder);

  // No service at all -> the process-global registry, no recorder.
  EXPECT_EQ(EffectiveMetricsRegistry(nullptr), MetricsRegistry::Global());
  EXPECT_EQ(EffectiveFlightRecorder(nullptr), nullptr);

  // A service without injected surfaces resolves to its own private
  // registry and reports no flight recorder.
  QueryServiceOptions plain;
  plain.num_workers = 1;
  QueryService bare(ServiceDataset(), plain);
  EXPECT_EQ(EffectiveMetricsRegistry(&bare), bare.metrics_registry());
  EXPECT_NE(EffectiveMetricsRegistry(&bare), MetricsRegistry::Global());
  EXPECT_EQ(EffectiveFlightRecorder(&bare), nullptr);
}

TEST(ObsServiceTest, FlightRecorderCapturesEveryCompletion) {
  FlightRecorder recorder;
  QueryServiceOptions options;
  options.num_workers = 1;
  options.flight_recorder = &recorder;
  QueryService service(ServiceDataset(), options);

  EXPECT_TRUE(service.Execute(Req("(?X) <- (?X, knows, ?Y)")).status.ok());
  EXPECT_TRUE(service.Execute(Req("(?X) <- (?X, knows, ?Y)")).status.ok());
  EXPECT_TRUE(
      service.Execute(Req("(?X) <- (?X, likes, ?Y)", /*bypass_cache=*/true))
          .status.ok());

  EXPECT_EQ(recorder.recorded_total(), 3u);
  const std::vector<QueryFlightRecord> recent = recorder.Recent();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_STREQ(recent[0].query_class, "EXACT");
  EXPECT_EQ(recent[0].status, StatusCode::kOk);
  // The repeat of the first query served from cache, same canonical key.
  EXPECT_TRUE(recent[1].cache_hit);
  EXPECT_EQ(recent[1].key_hash, recent[0].key_hash);
  EXPECT_NE(recent[0].key_hash, 0u);
  // Cache-bypass requests still get a key hash (recorder needs it even
  // though the cache never saw the request).
  EXPECT_FALSE(recent[2].cache_hit);
  EXPECT_NE(recent[2].key_hash, 0u);
  EXPECT_NE(recent[2].key_hash, recent[0].key_hash);
}

TEST(ObsServiceTest, SwapRecordsAnEventInTheInjectedJournal) {
  EventLog events;
  QueryServiceOptions options;
  options.num_workers = 1;
  options.events = &events;
  std::shared_ptr<const Dataset> initial = Dataset::FromParts(
      MakeGraph({{"a", "knows", "b"}}), std::nullopt);
  std::shared_ptr<const Dataset> next = Dataset::FromParts(
      MakeGraph({{"c", "knows", "d"}}), std::nullopt);
  QueryService service(initial, options);
  ASSERT_TRUE(service.SwapDataset(next).ok());

  bool saw_swap = false;
  for (const LogEvent& event : events.Snapshot()) {
    if (event.component == "service" &&
        event.message.find("dataset swap published") != std::string::npos) {
      saw_swap = true;
    }
  }
  EXPECT_TRUE(saw_swap);
}

// stats() is a view over the registry: after a mixed run (hits, misses,
// bypasses, APPROX, a join, failing RELAX without an ontology) every field
// equals the instruments' change since the service was constructed — on a
// registry an earlier service already counted into.
TEST(ObsServiceTest, StatsEqualRegistryDeltasAfterMixedRun) {
  MetricsRegistry registry;
  QueryServiceOptions options;
  options.num_workers = 2;
  options.metrics = &registry;
  // Index probes would answer the exact conjuncts without evaluator
  // counters; walk them so the eval instruments have work to count.
  options.engine.use_reachability_index = false;
  const std::vector<std::string> classes = {"EXACT", "APPROX", "RELAX",
                                            "MIXED"};
  const std::vector<std::string> per_class_counters = {
      "omega_service_cache_lookups_total", "omega_service_cache_hits_total",
      "omega_service_join_rows_total", "omega_eval_tuples_popped_total",
      "omega_eval_tuples_pushed_total", "omega_eval_succ_expansions_total",
      "omega_eval_neighbor_fetches_total", "omega_eval_answers_emitted_total",
      "omega_eval_seeds_total", "omega_eval_rounds_total"};
  const auto label = [](const std::string& cls) {
    return "class=\"" + cls + "\"";
  };
  const auto run_mix = [](QueryService& service) {
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(service.Execute(Req("(?X) <- (?X, knows, ?Y)")).status.ok());
    }
    EXPECT_TRUE(service
                    .Execute(Req("(?X, ?Z) <- (?X, knows, ?Y), (?Y, likes, ?Z)",
                                 /*bypass_cache=*/true))
                    .status.ok());
    EXPECT_TRUE(service
                    .Execute(Req("(?X) <- APPROX (?X, knows.knows, ?Y)",
                                 /*bypass_cache=*/true))
                    .status.ok());
    // No ontology: RELAX fails in the engine (an "error" completion).
    EXPECT_FALSE(
        service.Execute(Req("(?X) <- RELAX (?X, knows, ?Y)")).status.ok());
  };
  {
    QueryService earlier(ServiceDataset(), options);
    run_mix(earlier);
  }
  std::map<std::string, uint64_t> before;
  const auto counter = [&](const std::string& name,
                           const std::string& labels = "") {
    return registry.GetCounter(name, "", labels)->Value();
  };
  const auto histogram = [&](const std::string& name,
                             const std::string& labels) {
    return registry.GetHistogram(name, "", labels);
  };
  const auto snapshot = [&] {
    std::map<std::string, uint64_t> values;
    for (const char* name :
         {"omega_service_submitted_total", "omega_service_rejected_total",
          "omega_cache_hits_total", "omega_cache_misses_total",
          "omega_cache_insertions_total", "omega_cache_evictions_total"}) {
      values[name] = counter(name);
    }
    for (const std::string& cls : classes) {
      for (const char* status : {"ok", "cancelled", "deadline", "error"}) {
        values["completed " + cls + status] =
            counter("omega_service_completed_total",
                    label(cls) + ",status=\"" + status + "\"");
      }
      for (const std::string& name : per_class_counters) {
        values[name + cls] = counter(name, label(cls));
      }
      values["exec count " + cls] =
          histogram("omega_service_exec_us", label(cls))->Count();
      values["exec sum " + cls] =
          histogram("omega_service_exec_us", label(cls))->Sum();
      values["queue sum " + cls] =
          histogram("omega_service_queue_wait_us", label(cls))->Sum();
    }
    return values;
  };

  QueryService service(ServiceDataset(), options);
  before = snapshot();
  EXPECT_GT(before["omega_service_submitted_total"], 0u);
  run_mix(service);
  std::map<std::string, uint64_t> after = snapshot();
  const auto delta = [&](const std::string& key) {
    return after.at(key) - before.at(key);
  };

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, delta("omega_service_submitted_total"));
  EXPECT_EQ(stats.submitted, 6u);
  EXPECT_EQ(stats.rejected, delta("omega_service_rejected_total"));
  EXPECT_EQ(stats.cache.hits, delta("omega_cache_hits_total"));
  EXPECT_EQ(stats.cache.misses, delta("omega_cache_misses_total"));
  EXPECT_EQ(stats.cache.insertions, delta("omega_cache_insertions_total"));
  EXPECT_EQ(stats.cache.evictions, delta("omega_cache_evictions_total"));
  uint64_t ok = 0, error = 0;
  for (size_t c = 0; c < classes.size(); ++c) {
    const std::string& cls = classes[c];
    const ClassAggregate& agg = stats.per_class[c];
    SCOPED_TRACE(cls);
    uint64_t queries = 0;
    for (const char* status : {"ok", "cancelled", "deadline", "error"}) {
      queries += delta("completed " + cls + status);
    }
    ok += delta("completed " + cls + "ok");
    error += delta("completed " + cls + "error");
    EXPECT_EQ(agg.queries, queries);
    EXPECT_EQ(agg.failures, queries - delta("completed " + cls + "ok"));
    EXPECT_EQ(agg.cache_lookups,
              delta("omega_service_cache_lookups_total" + cls));
    EXPECT_EQ(agg.cache_hits, delta("omega_service_cache_hits_total" + cls));
    EXPECT_EQ(agg.join_rows, delta("omega_service_join_rows_total" + cls));
    EXPECT_EQ(agg.executed, delta("exec count " + cls));
    EXPECT_NEAR(agg.exec_ms, delta("exec sum " + cls) / 1000.0, 1e-6);
    EXPECT_NEAR(agg.queue_ms, delta("queue sum " + cls) / 1000.0, 1e-6);
    EXPECT_EQ(agg.eval.tuples_popped,
              delta("omega_eval_tuples_popped_total" + cls));
    EXPECT_EQ(agg.eval.tuples_pushed,
              delta("omega_eval_tuples_pushed_total" + cls));
    EXPECT_EQ(agg.eval.succ_expansions,
              delta("omega_eval_succ_expansions_total" + cls));
    EXPECT_EQ(agg.eval.neighbor_group_fetches,
              delta("omega_eval_neighbor_fetches_total" + cls));
    EXPECT_EQ(agg.eval.answers_emitted,
              delta("omega_eval_answers_emitted_total" + cls));
    EXPECT_EQ(agg.eval.seeds_added, delta("omega_eval_seeds_total" + cls));
    EXPECT_EQ(agg.eval.rounds, delta("omega_eval_rounds_total" + cls));
    // High-waters are the gauges themselves (a maximum has no delta).
    EXPECT_EQ(agg.eval.max_dictionary_size,
              static_cast<uint64_t>(
                  registry.GetGauge("omega_eval_dict_peak", "", label(cls))
                      ->Value()));
    EXPECT_EQ(agg.eval.max_join_live,
              static_cast<uint64_t>(
                  registry.GetGauge("omega_eval_join_live_peak", "", label(cls))
                      ->Value()));
  }
  EXPECT_EQ(stats.completed, ok);
  EXPECT_EQ(stats.failed, error);
  // The mix did what it claims: hits, an executed APPROX query, a join and
  // a failure all landed in the view.
  const ClassAggregate& exact = stats.per_class[0];
  const ClassAggregate& approx = stats.per_class[1];
  EXPECT_EQ(exact.cache_hits, 2u);
  EXPECT_GT(exact.join_rows, 0u);
  EXPECT_GT(exact.eval.tuples_popped, 0u);
  EXPECT_GT(exact.eval.max_join_live, 0u);
  EXPECT_EQ(approx.executed, 1u);
  EXPECT_GT(approx.eval.max_dictionary_size, 0u);
  EXPECT_EQ(stats.failed, 1u);
}

// The shell's `.admin stop` then `.admin`: a second service counting into
// the registry the first one used reads zero everywhere, exactly like a
// service on a fresh registry, while the registry keeps the first's counts.
TEST(ObsServiceTest, SecondServiceOnReusedRegistryStartsAtZero) {
  MetricsRegistry registry;
  QueryServiceOptions options;
  options.num_workers = 1;
  options.metrics = &registry;
  {
    QueryService first(ServiceDataset(), options);
    EXPECT_TRUE(first.Execute(Req("(?X) <- (?X, knows, ?Y)")).status.ok());
    EXPECT_TRUE(first.Execute(Req("(?X) <- (?X, knows, ?Y)")).cache_hit);
    EXPECT_TRUE(first
                    .Execute(Req("(?X) <- APPROX (?X, knows.knows, ?Y)",
                                 /*bypass_cache=*/true))
                    .status.ok());
    ASSERT_TRUE(first.SwapDataset(ServiceDataset()).ok());
    EXPECT_FALSE(
        first.Execute(Req("(?X) <- RELAX (?X, knows, ?Y)")).status.ok());
  }
  QueryService second(ServiceDataset(), options);
  QueryServiceOptions private_options = options;
  private_options.metrics = nullptr;
  QueryService fresh(ServiceDataset(), private_options);

  const ServiceStats stats = second.stats();
  EXPECT_EQ(stats.ToString(), fresh.stats().ToString());
  EXPECT_EQ(stats.submitted, 0u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.dataset_swaps, 0u);
  EXPECT_EQ(stats.epochs_retired, 0u);
  EXPECT_EQ(stats.epochs_drained, 0u);
  EXPECT_EQ(stats.swap_ms_total, 0.0);
  EXPECT_EQ(stats.drain_ms_total, 0.0);
  EXPECT_EQ(stats.cache.hits, 0u);
  EXPECT_EQ(stats.cache.misses, 0u);
  EXPECT_EQ(stats.cache.insertions, 0u);
  for (const ClassAggregate& agg : stats.per_class) {
    EXPECT_EQ(agg.queries, 0u);
    EXPECT_EQ(agg.executed, 0u);
    EXPECT_EQ(agg.cache_lookups, 0u);
    EXPECT_EQ(agg.queue_ms, 0.0);
    EXPECT_EQ(agg.exec_ms, 0.0);
    EXPECT_EQ(agg.eval.tuples_popped, 0u);
    EXPECT_EQ(agg.eval.max_dictionary_size, 0u);
    EXPECT_EQ(agg.join_rows, 0u);
  }
  EXPECT_EQ(registry.GetCounter("omega_service_submitted_total")->Value(), 4u);
  EXPECT_EQ(registry.GetCounter("omega_service_swaps_total")->Value(), 1u);
}

// A retired epoch pinned by a ticket the client still holds outlives its
// service; its drain is then observed into the service's private registry,
// which the drain tracker keeps alive. Under ASan a registry freed with
// the service fails here.
TEST(ObsServiceTest, EpochPinnedPastItsServiceDrainsSafely) {
  std::shared_ptr<QueryTicket> ticket;
  {
    QueryServiceOptions options;
    options.num_workers = 1;
    QueryService service(ServiceDataset(), options);
    Result<std::shared_ptr<QueryTicket>> submitted =
        service.Submit(Req("(?X) <- (?X, knows, ?Y)", /*bypass_cache=*/true));
    ASSERT_TRUE(submitted.ok());
    ticket = *submitted;
    EXPECT_TRUE(ticket->Wait().status.ok());
    // Epoch 0 is retired but stays pinned by `ticket`.
    ASSERT_TRUE(service.SwapDataset(ServiceDataset()).ok());
    EXPECT_EQ(service.stats().epochs_retired, 1u);
    EXPECT_EQ(service.stats().epochs_drained, 0u);
  }
  EXPECT_EQ(ticket->Wait().epoch, 0u);
  ticket.reset();  // the last pin: epoch 0 drains now
}

// --- Snapshot layer ----------------------------------------------------------

TEST(ObsSnapshotTest, OpenCountsAndMmapBytesGauge) {
  MetricsRegistry* const global = MetricsRegistry::Global();
  Counter* const opens =
      global->GetCounter("omega_snapshot_opens_total", "", "outcome=\"ok\"");
  Gauge* const mapped = global->GetGauge("omega_snapshot_mmap_bytes");
  const uint64_t opens_before = opens->Value();
  const int64_t mapped_before = mapped->Value();

  const std::string path = ::testing::TempDir() + "/obs_metrics.snap";
  const GraphStore graph = MakeGraph({{"a", "r", "b"}, {"b", "r", "c"}});
  ASSERT_TRUE(WriteSnapshot(graph, nullptr, path).ok());
  {
    Result<std::shared_ptr<const Dataset>> dataset =
        SnapshotReader::Open(path);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    EXPECT_EQ(opens->Value(), opens_before + 1);
    EXPECT_GT(mapped->Value(), mapped_before);
  }
  // Dropping the dataset unmaps the file and returns the gauge.
  EXPECT_EQ(mapped->Value(), mapped_before);
}

// --- Clock discipline --------------------------------------------------------

TEST(ObsTimerTest, TimerIsMonotonic) {
  // The steady-clock contract itself is a static_assert in common/timer.h;
  // this is just the runtime sanity half.
  const Timer timer;
  const double first = timer.ElapsedUs();
  const double second = timer.ElapsedUs();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(second, first);
}

}  // namespace
}  // namespace omega
