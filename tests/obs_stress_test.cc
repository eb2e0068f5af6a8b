// Observability concurrency stress: client threads fire mixed queries
// (some carrying per-request TraceRecorders) at a QueryService with a
// private MetricsRegistry while one thread hammers SwapDataset and another
// continuously polls RenderText() and stats() — every shared counter,
// gauge, histogram cell, trace span vector, and the epoch drain tracker is
// exercised under full concurrency. This is the ThreadSanitizer gate for
// the obs layer: a torn histogram bucket, an unguarded span append, or a
// drain-tracker race shows up here. At the end the registry's monotonic
// totals must reconcile exactly with what the clients did.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/admin_server.h"
#include "net/ops_routes.h"
#include "obs/event_log.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpq/query_parser.h"
#include "service/query_service.h"
#include "test_util.h"

namespace omega {
namespace {

using omega::testing::CompletedTotal;
using omega::testing::Qy;

GraphStore StressGraph(uint64_t seed) {
  GraphBuilder builder;
  Rng rng(seed);
  constexpr size_t kPeople = 50;
  constexpr size_t kOrgs = 10;
  std::vector<std::string> people, orgs;
  for (size_t i = 0; i < kPeople; ++i) {
    people.push_back("p" + std::to_string(i));
  }
  for (size_t i = 0; i < kOrgs; ++i) {
    orgs.push_back("o" + std::to_string(i));
  }
  for (size_t i = 0; i < kPeople; ++i) {
    (void)builder.AddEdge(people[i], "knows",
                          people[rng.NextBounded(kPeople)]);
    (void)builder.AddEdge(people[i], "knows",
                          people[rng.NextBounded(kPeople)]);
    (void)builder.AddEdge(people[i], "worksAt", orgs[rng.NextBounded(kOrgs)]);
  }
  return std::move(builder).Finalize();
}

TEST(ObsStressTest, MetricsTracesAndSwapsUnderConcurrency) {
  std::shared_ptr<const Dataset> dataset_a =
      Dataset::FromParts(StressGraph(11), std::nullopt);
  std::shared_ptr<const Dataset> dataset_b =
      Dataset::FromParts(StressGraph(23), std::nullopt);

  std::vector<Query> workload;
  for (const char* text : {
           "(?X) <- (?X, knows, ?Y)",
           "(?X, ?Z) <- (?X, knows, ?Y), (?Y, knows, ?Z)",
           "(?X) <- APPROX (?X, knows.worksAt, ?Y)",
           "(?X, ?O) <- (?X, knows, ?Y), (?Y, worksAt, ?O)",
       }) {
    workload.push_back(Qy(text));
  }

  MetricsRegistry registry;
  QueryServiceOptions options;
  options.num_workers = 4;
  options.max_queue = 512;
  options.metrics = &registry;
  QueryService service(dataset_a, options);

  constexpr size_t kClients = 6;
  constexpr size_t kRequestsPerClient = 25;
  constexpr size_t kSwaps = 30;
  std::atomic<size_t> ok{0}, failures{0}, traced_sends{0};
  std::atomic<size_t> spans_seen{0};
  std::atomic<bool> stop_poller{false};

  // Swap storm: epoch retire/drain accounting races query pins.
  std::thread swapper([&] {
    for (size_t s = 0; s < kSwaps; ++s) {
      EXPECT_TRUE(
          service.SwapDataset(s % 2 == 0 ? dataset_b : dataset_a).ok());
      std::this_thread::yield();
    }
  });

  // Metrics poller: renders the full exposition and samples stats() while
  // every instrument is being written.
  std::thread poller([&] {
    size_t renders = 0;
    while (!stop_poller.load(std::memory_order_acquire)) {
      const std::string text = registry.RenderText();
      EXPECT_NE(text.find("omega_service_submitted_total"),
                std::string::npos);
      const ServiceStats stats = service.stats();
      EXPECT_LE(stats.epochs_drained, stats.epochs_retired);
      ++renders;
      std::this_thread::yield();
    }
    EXPECT_GT(renders, 0u);
  });

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t r = 0; r < kRequestsPerClient; ++r) {
        QueryRequest request;
        request.query = Clone(workload[(c * 3 + r) % workload.size()]);
        request.top_k = 10;
        request.bypass_cache = (c + r) % 3 == 0;
        // Every other request is traced: span appends from the client
        // thread (epoch_pin, cache_lookup) race the worker's (queue_wait,
        // execute, operator totals) on the same recorder.
        std::unique_ptr<TraceRecorder> trace;
        if ((c + r) % 2 == 0) {
          trace = std::make_unique<TraceRecorder>();
          ++traced_sends;
        }
        request.trace = trace.get();
        const QueryResponse response = service.Execute(std::move(request));
        if (response.status.ok()) {
          ++ok;
        } else {
          ++failures;
        }
        if (trace != nullptr) {
          const size_t spans = trace->NumSpans();
          EXPECT_GE(spans, 2u);  // at least epoch_pin + one service span
          spans_seen.fetch_add(spans);
          EXPECT_NE(trace->ToJson().find("\"spans\":["), std::string::npos);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  swapper.join();
  stop_poller.store(true, std::memory_order_release);
  poller.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(ok.load(), kClients * kRequestsPerClient);
  EXPECT_GT(spans_seen.load(), traced_sends.load());

  // Reconciliation: the registry's monotonic totals equal what the clients
  // actually did, and agree with the ServiceStats view over them.
  const ServiceStats stats = service.stats();
  const uint64_t total = kClients * kRequestsPerClient;
  EXPECT_EQ(registry.GetCounter("omega_service_submitted_total")->Value(),
            total);
  const uint64_t completed_total =
      CompletedTotal(registry, "ok") + CompletedTotal(registry, "cancelled") +
      CompletedTotal(registry, "deadline") + CompletedTotal(registry, "error");
  EXPECT_EQ(completed_total, total);
  EXPECT_EQ(stats.submitted, total);
  EXPECT_EQ(registry.GetCounter("omega_service_swaps_total")->Value(), kSwaps);
  EXPECT_EQ(stats.dataset_swaps, kSwaps);
  EXPECT_EQ(stats.epochs_retired, kSwaps);
  // Per-class execution observations match the executed (non-hit) count.
  uint64_t exec_observed = 0;
  for (const char* cls :
       {"class=\"EXACT\"", "class=\"APPROX\"", "class=\"RELAX\"",
        "class=\"MIXED\""}) {
    exec_observed +=
        registry.GetHistogram("omega_service_exec_us", "", cls)->Count();
  }
  uint64_t executed = 0;
  for (const ClassAggregate& agg : stats.per_class) executed += agg.executed;
  EXPECT_EQ(exec_observed, executed);
  // Cache totals: every non-bypass submission probed its epoch's cache at
  // Submit and counted a hit or a miss (worker re-probes may add further
  // hits, never misses), so the monotonic totals bound the probe count
  // from below.
  size_t non_bypass = 0;
  for (size_t c = 0; c < kClients; ++c) {
    for (size_t r = 0; r < kRequestsPerClient; ++r) {
      if ((c + r) % 3 != 0) ++non_bypass;
    }
  }
  EXPECT_GE(registry.GetCounter("omega_cache_hits_total")->Value() +
                registry.GetCounter("omega_cache_misses_total")->Value(),
            non_bypass);
  EXPECT_GT(registry.GetCounter("omega_cache_misses_total")->Value(), 0u);

  // All retired epochs eventually drain once the tickets are gone.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (service.stats().epochs_drained < kSwaps &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(service.stats().epochs_drained, kSwaps);
  EXPECT_EQ(registry.GetHistogram("omega_service_epoch_drain_us")->Count(),
            kSwaps);
}

/// Blocking loopback GET returning the full raw response (the admin server
/// closes the connection after each request).
std::string ScrapeOnce(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string reply;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    reply.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return reply;
}

// The ops-plane TSan gate: real HTTP scrapes of /metrics, /tracez, /statusz
// and /eventz hammer the admin server while client threads (half traced)
// drive the service, a swap storm retires 30 epochs, and the flight
// recorder ingests every completion. Exercises every cross-thread seam the
// admin plane adds: handler-pool dispatch, lock-free route reads, registry
// renders racing instrument writes, flight-recorder ring appends racing
// ToJson copies, and event-journal appends racing /eventz renders.
TEST(ObsStressTest, ScrapeHammerDuringSwapStorm) {
  std::shared_ptr<const Dataset> dataset_a =
      Dataset::FromParts(StressGraph(31), std::nullopt);
  std::shared_ptr<const Dataset> dataset_b =
      Dataset::FromParts(StressGraph(47), std::nullopt);

  std::vector<Query> workload;
  for (const char* text : {
           "(?X) <- (?X, knows, ?Y)",
           "(?X, ?O) <- (?X, knows, ?Y), (?Y, worksAt, ?O)",
       }) {
    workload.push_back(Qy(text));
  }

  MetricsRegistry registry;
  FlightRecorderOptions recorder_options;
  recorder_options.slow_threshold_us = 0;  // everything lands in the
                                           // reservoir: max contention
  FlightRecorder recorder(recorder_options);
  EventLog events;

  QueryServiceOptions options;
  options.num_workers = 4;
  options.max_queue = 512;
  options.metrics = &registry;
  options.flight_recorder = &recorder;
  options.events = &events;
  QueryService service(dataset_a, options);

  AdminServerOptions server_options;
  server_options.num_handlers = 3;
  server_options.metrics = &registry;
  AdminServer server(server_options);
  OpsPlaneOptions ops;
  ops.metrics = &registry;
  ops.recorder = &recorder;
  ops.events = &events;
  ops.service = &service;
  RegisterOpsRoutes(&server, ops);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  constexpr size_t kClients = 4;
  constexpr size_t kRequestsPerClient = 25;
  constexpr size_t kSwaps = 30;
  constexpr size_t kScrapers = 3;
  std::atomic<size_t> ok{0}, failures{0}, scrapes{0}, scrape_failures{0};
  std::atomic<bool> stop_scrapers{false};

  std::thread swapper([&] {
    for (size_t s = 0; s < kSwaps; ++s) {
      EXPECT_TRUE(
          service.SwapDataset(s % 2 == 0 ? dataset_b : dataset_a).ok());
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> scrapers;
  for (size_t s = 0; s < kScrapers; ++s) {
    scrapers.emplace_back([&, s] {
      const char* paths[] = {"/metrics", "/tracez", "/statusz", "/eventz"};
      size_t i = s;  // offset so the scrapers interleave paths
      while (!stop_scrapers.load(std::memory_order_acquire)) {
        const std::string reply = ScrapeOnce(port, paths[i++ % 4]);
        if (reply.find("HTTP/1.1 200 OK") != std::string::npos) {
          ++scrapes;
        } else {
          ++scrape_failures;
        }
      }
    });
  }

  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t r = 0; r < kRequestsPerClient; ++r) {
        QueryRequest request;
        request.query = Clone(workload[(c + r) % workload.size()]);
        request.top_k = 10;
        request.bypass_cache = (c + r) % 3 == 0;
        std::unique_ptr<TraceRecorder> trace;
        if ((c + r) % 2 == 0) trace = std::make_unique<TraceRecorder>();
        request.trace = trace.get();
        if (service.Execute(std::move(request)).status.ok()) {
          ++ok;
        } else {
          ++failures;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  swapper.join();
  // Keep scraping a moment after the storm so renders also race the
  // post-storm drain events, then stop.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop_scrapers.store(true, std::memory_order_release);
  for (std::thread& scraper : scrapers) scraper.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(ok.load(), kClients * kRequestsPerClient);
  EXPECT_GT(scrapes.load(), 0u);
  EXPECT_EQ(scrape_failures.load(), 0u);
  EXPECT_EQ(recorder.recorded_total(), kClients * kRequestsPerClient);
  EXPECT_EQ(recorder.slow_total(), kClients * kRequestsPerClient);
  EXPECT_GE(events.recorded_total(), kSwaps);  // one event per swap at least

  // A final scrape after the dust settles renders consistent bodies.
  const std::string metrics = ScrapeOnce(port, "/metrics");
  EXPECT_NE(metrics.find("omega_service_submitted_total"),
            std::string::npos);
  EXPECT_NE(metrics.find("omega_admin_requests_total"), std::string::npos);
  const std::string tracez = ScrapeOnce(port, "/tracez");
  EXPECT_NE(tracez.find("\"recent\":["), std::string::npos);
  const std::string eventz = ScrapeOnce(port, "/eventz");
  EXPECT_NE(eventz.find("dataset swap published"), std::string::npos);

  server.Shutdown();
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace omega
