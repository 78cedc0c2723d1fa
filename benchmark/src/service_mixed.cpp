// The service-mixed workload: an in-process service::Server (threads=2,
// every other setting at its default except a cache budget below the run's
// distinct-chunk footprint) driven by two closed-loop clients. Each client
// opens a fresh connection per request, as rsbctl does.
//
//  * The interactive client cycles through cold 1024-run requests on fresh
//    seed ranges, warm replays of the hot set primed during setup, a
//    periodic `stats` op and a known-invalid spec that must draw its named
//    reject.
//  * The bulk client sends `|`-grid sweeps over two protocols whose seed
//    ranges overlap the hot set and each other, so cache hits, cache writes
//    and LRU evictions all happen in one run.
//
// Rows are checked against service::reference_rows computed on a fresh
// Engine after the timed window: every warm replay byte for byte against
// the hot set's first answer, every bulk request and every eighth cold one
// through a 64-bit hash of each row (the rows themselves would grow the
// benchmark's memory with the run).
#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common.hpp"
#include "engine/engine.hpp"
#include "host_speed.hpp"
#include "service/canonical.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "service/rows.hpp"
#include "service/server.hpp"
#include "workloads.hpp"

namespace rsbbench {

using rsb::service::json::Value;

Reply submit(int port, const std::string& text, Tracer& tracer,
             std::uint64_t request) {
  Reply reply;
  rsb::service::Client client;
  client.connect(port);
  Span root(tracer, "client.request", -1, request);
  reply.sent = now_ns();
  client.send_line(rsb::service::submit_request(text));
  while (auto line = client.read_line()) {
    const std::int64_t parse_start = now_ns();
    const Value message = Value::parse(*line);
    tracer.record("client.parse", parse_start, now_ns(), root.index(), request);
    const Value* type_member = message.find("type");
    if (type_member == nullptr || !type_member->is_string()) {
      reply.error = "response without a type: " + *line;
      return reply;
    }
    const std::string& type = type_member->as_string();
    if (type == "accepted") {
      reply.accepted = now_ns();
      tracer.record("service.accept", reply.sent, reply.accepted, root.index(),
                    request);
    } else if (type == "row") {
      if (reply.rows.empty()) {
        reply.first_row = now_ns();
        tracer.record("service.first_row", reply.accepted, reply.first_row,
                      root.index(), request);
      }
      const std::size_t at = line->find(",\"row\":");
      const Value* row = message.find("row");
      const Value* runs = row != nullptr ? row->find("runs") : nullptr;
      if (at == std::string::npos || runs == nullptr) {
        reply.error = "row without a payload: " + *line;
        return reply;
      }
      reply.rows.push_back(line->substr(at + 7, line->size() - at - 8));
      reply.runs += runs->as_uint();
    } else if (type == "done") {
      reply.done = now_ns();
      const Value* summary = message.find("summary");
      const Value* terminated = summary ? summary->find("terminated") : nullptr;
      const Value* rounds = summary ? summary->find("total_rounds") : nullptr;
      if (terminated == nullptr || rounds == nullptr) {
        reply.error = "done without a summary: " + *line;
        return reply;
      }
      reply.terminated = terminated->as_uint();
      reply.total_rounds = rounds->as_uint();
      return reply;
    } else {
      const Value* reason = message.find("reason");
      reply.error = reason != nullptr ? reason->as_string() : *line;
      return reply;
    }
  }
  reply.error = "connection closed before done";
  return reply;
}

namespace {

constexpr int kSetupRepeats = 5;
constexpr std::uint64_t kColdRuns = 1024;
constexpr std::uint64_t kBulkRuns = 4096;       // per grid point
constexpr std::uint64_t kBulkStride = 256;      // consecutive sweeps overlap
constexpr std::uint64_t kBulkSlots = 64;        // then wrap around
constexpr std::uint64_t kColdCheckEvery = 8;
constexpr std::uint64_t kCacheBytes = 160 << 10;  // ~300 chunk rows
constexpr double kTraceSliceS = 0.5;
constexpr double kRateWindowS = 2.0;
constexpr char kInvalidSpec[] =
    "loads=1,1,1,1\nprotocol=wait-for-singleton-LE\ntopology=ring\n"
    "seeds=1+16\n";
constexpr char kInvalidReason[] = "topology-requires-message-passing";

std::vector<std::uint64_t> row_hashes(const std::vector<std::string>& rows) {
  std::vector<std::uint64_t> out;
  for (const std::string& row : rows) out.push_back(std::hash<std::string>{}(row));
  return out;
}

/// service::reference_rows one chunk at a time, memoized per (spec, chunk):
/// the bulk client's sweeps overlap, so most chunks recur.
class Reference {
 public:
  /// Hashes of the rows a request must draw: every point's chunks, in order.
  std::vector<std::uint64_t> hashes_for(const std::string& text) {
    std::vector<std::uint64_t> out;
    for (const auto& point : rsb::service::expand_request(text)) {
      const std::string identity = point.spec.canonical_text();
      for (const rsb::SeedRange chunk : rsb::service::chunk_plan(point.spec.seeds)) {
        auto [it, fresh] = memo_.try_emplace({identity, chunk.first, chunk.count}, 0);
        if (fresh) {
          rsb::service::CanonicalSpec one = point.spec;
          one.seeds = chunk;
          it->second = row_hashes(rsb::service::reference_rows(engine_, one))[0];
        }
        out.push_back(it->second);
      }
    }
    return out;
  }

 private:
  rsb::Engine engine_;
  std::map<std::tuple<std::string, std::uint64_t, std::uint64_t>, std::uint64_t> memo_;
};

std::size_t expected_row_count(const std::string& text) {
  std::size_t rows = 0;
  for (const auto& point : rsb::service::expand_request(text)) {
    rows += rsb::service::chunk_plan(point.spec.seeds).size();
  }
  return rows;
}

/// Shared tally of both client threads.
struct Tally {
  std::mutex mutex;
  Result* result = nullptr;
  std::vector<Timed> cold_ms, warm_ms;
  std::vector<std::pair<std::string, std::vector<std::uint64_t>>> to_check;
  std::uint64_t terminated = 0, runs = 0, total_rounds = 0;
  double slice_ns[2] = {0, 0};
  double slice_ops[2] = {0, 0};

  void fail(const std::string& why) {
    std::lock_guard<std::mutex> lock(mutex);
    result->fail(why);
  }
};

struct Daemon {
  std::unique_ptr<rsb::service::Server> server;
  std::vector<std::string> hot_texts;
  std::vector<std::vector<std::string>> hot_rows;
};

/// Starts a server and primes the hot set: two 1024-run requests per spec.
void set_up(Daemon& s, const std::vector<SpecCase>& specs, std::uint64_t base,
            Tracer& tracer) {
  if (s.server) s.server->stop();
  s.server = std::make_unique<rsb::service::Server>(
      rsb::service::ServerConfig{.threads = 2, .cache_bytes = kCacheBytes});
  s.server->start();
  s.hot_texts.clear();
  s.hot_rows.clear();
  for (std::uint64_t round = 0; round < 2; ++round) {
    for (const SpecCase& spec : specs) {
      s.hot_texts.push_back(with_seeds(
          spec.text, rsb::SeedRange::of(base + round * kColdRuns, kColdRuns)));
      s.hot_rows.push_back(
          submit(s.server->port(), s.hot_texts.back(), tracer, 0).rows);
    }
  }
}

}  // namespace

Result run_service_mixed(const Options& options) {
  Result result;
  Tracer tracer;
  const std::uint64_t base = seed_base(options.seed);
  const std::uint64_t cold_base = base + (1ULL << 31);
  const std::vector<SpecCase> specs = service_cases();
  const std::string bulk_head =
      "loads=1,1,1,1,1,1\n"
      "protocol=wait-for-singleton-LE|blackboard-unique-string-LE\n"
      "task=leader-election\n";

  Daemon s;
  std::vector<double> setup_s, raw_setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double kernel_ms = HostSpeed::measure_ms(5);
    const std::int64_t t0 = now_ns();
    set_up(s, specs, base, tracer);
    raw_setup_s.push_back((now_ns() - t0) / 1e9);
    setup_s.push_back(raw_setup_s.back() * HostSpeed::kReferenceMs / kernel_ms);
  }
  const int port = s.server->port();
  const rsb::service::ServerStats stats_before = s.server->stats();
  const int fds_before = open_fd_count();

  Tally tally;
  tally.result = &result;
  const double cpu_start = process_cpu_s();
  const std::int64_t start = now_ns();
  const std::int64_t end =
      start + static_cast<std::int64_t>(options.seconds * 1e9);
  RateWindows runs_windows(start, kRateWindowS), rows_windows(start, kRateWindowS);
  HostSpeed host(start, 2);
  const auto traced_slice = [&](std::int64_t at) {
    return options.trace &&
           static_cast<std::int64_t>((at - start) / (kTraceSliceS * 1e9)) % 2 == 1;
  };

  // Checks a finished submit and folds it into the tally.
  const auto account = [&](const std::string& text, const Reply& reply,
                           bool bulk, bool keep_rows,
                           const std::vector<std::string>* expected) {
    std::string problem;
    if (!reply.error.empty()) {
      problem = "rejected: " + reply.error;
    } else if (reply.rows.size() != expected_row_count(text)) {
      problem = "got " + std::to_string(reply.rows.size()) + " rows, want " +
                std::to_string(expected_row_count(text));
    } else if (expected != nullptr && reply.rows != *expected) {
      problem = "warm replay rows differ from the first answer";
    }
    std::lock_guard<std::mutex> lock(tally.mutex);
    ++result.attempted;
    if (!problem.empty()) {
      result.fail(problem + " (" + text.substr(0, 60) + "...)");
      return;
    }
    runs_windows.add(reply.done, static_cast<double>(reply.runs));
    if (bulk) rows_windows.add(reply.done, static_cast<double>(reply.rows.size()));
    tally.runs += reply.runs;
    tally.terminated += reply.terminated;
    tally.total_rounds += reply.total_rounds;
    if (keep_rows) tally.to_check.emplace_back(text, row_hashes(reply.rows));
  };

  std::thread bulk([&] {
    for (std::uint64_t j = 0; now_ns() < end; ++j) {
      const std::string text = with_seeds(
          bulk_head,
          rsb::SeedRange::of(base + (j % kBulkSlots) * kBulkStride, kBulkRuns));
      try {
        const Reply reply = submit(port, text, tracer, (1ULL << 40) + j);
        account(text, reply, true, true, nullptr);
      } catch (const std::exception& e) {
        tally.fail(std::string("bulk request failed: ") + e.what());
      }
    }
  });

  std::uint64_t cold = 0, warm = 0;
  for (std::uint64_t k = 0; now_ns() < end; ++k) {
    host.maybe_sample(now_ns());
    const std::int64_t op_start = now_ns();
    const bool traced = traced_slice(op_start);
    tracer.set_enabled(traced);
    try {
      if (k % 16 == 7) {
        rsb::service::Client client;
        client.connect(port);
        const Value stats = Value::parse(client.request("{\"op\":\"stats\"}"));
        const Value* type = stats.find("type");
        std::lock_guard<std::mutex> lock(tally.mutex);
        ++result.attempted;
        if (type == nullptr || !type->is_string() || type->as_string() != "stats" ||
            stats.find("cache") == nullptr) {
          result.fail("stats op answered without its counters");
        }
      } else if (k % 16 == 15) {
        const Reply reply = submit(port, kInvalidSpec, tracer, k);
        std::lock_guard<std::mutex> lock(tally.mutex);
        ++result.attempted;
        if (reply.error.find(kInvalidReason) == std::string::npos) {
          result.fail("invalid spec drew '" + reply.error + "', want the " +
                      kInvalidReason + " reject");
        }
      } else if (k % 2 == 0) {
        const SpecCase& spec = specs[cold % specs.size()];
        const std::string text = with_seeds(
            spec.text, rsb::SeedRange::of(cold_base + cold * kColdRuns, kColdRuns));
        const Reply reply = submit(port, text, tracer, k);
        account(text, reply, false, cold % kColdCheckEvery == 0, nullptr);
        std::lock_guard<std::mutex> lock(tally.mutex);
        tally.cold_ms.push_back({reply.done, (reply.done - reply.sent) / 1e6});
        tally.slice_ns[traced] += static_cast<double>(reply.done - reply.sent);
        tally.slice_ops[traced] += 1;
        ++cold;
      } else {
        const std::size_t h = warm % s.hot_texts.size();
        const Reply reply = submit(port, s.hot_texts[h], tracer, k);
        account(s.hot_texts[h], reply, false, false, &s.hot_rows[h]);
        std::lock_guard<std::mutex> lock(tally.mutex);
        tally.warm_ms.push_back({reply.done, (reply.done - reply.sent) / 1e6});
        ++warm;
      }
    } catch (const std::exception& e) {
      tally.fail(std::string("interactive request failed: ") + e.what());
    }
  }
  bulk.join();
  tracer.set_enabled(false);
  const double cpu_s = process_cpu_s() - cpu_start;
  const int fd_growth = open_fd_count() - fds_before;
  const rsb::service::ServerStats stats = s.server->stats();
  s.server->stop();

  // --- byte-identity against the in-process reference ---------------------
  for (std::size_t h = 0; h < s.hot_texts.size(); ++h) {
    tally.to_check.emplace_back(s.hot_texts[h], row_hashes(s.hot_rows[h]));
  }
  Reference reference;
  for (const auto& [text, hashes] : tally.to_check) {
    if (hashes != reference.hashes_for(text)) {
      result.fail("rows differ from service::reference_rows (" +
                  text.substr(0, 60) + "...)");
    }
  }
  std::printf("# service-mixed: %zu cold and %zu warm requests, %zu row sets "
              "checked against reference_rows, %d fds leaked\n",
              tally.cold_ms.size(), tally.warm_ms.size(), tally.to_check.size(),
              fd_growth);

  std::printf("# raw (not host-scaled): setup_s %.6f runs_per_s %.1f "
              "rows_per_s %.1f cold_p50_ms %.4f warm_p50_ms %.4f; calibration "
              "kernel %.4f ms\n",
              median(raw_setup_s), runs_windows.median_rate(),
              rows_windows.median_rate(),
              percentile(durations(tally.cold_ms, nullptr), 0.50),
              percentile(durations(tally.warm_ms, nullptr), 0.50), host.median_ms());

  if (!options.trace) {
    result.set("setup_s", median(setup_s));
    result.set("peak_rss_mb", peak_rss_mb());
    result.set("runs_per_s", runs_windows.median_rate(&host));
    result.set("rows_per_s", rows_windows.median_rate(&host));
    const std::vector<double> cold = durations(tally.cold_ms, &host);
    const std::vector<double> warm = durations(tally.warm_ms, &host);
    result.set("cold_p50_ms", percentile(cold, 0.50));
    result.set("cold_p90_ms", percentile(cold, 0.90));
    result.set("warm_p50_ms", percentile(warm, 0.50));
    result.set("warm_p75_ms", percentile(warm, 0.75));
    return result;
  }
  result.set("host.calibration_ms", host.median_ms());

  // --- per-layer metrics --------------------------------------------------
  const auto ratio = [](std::uint64_t part, std::uint64_t whole) {
    return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
  };
  const std::uint64_t executed = stats.runs_executed - stats_before.runs_executed;
  const std::uint64_t cached = stats.runs_cached - stats_before.runs_cached;
  result.set("samples.cold", static_cast<double>(cold));
  result.set("samples.warm", static_cast<double>(warm));
  result.set("engine.runs_per_cpu_s", static_cast<double>(executed) / cpu_s);
  result.set("engine.rounds_per_run", ratio(tally.total_rounds, tally.terminated));
  result.set("engine.terminated_ratio", ratio(tally.terminated, tally.runs));
  result.set("engine.orbit_hit_ratio",
             ratio(stats.orbit_hits - stats_before.orbit_hits, executed));
  result.set("service.cache_hit_ratio",
             ratio(stats.cache.hits - stats_before.cache.hits,
                   stats.cache.hits + stats.cache.misses -
                       stats_before.cache.hits - stats_before.cache.misses));
  result.set("service.cache_evictions",
             static_cast<double>(stats.cache.evictions - stats_before.cache.evictions));
  result.set("service.runs_cached_ratio", ratio(cached, cached + executed));
  result.set("service.runs_deduped",
             static_cast<double>(stats.runs_deduped - stats_before.runs_deduped));
  result.set("service.jobs_rejected",
             static_cast<double>(stats.jobs_rejected - stats_before.jobs_rejected));
  result.set("server.fd_growth", fd_growth);
  if (tally.slice_ops[0] > 0 && tally.slice_ops[1] > 0) {
    result.set("trace.overhead_share",
               (tally.slice_ns[1] / tally.slice_ops[1]) /
                       (tally.slice_ns[0] / tally.slice_ops[0]) - 1);
  }
  result.set("service.accept_ms", median(tracer.durations_ms("service.accept")));
  result.set("service.first_row_ms",
             median(tracer.durations_ms("service.first_row")));
  const auto spans = tracer.totals();
  if (const auto it = spans.find("client.parse"); it != spans.end()) {
    result.set("service.client_parse_ns",
               static_cast<double>(it->second.total_ns) /
                   static_cast<double>(it->second.count));
  }

  // Replays outside the loop: run_chunk on an engine configured like the
  // server's, and the knowledge layers on runs sampled from the hot set.
  tracer.set_enabled(true);
  rsb::Engine chunk_engine;
  rsb::ParallelConfig parallel;
  parallel.threads = 2;
  parallel.orbit = true;
  chunk_engine.set_parallel(parallel);
  std::vector<std::pair<rsb::Experiment, std::vector<SampledRun>>> sampled;
  std::vector<std::string> texts;
  double chunk_ns = 0, engine_ns_per_run = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const rsb::SeedRange range =
        rsb::SeedRange::of(cold_base + i * kColdRuns, kColdRuns);
    const std::string text = with_seeds(specs[i].text, range);
    const rsb::Experiment spec = to_experiment(text);
    const std::int64_t t0 = now_ns();
    for (const rsb::SeedRange chunk : rsb::service::chunk_plan(range)) {
      rsb::service::run_chunk(chunk_engine, spec, chunk);
    }
    const double ns = static_cast<double>(now_ns() - t0);
    tracer.record("service.chunk_exec", t0, t0 + static_cast<std::int64_t>(ns), -1, 0);
    const double chunks = static_cast<double>(rsb::service::chunk_plan(range).size());
    chunk_ns += ns / chunks / static_cast<double>(specs.size());
    result.set("engine.ns_per_run." + specs[i].name, ns / kColdRuns);
    engine_ns_per_run += ns / kColdRuns / static_cast<double>(specs.size());
    sampled.emplace_back(spec, sample_runs(spec, range.first, 256));
    texts.push_back(text);
  }
  texts.push_back(with_seeds(bulk_head, rsb::SeedRange::of(base, kBulkRuns)));
  result.set("service.chunk_exec_ns", chunk_ns);
  result.set("knowledge.store_high_water",
             static_cast<double>(chunk_engine.store_high_water()));
  replay_knowledge_layers(sampled, engine_ns_per_run, tracer, result);
  replay_parse_expand(texts, tracer, result);
  return result;
}

}  // namespace rsbbench
