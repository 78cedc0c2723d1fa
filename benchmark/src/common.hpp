// Shared pieces of the benchmark: the metric names it reports, the
// workload inputs it generates from the seed, the result line it prints,
// and small process probes (peak RSS, open fds, CPU time).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "engine/experiment.hpp"
#include "model/port_assignment.hpp"
#include "trace.hpp"

namespace rsbbench {

class HostSpeed;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

/// What a workload hands back to main: the correctness tally and every
/// metric it measured, keyed by name (units live in the metric lists).
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // one line per failed check
  std::map<std::string, double> metrics;

  void fail(const std::string& why) {
    ++failed;
    if (problems.size() < 20) problems.push_back(why);
  }
  void set(const std::string& name, double value) { metrics[name] = value; }
};

/// Metric names and units, in report order. End-to-end metrics are printed
/// by untraced runs, per-layer ones by traced runs; every workload prints
/// every name, and a layer the workload bypasses reads 0.
struct MetricName {
  const char* name;
  const char* unit;
};
const std::vector<MetricName>& end_to_end_metrics();
const std::vector<MetricName>& per_layer_metrics();

/// A canonical spec, as text without the `seeds` key, plus the in-process
/// request size for it. The benchmark derives every input from these texts;
/// the program under test only ever sees them through CanonicalSpec.
struct SpecCase {
  std::string name;  // e.g. "bb-le-n6"
  std::string text;  // canonical key=value lines, no seeds
  std::uint64_t runs_per_request = 0;
  /// Checked on every request: wait-for-singleton LE without faults must
  /// elect a leader in every run; graph tasks must judge every terminated
  /// run valid.
  enum class Invariant { kNone, kEveryRunSucceeds, kTerminatedRunsValid };
  Invariant invariant = Invariant::kNone;
};

/// The five knowledge-backend specs of knowledge-sweep (and the three the
/// service workload sends), the four agent specs of graph-agents.
std::vector<SpecCase> knowledge_cases();
std::vector<SpecCase> agent_cases(std::uint64_t seed);
/// The knowledge specs service-mixed sends: bb-le-n6 (literal orbit path),
/// bb-uniq-n6 (full-group orbit path) and mp-le-n5.
std::vector<SpecCase> service_cases();

/// First seed of the workload's seed space: every range a workload uses is
/// an offset from it, so different benchmark seeds sweep disjoint runs.
std::uint64_t seed_base(std::uint64_t seed);

/// `text` plus a seeds=first+count line.
std::string with_seeds(const std::string& text, rsb::SeedRange range);

/// Parses a spec text (with seeds) into the runnable Experiment through
/// the service's canonical parser.
rsb::Experiment to_experiment(const std::string& text_with_seeds);

/// Checks a request's aggregate against the case's invariant; returns an
/// empty string when it holds.
std::string check_invariant(const SpecCase& c, const rsb::RunStats& stats);

// --- statistics --------------------------------------------------------

double median(std::vector<double> values);
/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> values, double q);

/// A latency sample: when it completed and how long it took.
struct Timed {
  std::int64_t at_ns = 0;
  double ms = 0;
};
/// The samples' durations, each scaled to the reference host when `host`
/// is set.
std::vector<double> durations(const std::vector<Timed>& samples,
                              const HostSpeed* host);

/// Completions bucketed into fixed windows of the measured interval. A
/// window's rate is the amount completed after its first completion divided
/// by the time from its first completion to its last, so it does not round
/// to whole completions per window; the throughput metrics report the
/// median window rate, which a stall in one window moves less than a mean.
class RateWindows {
 public:
  RateWindows(std::int64_t start_ns, double window_s)
      : start_(start_ns), window_ns_(static_cast<std::int64_t>(window_s * 1e9)) {}
  void add(std::int64_t at_ns, double amount);
  /// Median rate per second over the windows with two or more completions;
  /// each window's rate is scaled to the reference host when `host` is set.
  double median_rate(const HostSpeed* host = nullptr) const;

 private:
  struct Window {
    std::int64_t first = 0, last = 0;
    double amount_after_first = 0;
    int completions = 0;
  };
  std::int64_t start_;
  std::int64_t window_ns_;
  std::vector<Window> windows_;
};

// --- process probes ----------------------------------------------------

double peak_rss_mb();
int open_fd_count();
/// User plus system CPU seconds of the whole process.
double process_cpu_s();

// --- layer replays -------------------------------------------------------

/// Per-run inputs recorded from a real sweep, so the layer replays in a
/// traced run repeat exactly the runs the engine executed.
struct SampledRun {
  std::uint64_t seed = 0;
  std::optional<rsb::PortAssignment> ports;
  rsb::ProtocolOutcome outcome;
};

/// Sweeps `count` runs of `spec` from `first` on a fresh serial Engine and
/// records their inputs and outcomes.
std::vector<SampledRun> sample_runs(const rsb::Experiment& spec,
                                    std::uint64_t first, std::uint64_t count);

/// Replays the knowledge-backend layers (randomness, model round, decide,
/// task judge, port draw, collector) on the sampled runs of each spec and
/// sets their per-layer metrics. `engine_ns_per_run` is the engine's own
/// cost per run over the same specs, the denominator of replay_coverage.
void replay_knowledge_layers(
    const std::vector<std::pair<rsb::Experiment, std::vector<SampledRun>>>& specs,
    double engine_ns_per_run, Tracer& tracer, Result& result);

/// Replays the agent-backend layers (topology build, network build, step,
/// graph judge, port draw, collector) likewise.
void replay_agent_layers(
    const std::vector<std::pair<rsb::Experiment, std::vector<SampledRun>>>& specs,
    double engine_ns_per_run, Tracer& tracer, Result& result);

/// Times service::expand_request plus to_experiment over the given request
/// texts (service.parse_expand_ns).
void replay_parse_expand(const std::vector<std::string>& request_texts,
                         Tracer& tracer, Result& result);

}  // namespace rsbbench
