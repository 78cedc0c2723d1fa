#include "host_speed.hpp"

#include <algorithm>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "trace.hpp"

namespace rsbbench {

namespace {

volatile std::uint64_t g_kernel_sink = 0;

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// Hash-conses (previous id, bit, sorted ids of six parties) values into an
/// open-addressed table over a flat pool, four rounds per simulated run.
std::uint64_t intern_rounds(int runs) {
  constexpr std::uint32_t kEmpty = 0xffffffffu;
  thread_local std::vector<std::uint32_t> slots(1 << 12);
  thread_local std::vector<std::uint64_t> hashes;
  thread_local std::vector<std::uint32_t> pool, offsets;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL, acc = 0;
  for (int run = 0; run < runs; ++run) {
    std::fill(slots.begin(), slots.end(), kEmpty);
    hashes.clear();
    pool.clear();
    offsets.clear();
    std::uint32_t know[6] = {0, 0, 0, 0, 0, 0};
    for (int round = 0; round < 4; ++round) {
      std::uint32_t sorted[6];
      std::copy(know, know + 6, sorted);
      std::sort(sorted, sorted + 6);
      for (std::uint32_t& party : know) {
        std::uint32_t value[8] = {party, static_cast<std::uint32_t>(xorshift(x) & 1)};
        std::copy(sorted, sorted + 6, value + 2);
        std::uint64_t h = 1469598103934665603ULL;
        for (const std::uint32_t v : value) h = (h ^ v) * 1099511628211ULL;
        std::size_t slot = h & (slots.size() - 1);
        std::uint32_t id = kEmpty;
        while (slots[slot] != kEmpty) {
          const std::uint32_t candidate = slots[slot];
          if (hashes[candidate] == h &&
              std::equal(value, value + 8, pool.begin() + offsets[candidate])) {
            id = candidate;
            break;
          }
          slot = (slot + 1) & (slots.size() - 1);
        }
        if (id == kEmpty) {
          id = static_cast<std::uint32_t>(hashes.size());
          hashes.push_back(h);
          offsets.push_back(static_cast<std::uint32_t>(pool.size()));
          pool.insert(pool.end(), value, value + 8);
          slots[slot] = id;
        }
        party = id;
      }
    }
    acc += know[0] + hashes.size();
  }
  return acc;
}

/// Sorts a small random array and counts it through std::unordered_map.
std::uint64_t sort_and_count(int reps) {
  std::uint64_t x = 88172645463325252ULL, acc = 0;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<std::uint32_t> values(2048);
    for (std::uint32_t& v : values) v = static_cast<std::uint32_t>(xorshift(x) & 1023);
    std::sort(values.begin(), values.end());
    std::unordered_map<std::uint32_t, std::uint32_t> counts;
    for (const std::uint32_t v : values) ++counts[v];
    acc += counts.size() + values[1000];
  }
  return acc;
}

}  // namespace

double calibration_kernel_ms() {
  const std::int64_t start = now_ns();
  g_kernel_sink = g_kernel_sink + intern_rounds(1200) + sort_and_count(2);
  return (now_ns() - start) / 1e6;
}

double HostSpeed::measure_ms(int count) {
  std::vector<double> samples;
  for (int i = 0; i < count; ++i) samples.push_back(calibration_kernel_ms());
  return median(std::move(samples));
}

std::int64_t HostSpeed::maybe_sample(std::int64_t now) {
  if (now < next_) return 0;
  next_ = now + kIntervalNs;
  double ms = 0;
  if (threads_ == 1) {
    ms = calibration_kernel_ms();
  } else {
    std::vector<double> times(static_cast<std::size_t>(threads_));
    std::vector<std::thread> pool;
    for (double& t : times) pool.emplace_back([&t] { t = calibration_kernel_ms(); });
    for (std::thread& thread : pool) thread.join();
    ms = *std::max_element(times.begin(), times.end());
  }
  const auto window = static_cast<std::size_t>((now - start_) / kWindowNs);
  if (windows_.size() <= window) windows_.resize(window + 1);
  windows_[window].push_back(ms);
  factors_.clear();
  return static_cast<std::int64_t>(ms * 1e6);
}

double HostSpeed::time_factor(std::int64_t at_ns) const {
  if (factors_.empty()) {
    // Per-window factors; windows without a sample borrow the nearest one.
    factors_.assign(windows_.size(), 0);
    for (std::size_t w = 0; w < windows_.size(); ++w) {
      if (!windows_[w].empty()) factors_[w] = kReferenceMs / median(windows_[w]);
    }
    for (std::size_t w = 1; w < factors_.size(); ++w) {
      if (factors_[w] == 0) factors_[w] = factors_[w - 1];
    }
    for (std::size_t w = factors_.size(); w-- > 1;) {
      if (factors_[w - 1] == 0) factors_[w - 1] = factors_[w];
    }
  }
  if (factors_.empty() || factors_.front() == 0) return 1;
  const std::int64_t offset = std::max<std::int64_t>(at_ns - start_, 0);
  const auto window = std::min(static_cast<std::size_t>(offset / kWindowNs),
                               factors_.size() - 1);
  return factors_[window];
}

double HostSpeed::median_ms() const {
  std::vector<double> all;
  for (const auto& window : windows_) all.insert(all.end(), window.begin(), window.end());
  return median(std::move(all));
}

}  // namespace rsbbench
