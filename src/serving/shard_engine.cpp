#include "serving/shard_engine.hpp"

#include <algorithm>
#include <numeric>

namespace parva::serving {

std::vector<int> partition_services(const std::vector<double>& rates, int shards) {
  PARVA_REQUIRE(shards >= 1, "shard count must be >= 1");
  std::vector<int> assignment(rates.size(), 0);
  if (shards == 1 || rates.empty()) return assignment;

  // LPT: place services in descending rate order (ties: ascending index)
  // onto the least-loaded shard (ties: lowest shard id).
  std::vector<std::size_t> order(rates.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return rates[a] > rates[b];
  });
  std::vector<double> load(static_cast<std::size_t>(shards), 0.0);
  for (const std::size_t s : order) {
    std::size_t best = 0;
    for (std::size_t k = 1; k < load.size(); ++k) {
      if (load[k] < load[best]) best = k;
    }
    assignment[s] = static_cast<int>(best);
    load[best] += rates[s];
  }
  return assignment;
}

std::vector<BufferedRecord> merge_records(
    std::vector<std::vector<BufferedRecord>> buffers) {
  std::size_t total = 0;
  for (const auto& buffer : buffers) total += buffer.size();
  std::vector<BufferedRecord> merged;
  merged.reserve(total);
  for (const auto& buffer : buffers) merged.insert(merged.end(), buffer.begin(), buffer.end());
  // Stable: the records of one event keep their emission order.
  std::stable_sort(merged.begin(), merged.end(), record_before);
  return merged;
}

}  // namespace parva::serving
