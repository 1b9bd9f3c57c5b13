#include "baselines/mps_partition.hpp"

#include <array>

namespace parva::baselines {
namespace {
constexpr std::array<int, 8> kBatchGrid = {1, 2, 4, 8, 16, 32, 64, 128};
}  // namespace

std::optional<PartitionPoint> best_partition_point(const perfmodel::AnalyticalPerfModel& perf,
                                                   const perfmodel::WorkloadTraits& traits,
                                                   double gpu_fraction, double latency_cap_ms,
                                                   double interference_inflation) {
  std::optional<PartitionPoint> best;
  for (int batch : kBatchGrid) {
    auto result =
        perf.evaluate_mps_share(traits, gpu_fraction, batch, 1, interference_inflation);
    if (!result.ok()) continue;  // OOM at this batch
    const perfmodel::PerfPoint& point = result.value();
    if (point.latency_ms > latency_cap_ms) continue;
    if (!best.has_value() || point.throughput > best->throughput) {
      best = PartitionPoint{gpu_fraction, batch,          point.throughput,
                            point.latency_ms, point.sm_occupancy, point.memory_gib};
    }
  }
  return best;
}

std::optional<PartitionPoint> smallest_fraction_for_rate(
    const perfmodel::AnalyticalPerfModel& perf, const perfmodel::WorkloadTraits& traits,
    double target_throughput, double latency_cap_ms, double quantum,
    double interference_inflation) {
  const int steps = static_cast<int>(1.0 / quantum + 0.5);
  for (int i = 1; i <= steps; ++i) {
    const double fraction = quantum * static_cast<double>(i);
    auto point =
        best_partition_point(perf, traits, fraction, latency_cap_ms, interference_inflation);
    if (point.has_value() && point->throughput >= target_throughput) return point;
  }
  return std::nullopt;
}

}  // namespace parva::baselines
