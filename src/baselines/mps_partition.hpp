// Shared helpers for the MPS-percentage-partition baselines (gpulet,
// iGniter): best-batch search for a partition of a given GPU fraction under
// a latency bound and an interference assumption.
#pragma once

#include <optional>

#include "perfmodel/analytical_model.hpp"

namespace parva::baselines {

/// A candidate MPS partition operating point.
struct PartitionPoint {
  double gpu_fraction = 0.0;
  int batch = 1;
  double throughput = 0.0;
  double latency_ms = 0.0;
  double sm_occupancy = 0.0;
  double memory_gib = 0.0;
};

/// Highest-throughput batch (power-of-two grid 1..128, single process) for
/// a partition of `gpu_fraction`, assuming `interference_inflation`, with
/// latency below `latency_cap_ms`. nullopt when no batch fits.
std::optional<PartitionPoint> best_partition_point(const perfmodel::AnalyticalPerfModel& perf,
                                                   const perfmodel::WorkloadTraits& traits,
                                                   double gpu_fraction, double latency_cap_ms,
                                                   double interference_inflation);

/// Smallest fraction from `quantum` steps whose best point reaches
/// `target_throughput` under the latency cap; nullopt if even a full GPU
/// cannot.
std::optional<PartitionPoint> smallest_fraction_for_rate(
    const perfmodel::AnalyticalPerfModel& perf, const perfmodel::WorkloadTraits& traits,
    double target_throughput, double latency_cap_ms, double quantum,
    double interference_inflation);

}  // namespace parva::baselines
