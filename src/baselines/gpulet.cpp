#include "baselines/gpulet.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "baselines/mps_partition.hpp"
#include "perfmodel/interference.hpp"

namespace parva::baselines {
namespace {

/// gpulet sizes partitions in 10% steps of a GPU.
constexpr double kFractionQuantum = 0.10;

/// One gpulet: a chunk of a service assigned to one MPS partition.
struct Chunk {
  const core::ServiceSpec* spec = nullptr;
  const perfmodel::WorkloadTraits* traits = nullptr;
  double target_rate = 0.0;    ///< the share of the service this chunk serves
  double fraction = 0.0;       ///< requested partition fraction
  PartitionPoint point;        ///< interference-free operating point
};

/// A GPU under construction: up to two partitions.
struct GpuletGpu {
  std::vector<Chunk> partitions;       ///< at most 2
  std::vector<double> granted;         ///< granted fraction per partition
};

}  // namespace

Result<core::ScheduleResult> GpuletScheduler::schedule(
    std::span<const core::ServiceSpec> services) {
  const auto start = std::chrono::steady_clock::now();
  if (Status unique = core::check_unique_ids(services, core::ServiceIdIndex(services));
      !unique.ok()) {
    return unique.error();
  }
  // Per-run memo: the fraction/batch sweeps below revisit the same
  // operating points across services sharing a model.
  const perfmodel::CachedPerfModel cache(*perf_);

  // Phase 1: size each service into chunks. The bulk chunk uses the most
  // resource-efficient fraction (throughput per fraction); the remainder
  // chunk uses the smallest fraction covering it.
  std::vector<Chunk> chunks;
  for (const core::ServiceSpec& spec : services) {
    const perfmodel::WorkloadTraits* traits = perf_->catalog().find(spec.model);
    if (traits == nullptr) {
      return Error(ErrorCode::kNotFound, "unknown model " + spec.model);
    }
    const double latency_cap = spec.slo_latency_ms * core::kInternalLatencyFactor;

    // Most efficient bulk fraction.
    std::optional<PartitionPoint> bulk;
    const int steps = static_cast<int>(1.0 / kFractionQuantum + 0.5);
    for (int i = 1; i <= steps; ++i) {
      const double fraction = kFractionQuantum * static_cast<double>(i);
      auto point = best_partition_point(cache, *traits, fraction, latency_cap, 0.0);
      if (!point.has_value()) continue;
      if (!bulk.has_value() ||
          point->throughput / point->gpu_fraction > bulk->throughput / bulk->gpu_fraction) {
        bulk = point;
      }
    }
    if (!bulk.has_value()) {
      return Error(ErrorCode::kCapacityExceeded,
                   "gpulet: no partition meets the SLO for " + spec.model);
    }

    double remaining = spec.request_rate;
    while (remaining > bulk->throughput) {
      chunks.push_back(Chunk{&spec, traits, bulk->throughput, bulk->gpu_fraction, *bulk});
      remaining -= bulk->throughput;
    }
    if (remaining > 0.0) {
      auto last = smallest_fraction_for_rate(cache, *traits, remaining, latency_cap,
                                             kFractionQuantum, 0.0);
      if (!last.has_value()) last = bulk;  // bulk always covers the remainder
      chunks.push_back(Chunk{&spec, traits, remaining, last->gpu_fraction, *last});
    }
  }

  // Phase 2: pair chunks onto GPUs (max two partitions per GPU). Chunks are
  // placed in descending fraction order; a chunk joins a single-partition
  // GPU when gpulet's interference prediction says both workloads still
  // meet their SLOs, with the second partition granted all the remainder.
  std::sort(chunks.begin(), chunks.end(),
            [](const Chunk& a, const Chunk& b) { return a.fraction > b.fraction; });

  std::vector<GpuletGpu> gpus;
  for (const Chunk& chunk : chunks) {
    bool placed = false;
    for (GpuletGpu& gpu : gpus) {
      if (gpu.partitions.size() != 1) continue;
      const Chunk& first = gpu.partitions.front();
      const double remainder = 1.0 - gpu.granted.front();
      if (remainder < chunk.fraction - 1e-9) continue;
      if (first.spec->id == chunk.spec->id) continue;  // gpulet pairs distinct workloads

      // Predicted feasibility for both, second granted the full remainder.
      const perfmodel::CoRunner second_as_corunner{chunk.traits, remainder};
      const perfmodel::CoRunner first_as_corunner{first.traits, gpu.granted.front()};
      const double first_cap = first.spec->slo_latency_ms * core::kInternalLatencyFactor;
      const double chunk_cap = chunk.spec->slo_latency_ms * core::kInternalLatencyFactor;
      const double first_inflation =
          perfmodel::gpulet_predicted_interference(*first.traits, {&second_as_corunner, 1});
      const double chunk_inflation =
          perfmodel::gpulet_predicted_interference(*chunk.traits, {&first_as_corunner, 1});
      auto first_point = best_partition_point(cache, *first.traits, gpu.granted.front(),
                                              first_cap, first_inflation);
      auto chunk_point =
          best_partition_point(cache, *chunk.traits, remainder, chunk_cap, chunk_inflation);
      if (!first_point.has_value() || first_point->throughput < first.target_rate) continue;
      if (!chunk_point.has_value() || chunk_point->throughput < chunk.target_rate) continue;

      gpu.partitions.push_back(chunk);
      gpu.granted.push_back(remainder);  // all remaining space (internal slack source)
      placed = true;
      break;
    }
    if (!placed) {
      GpuletGpu gpu;
      gpu.partitions.push_back(chunk);
      gpu.granted.push_back(chunk.fraction);
      gpus.push_back(std::move(gpu));
    }
  }

  const auto stop = std::chrono::steady_clock::now();

  // Materialise: ground-truth performance under true interference.
  core::Deployment deployment;
  deployment.framework = name();
  deployment.uses_mig = false;
  deployment.gpu_count = static_cast<int>(gpus.size());
  for (std::size_t gi = 0; gi < gpus.size(); ++gi) {
    const GpuletGpu& gpu = gpus[gi];
    for (std::size_t pi = 0; pi < gpu.partitions.size(); ++pi) {
      const Chunk& chunk = gpu.partitions[pi];
      // A lone partition receives the whole GPU (MPS default quota), and the
      // second of a pair receives all the remainder — gpulet never leaves
      // resources ungranted, trading external fragmentation for slack.
      const double granted = gpu.partitions.size() == 1 ? 1.0 : gpu.granted[pi];

      std::vector<perfmodel::CoRunner> others;
      for (std::size_t qi = 0; qi < gpu.partitions.size(); ++qi) {
        if (qi == pi) continue;
        others.push_back({gpu.partitions[qi].traits, gpu.granted[qi]});
      }
      const double true_inflation = perfmodel::true_interference(*chunk.traits, others);
      // The deployed process keeps the batch gpulet chose; compute its real
      // behaviour at that batch (which may now exceed the latency cap —
      // that is exactly gpulet's misprediction).
      auto actual = cache.evaluate_mps_share(*chunk.traits, granted, chunk.point.batch, 1,
                                              true_inflation);

      core::DeployedUnit unit;
      unit.service_id = chunk.spec->id;
      unit.model = chunk.spec->model;
      unit.gpu_index = static_cast<int>(gi);
      unit.gpc_grant = granted * 7.0;
      unit.batch = chunk.point.batch;
      unit.procs = 1;
      unit.planned_throughput = chunk.target_rate;
      unit.planned_latency_ms = chunk.point.latency_ms;
      if (actual.ok()) {
        unit.actual_throughput = actual.value().throughput;
        unit.actual_latency_ms = actual.value().latency_ms;
        unit.sm_occupancy = actual.value().sm_occupancy;
        unit.memory_gib = actual.value().memory_gib;
      } else {
        unit.actual_throughput = chunk.point.throughput;
        unit.actual_latency_ms = chunk.point.latency_ms;
        unit.sm_occupancy = chunk.point.sm_occupancy;
        unit.memory_gib = chunk.point.memory_gib;
      }
      deployment.units.push_back(std::move(unit));
    }
  }

  core::ScheduleResult result;
  result.deployment = std::move(deployment);
  result.scheduling_delay_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  return result;
}

}  // namespace baselines
