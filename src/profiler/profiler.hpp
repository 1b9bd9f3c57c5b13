// The Profiler (paper Section III-C): records throughput and latency of
// each workload across MIG instance sizes, batch sizes, and MPS process
// counts. Profiling happens once per registered model; ParvaGPU never needs
// cross-model pair profiling (MIG isolates workloads), which is its
// overhead advantage over gpulet.
#pragma once

#include <cstdint>
#include <vector>

#include "gpu/arch.hpp"
#include "perfmodel/analytical_model.hpp"
#include "profiler/profile_types.hpp"

namespace parva::profiler {

struct ProfilerOptions {
  /// Batch grid: the paper's suggestion of eight power-of-two sizes 1..128.
  std::vector<int> batch_sizes = {1, 2, 4, 8, 16, 32, 64, 128};
  /// MPS process counts to explore (paper limits to 3 for OOM headroom).
  int max_processes = 3;
};

class Profiler {
 public:
  Profiler(const perfmodel::AnalyticalPerfModel& model, ProfilerOptions options = {})
      : model_(&model), options_(std::move(options)) {}

  /// Profiles one model over the full grid: every legal MIG instance size
  /// (gpu::kInstanceSizes) x batch x process count. OOM points are recorded
  /// (not skipped) so downstream consumers can reproduce the holes in
  /// Figure 3.
  ProfileTable profile(const perfmodel::WorkloadTraits& traits) const;
  ProfileTable profile(const std::string& model_name) const;

  /// Profiles several models, in order.
  ProfileSet profile_all(const std::vector<std::string>& model_names) const;

  /// Grid size |I| * |B| * P; used by the overhead accounting tests.
  std::size_t grid_points() const {
    return gpu::kInstanceSizes.size() * options_.batch_sizes.size() *
           static_cast<std::size_t>(options_.max_processes);
  }

 private:
  const perfmodel::AnalyticalPerfModel* model_;
  ProfilerOptions options_;
};

}  // namespace parva::profiler
