// A multi-GPU node/cluster of simulated A100s, mirroring the paper's
// testbed of p4de.24xlarge instances (8 GPUs each, extendable on demand).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "gpu/virtual_gpu.hpp"

namespace parva::gpu {

/// Cluster-wide address of a MIG instance.
struct GlobalInstanceId {
  int gpu = -1;
  InstanceHandle handle = -1;
  bool operator==(const GlobalInstanceId&) const = default;
  auto operator<=>(const GlobalInstanceId&) const = default;
};

class GpuCluster {
 public:
  /// Creates a cluster with `initial_gpus` devices. It grows when an
  /// allocation names a device beyond its count (modelling the cloud's
  /// ability to add p4de instances).
  explicit GpuCluster(std::size_t initial_gpus = 8);

  std::size_t size() const { return gpus_.size(); }

  VirtualGpu& gpu(std::size_t index);
  const VirtualGpu& gpu(std::size_t index) const;

  /// Appends one more GPU and returns its index.
  std::size_t add_gpu();

  /// Destroys all instances on all GPUs.
  void reset();

  /// Creates an instance on a specific GPU, growing the cluster up to
  /// `gpu_index` first.
  [[nodiscard]] Result<GlobalInstanceId> create_instance(std::size_t gpu_index, int gpcs);

  [[nodiscard]] Status destroy_instance(GlobalInstanceId id);
  const MigInstance* find_instance(GlobalInstanceId id) const;

  /// Number of GPUs with at least one instance.
  std::size_t gpus_in_use() const;
  /// Total GPCs allocated across the cluster.
  int total_allocated_gpcs() const;

 private:
  std::vector<std::unique_ptr<VirtualGpu>> gpus_;
};

}  // namespace parva::gpu
