#include "gpu/gpu_cluster.hpp"

namespace parva::gpu {

GpuCluster::GpuCluster(std::size_t initial_gpus) {
  gpus_.reserve(initial_gpus);
  for (std::size_t i = 0; i < initial_gpus; ++i) {
    gpus_.push_back(std::make_unique<VirtualGpu>(static_cast<int>(i)));
  }
}

VirtualGpu& GpuCluster::gpu(std::size_t index) {
  PARVA_REQUIRE(index < gpus_.size(), "GPU index out of range");
  return *gpus_[index];
}

const VirtualGpu& GpuCluster::gpu(std::size_t index) const {
  PARVA_REQUIRE(index < gpus_.size(), "GPU index out of range");
  return *gpus_[index];
}

std::size_t GpuCluster::add_gpu() {
  gpus_.push_back(std::make_unique<VirtualGpu>(static_cast<int>(gpus_.size())));
  return gpus_.size() - 1;
}

void GpuCluster::reset() {
  for (auto& gpu : gpus_) gpu->reset();
}

Result<GlobalInstanceId> GpuCluster::create_instance(std::size_t gpu_index, int gpcs) {
  while (gpu_index >= gpus_.size()) add_gpu();
  auto handle = gpus_[gpu_index]->create_instance(gpcs);
  if (!handle.ok()) return handle.error();
  return GlobalInstanceId{static_cast<int>(gpu_index), handle.value()};
}

Status GpuCluster::destroy_instance(GlobalInstanceId id) {
  if (id.gpu < 0 || static_cast<std::size_t>(id.gpu) >= gpus_.size()) {
    return Status(ErrorCode::kNotFound, "no GPU " + std::to_string(id.gpu));
  }
  return gpus_[static_cast<std::size_t>(id.gpu)]->destroy_instance(id.handle);
}

const MigInstance* GpuCluster::find_instance(GlobalInstanceId id) const {
  if (id.gpu < 0 || static_cast<std::size_t>(id.gpu) >= gpus_.size()) return nullptr;
  return gpus_[static_cast<std::size_t>(id.gpu)]->find_instance(id.handle);
}

std::size_t GpuCluster::gpus_in_use() const {
  std::size_t used = 0;
  for (const auto& gpu : gpus_) {
    if (!gpu->empty()) ++used;
  }
  return used;
}

int GpuCluster::total_allocated_gpcs() const {
  int total = 0;
  for (const auto& gpu : gpus_) total += gpu->allocated_gpcs();
  return total;
}

}  // namespace parva::gpu
