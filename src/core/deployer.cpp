#include "core/deployer.hpp"

#include <algorithm>
#include <string>

#include "common/logging.hpp"

namespace parva::core {

gpu::NvmlReturn Deployer::create_instance_with_retry(const DeployedUnit& unit,
                                                     gpu::GlobalInstanceId* out,
                                                     DeployStats& stats) {
  const auto device = static_cast<unsigned>(unit.gpu_index);
  const int gpcs = unit.placement->gpcs;

  auto attempt_slot = [&](int start_slot) {
    double backoff = retry_.initial_backoff_ms;
    gpu::NvmlReturn ret = gpu::NvmlReturn::kErrorInUse;
    for (int attempt = 0; attempt < std::max(1, retry_.max_attempts); ++attempt) {
      ret = nvml_->create_gpu_instance_with_placement(device, gpcs, start_slot, out);
      if (!gpu::nvml_is_transient(ret)) return ret;
      // Transient: back off (simulated — the accounting is what matters)
      // and retry the same placement.
      ++stats.transient_retries;
      stats.backoff_ms += backoff;
      if (telemetry_ != nullptr) {
        telemetry_->events().record(telemetry::EventKind::kCreateRetry, nvml_->time_ms(),
                                    unit.gpu_index, unit.service_id, backoff);
      }
      backoff = std::min(backoff * retry_.backoff_multiplier, retry_.max_backoff_ms);
    }
    return ret;
  };

  gpu::NvmlReturn ret = attempt_slot(unit.placement->start_slot);
  if (ret == gpu::NvmlReturn::kSuccess || !retry_.allow_fallback_placement) return ret;
  if (ret == gpu::NvmlReturn::kErrorGpuIsLost) return ret;  // nothing to fall back to

  // The planned slot stayed blocked: try the other legal start slots on the
  // same device, in the paper's preference order.
  for (int slot : gpu::preferred_start_slots(gpcs)) {
    if (slot == unit.placement->start_slot) continue;
    const gpu::NvmlReturn fallback = attempt_slot(slot);
    if (fallback == gpu::NvmlReturn::kSuccess) {
      ++stats.fallback_placements;
      if (telemetry_ != nullptr) {
        telemetry_->events().record(telemetry::EventKind::kFallbackPlacement,
                                    nvml_->time_ms(), unit.gpu_index, unit.service_id,
                                    static_cast<double>(slot));
      }
      return fallback;
    }
    if (fallback == gpu::NvmlReturn::kErrorGpuIsLost) return fallback;
  }
  return ret;  // report the original failure
}

Result<DeployedState> Deployer::deploy(const Deployment& deployment) {
  DeployStats stats;
  Result<DeployedState> state = deploy_units(deployment, stats);
  last_stats_ = stats;
  total_stats_.merge(stats);
  if (state.ok() && telemetry_ != nullptr) {
    telemetry::MetricsRegistry& m = telemetry_->metrics();
    m.counter("parva_deploy_instances_total", "GPU instances created by the Deployer")
        .inc(static_cast<double>(state.value().unit_instances.size()));
    m.counter("parva_deploy_transient_retries_total",
              "Instance creates repeated after a transient NVML failure")
        .inc(static_cast<double>(stats.transient_retries));
    m.counter("parva_deploy_backoff_ms_total", "Simulated wall-clock spent backing off")
        .inc(stats.backoff_ms);
    m.counter("parva_deploy_fallback_placements_total",
              "Units placed at a non-planned slot after retry exhaustion")
        .inc(static_cast<double>(stats.fallback_placements));
  }
  return state;
}

Result<DeployedState> Deployer::deploy_units(const Deployment& deployment, DeployStats& stats) {
  if (!deployment.uses_mig) {
    return Error(ErrorCode::kUnsupported,
                 "Deployer materialises MIG-backed deployments; MPS-share baselines manage "
                 "whole GPUs directly");
  }
  DeployedState state;
  state.unit_instances.reserve(deployment.units.size());

  // Grow the cluster up front so placements land on the intended devices.
  while (nvml_->cluster().size() < static_cast<std::size_t>(deployment.gpu_count)) {
    auto grown = nvml_->cluster().add_gpu();
    if (!grown.ok()) return grown.error();
  }

  // A unit whose bring-up fails after its instance exists gives the slice
  // back before the error is returned.
  const auto release = [this](gpu::GlobalInstanceId id, const std::string& step,
                              gpu::NvmlReturn ret) {
    const auto kill_ret = nvml_->kill_processes(id);
    const auto destroy_ret = nvml_->destroy_gpu_instance(id);
    if (kill_ret != gpu::NvmlReturn::kSuccess || destroy_ret != gpu::NvmlReturn::kSuccess) {
      PARVA_LOG_WARN << "deploy: releasing gpu " << id.gpu << " handle " << id.handle
                     << " failed (kill=" << gpu::nvml_error_string(kill_ret)
                     << ", destroy=" << gpu::nvml_error_string(destroy_ret) << ")";
    }
    return Error(ErrorCode::kInternal, step + " failed: " + gpu::nvml_error_string(ret));
  };

  for (const DeployedUnit& unit : deployment.units) {
    PARVA_REQUIRE(unit.placement.has_value(), "MIG unit requires a placement");
    const perfmodel::WorkloadTraits* traits = perf_->catalog().find(unit.model);
    if (traits == nullptr) {
      return Error(ErrorCode::kNotFound, "unknown model " + unit.model);
    }
    gpu::GlobalInstanceId id;
    auto ret = create_instance_with_retry(unit, &id, stats);
    if (ret != gpu::NvmlReturn::kSuccess) {
      return Error(ErrorCode::kInternal, std::string("create_gpu_instance failed: ") +
                                             gpu::nvml_error_string(ret));
    }
    if (unit.procs > 1) {
      ret = nvml_->start_mps_daemon(id);
      if (ret != gpu::NvmlReturn::kSuccess) return release(id, "start_mps_daemon", ret);
    }
    const double per_process_mem =
        perfmodel::AnalyticalPerfModel::process_memory_gib(*traits, unit.batch);
    for (int p = 0; p < unit.procs; ++p) {
      gpu::MpsProcess process;
      process.model = unit.model;
      process.batch_size = unit.batch;
      process.memory_gib = per_process_mem;
      ret = nvml_->launch_process(id, process);
      if (ret != gpu::NvmlReturn::kSuccess) return release(id, "launch_process", ret);
    }
    state.unit_instances.push_back(id);
    if (telemetry_ != nullptr) {
      telemetry_->events().record(telemetry::EventKind::kInstanceCreated, nvml_->time_ms(),
                                  id.gpu, unit.service_id,
                                  static_cast<double>(unit.placement->gpcs));
    }
  }
  return state;
}

Status Deployer::teardown(const DeployedState& state) {
  for (const auto& id : state.unit_instances) {
    if (id.gpu >= 0 && nvml_->device_lost(static_cast<unsigned>(id.gpu))) {
      continue;  // the device reset already destroyed the instance
    }
    const auto kill_ret = nvml_->kill_processes(id);
    if (kill_ret != gpu::NvmlReturn::kSuccess) {
      // Keep tearing down: a failed kill must not leak the instance itself.
      PARVA_LOG_WARN << "teardown: kill_processes failed on gpu " << id.gpu << ": "
                     << gpu::nvml_error_string(kill_ret);
    }
    const auto ret = nvml_->destroy_gpu_instance(id);
    if (ret != gpu::NvmlReturn::kSuccess) {
      return Status(ErrorCode::kInternal,
                    std::string("destroy_gpu_instance failed: ") + gpu::nvml_error_string(ret));
    }
    if (telemetry_ != nullptr) {
      telemetry_->events().record(telemetry::EventKind::kInstanceDestroyed,
                                  nvml_->time_ms(), id.gpu);
    }
  }
  return Status::Ok();
}

}  // namespace parva::core
