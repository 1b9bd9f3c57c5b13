#include "gpu/nvml_sim.hpp"

#include "gpu/dcgm_sim.hpp"

namespace parva::gpu {

const char* nvml_error_string(NvmlReturn ret) {
  switch (ret) {
    case NvmlReturn::kSuccess: return "success";
    case NvmlReturn::kErrorInvalidArgument: return "invalid argument";
    case NvmlReturn::kErrorNotFound: return "not found";
    case NvmlReturn::kErrorInsufficientResources: return "insufficient resources";
    case NvmlReturn::kErrorInsufficientMemory: return "insufficient memory";
    case NvmlReturn::kErrorNotSupported: return "not supported";
    case NvmlReturn::kErrorInUse: return "in use";
    case NvmlReturn::kErrorGpuIsLost: return "gpu is lost";
  }
  return "unknown";
}

bool nvml_is_transient(NvmlReturn ret) { return ret == NvmlReturn::kErrorInUse; }

void NvmlSim::log_op(std::string op) {
  operations_.push_back(std::move(op));
  if (telemetry_ != nullptr) {
    telemetry_->metrics()
        .counter("parva_nvml_operations_total", "Control-plane operations performed")
        .inc();
  }
}

NvmlReturn NvmlSim::fail_device(unsigned device, int xid) {
  if (device >= cluster_->size()) return NvmlReturn::kErrorNotFound;
  if (lost_.size() < cluster_->size()) lost_.resize(cluster_->size(), false);
  lost_[device] = true;
  // The device resets: every instance (and its processes) is gone.
  cluster_->gpu(device).reset();
  log_op("fail_device gpu=" + std::to_string(device) +
                        " xid=" + std::to_string(xid));
  if (telemetry_ != nullptr) {
    telemetry_->metrics()
        .counter("parva_nvml_device_losses_total", "Whole-device (XID) losses executed")
        .inc();
  }
  if (dcgm_ != nullptr) {
    dcgm_->record_health_event(HealthEvent{time_ms_, static_cast<int>(device), xid,
                                           HealthEventKind::kDeviceLost,
                                           "XID " + std::to_string(xid) + ": device lost"});
  }
  return NvmlReturn::kSuccess;
}

NvmlReturn NvmlSim::restore_device(unsigned device) {
  if (device >= cluster_->size()) return NvmlReturn::kErrorNotFound;
  if (device < lost_.size()) lost_[device] = false;
  cluster_->gpu(device).reset();
  log_op("restore_device gpu=" + std::to_string(device));
  return NvmlReturn::kSuccess;
}

bool NvmlSim::device_lost(unsigned device) const {
  return device < lost_.size() && lost_[device];
}

NvmlReturn NvmlSim::translate(const Status& status, const std::string& op) {
  log_op(op + (status.ok() ? "" : " FAILED(" + status.to_string() + ")"));
  if (status.ok()) return NvmlReturn::kSuccess;
  switch (status.error().code()) {
    case ErrorCode::kInvalidArgument: return NvmlReturn::kErrorInvalidArgument;
    case ErrorCode::kNotFound: return NvmlReturn::kErrorNotFound;
    case ErrorCode::kOutOfMemory: return NvmlReturn::kErrorInsufficientMemory;
    case ErrorCode::kUnsupported: return NvmlReturn::kErrorInsufficientResources;
    case ErrorCode::kCapacityExceeded: return NvmlReturn::kErrorInsufficientResources;
    case ErrorCode::kInternal: return NvmlReturn::kErrorNotSupported;
  }
  return NvmlReturn::kErrorNotSupported;
}

NvmlReturn NvmlSim::check_create(unsigned device, const std::string& op) {
  if (device_lost(device)) {
    log_op(op + " FAILED(gpu is lost)");
    return NvmlReturn::kErrorGpuIsLost;
  }
  if (injector_ != nullptr && injector_->next_create_fails()) {
    log_op(op + " FAULT(in use)");
    if (telemetry_ != nullptr) {
      telemetry_->metrics()
          .counter("parva_nvml_transient_faults_total",
                   "Injected transient create failures (NVML_ERROR_IN_USE)")
          .inc();
    }
    if (dcgm_ != nullptr) {
      dcgm_->record_health_event(HealthEvent{time_ms_, static_cast<int>(device), 0,
                                             HealthEventKind::kTransientCreateFailure,
                                             "NVML_ERROR_IN_USE injected"});
    }
    return NvmlReturn::kErrorInUse;
  }
  return NvmlReturn::kSuccess;
}

NvmlReturn NvmlSim::create_gpu_instance(unsigned device, int gpc_count, GlobalInstanceId* out) {
  const std::string op =
      "create_gi gpu=" + std::to_string(device) + " gpcs=" + std::to_string(gpc_count);
  if (const NvmlReturn vetoed = check_create(device, op); vetoed != NvmlReturn::kSuccess) {
    return vetoed;
  }
  auto result = cluster_->create_instance(device, gpc_count);
  if (!result.ok()) return translate(Status(result.error()), op);
  if (injector_ != nullptr) injector_->note_create_succeeded();
  if (out != nullptr) *out = result.value();
  log_op(op + " handle=" + std::to_string(result.value().handle));
  return NvmlReturn::kSuccess;
}

NvmlReturn NvmlSim::create_gpu_instance_with_placement(unsigned device, int gpc_count,
                                                       int start_slot, GlobalInstanceId* out) {
  if (device >= cluster_->size()) return NvmlReturn::kErrorNotFound;
  const std::string op = "create_gi_placed gpu=" + std::to_string(device) +
                         " gpcs=" + std::to_string(gpc_count) + "@" + std::to_string(start_slot);
  if (const NvmlReturn vetoed = check_create(device, op); vetoed != NvmlReturn::kSuccess) {
    return vetoed;
  }
  auto result = cluster_->gpu(device).create_instance_at(gpc_count, start_slot);
  if (!result.ok()) return translate(Status(result.error()), op);
  if (injector_ != nullptr) injector_->note_create_succeeded();
  if (out != nullptr) *out = GlobalInstanceId{static_cast<int>(device), result.value()};
  log_op(op);
  return NvmlReturn::kSuccess;
}

NvmlReturn NvmlSim::destroy_gpu_instance(GlobalInstanceId id) {
  if (id.gpu >= 0 && device_lost(static_cast<unsigned>(id.gpu))) {
    log_op("destroy_gi gpu=" + std::to_string(id.gpu) +
                          " handle=" + std::to_string(id.handle) + " FAILED(gpu is lost)");
    return NvmlReturn::kErrorGpuIsLost;
  }
  return translate(cluster_->destroy_instance(id),
                   "destroy_gi gpu=" + std::to_string(id.gpu) +
                       " handle=" + std::to_string(id.handle));
}

NvmlReturn NvmlSim::start_mps_daemon(GlobalInstanceId id) {
  if (id.gpu < 0 || static_cast<std::size_t>(id.gpu) >= cluster_->size()) {
    return NvmlReturn::kErrorNotFound;
  }
  if (device_lost(static_cast<unsigned>(id.gpu))) return NvmlReturn::kErrorGpuIsLost;
  return translate(cluster_->gpu(static_cast<std::size_t>(id.gpu)).enable_mps(id.handle),
                   "start_mps gpu=" + std::to_string(id.gpu) +
                       " handle=" + std::to_string(id.handle));
}

NvmlReturn NvmlSim::launch_process(GlobalInstanceId id, const MpsProcess& process) {
  if (id.gpu < 0 || static_cast<std::size_t>(id.gpu) >= cluster_->size()) {
    return NvmlReturn::kErrorNotFound;
  }
  if (device_lost(static_cast<unsigned>(id.gpu))) return NvmlReturn::kErrorGpuIsLost;
  return translate(cluster_->gpu(static_cast<std::size_t>(id.gpu)).attach_process(id.handle, process),
                   "launch gpu=" + std::to_string(id.gpu) + " handle=" +
                       std::to_string(id.handle) + " model=" + process.model +
                       " batch=" + std::to_string(process.batch_size));
}

NvmlReturn NvmlSim::kill_processes(GlobalInstanceId id) {
  if (id.gpu < 0 || static_cast<std::size_t>(id.gpu) >= cluster_->size()) {
    return NvmlReturn::kErrorNotFound;
  }
  if (device_lost(static_cast<unsigned>(id.gpu))) return NvmlReturn::kErrorGpuIsLost;
  return translate(
      cluster_->gpu(static_cast<std::size_t>(id.gpu)).detach_all_processes(id.handle),
      "kill gpu=" + std::to_string(id.gpu) + " handle=" + std::to_string(id.handle));
}

}  // namespace parva::gpu
