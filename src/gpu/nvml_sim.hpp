// NVML-shaped control-plane facade over the simulated cluster.
//
// ParvaGPU's Deployer is written against this interface; on a machine with
// real MIG hardware the same call shapes map 1:1 onto
// nvmlDeviceCreateGpuInstance / nvmlGpuInstanceCreateComputeInstance /
// MPS control commands, making the substitution a link-time swap.
//
// Fault injection: an attached FaultInjector (fault_plan.hpp) can make
// instance-creation calls fail transiently (NVML_ERROR_IN_USE) and
// fail_device() drops a whole GPU (NVML_ERROR_GPU_IS_LOST, XID-style).
// An attached DcgmSim records each of these as a HealthEvent, in the order
// a production DCGM health watch would surface them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gpu/fault_plan.hpp"
#include "gpu/gpu_cluster.hpp"
#include "telemetry/telemetry.hpp"

namespace parva::gpu {

class DcgmSim;

/// NVML-style return codes (subset).
enum class [[nodiscard]] NvmlReturn {
  kSuccess = 0,
  kErrorInvalidArgument,
  kErrorNotFound,
  kErrorInsufficientResources,
  kErrorInsufficientMemory,
  kErrorNotSupported,
  kErrorInUse,     ///< NVML_ERROR_IN_USE: transient, retry-able
  kErrorGpuIsLost, ///< NVML_ERROR_GPU_IS_LOST: device dropped (XID)
};

const char* nvml_error_string(NvmlReturn ret);

/// True for errors a caller should retry with backoff (the driver clears
/// them on its own); device loss and geometry errors are not retryable.
bool nvml_is_transient(NvmlReturn ret);

/// The control plane. All mutation of the simulated GPUs performed by the
/// schedulers' deployers flows through this class, so a transcript of calls
/// is available for tests (operation log).
class NvmlSim {
 public:
  explicit NvmlSim(GpuCluster& cluster) : cluster_(&cluster) {}

  /// Creates a GPU instance of `gpc_count` at the driver-chosen placement.
  [[nodiscard]] NvmlReturn create_gpu_instance(unsigned device, int gpc_count, GlobalInstanceId* out);

  /// Creates a GPU instance at an explicit start slot.
  [[nodiscard]] NvmlReturn create_gpu_instance_with_placement(unsigned device, int gpc_count, int start_slot,
                                                GlobalInstanceId* out);

  [[nodiscard]] NvmlReturn destroy_gpu_instance(GlobalInstanceId id);

  /// Starts an MPS control daemon for an instance (prereq for >1 client).
  [[nodiscard]] NvmlReturn start_mps_daemon(GlobalInstanceId id);

  /// Launches an inference process (MPS client) inside an instance.
  [[nodiscard]] NvmlReturn launch_process(GlobalInstanceId id, const MpsProcess& process);

  /// Tears down all processes in an instance.
  [[nodiscard]] NvmlReturn kill_processes(GlobalInstanceId id);

  // --- Fault injection ------------------------------------------------

  /// Attaches a fault injector (non-owning; nullptr detaches). Subsequent
  /// instance-creation calls consult it for transient failures.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  /// Attaches a health monitor (non-owning); device losses and injected
  /// faults are surfaced there as HealthEvents.
  void attach_health_monitor(DcgmSim* dcgm) { dcgm_ = dcgm; }

  /// Observability sink (nullptr = disabled). Control-plane operations,
  /// injected faults, and device losses are counted; the operation log and
  /// return codes are identical either way.
  void set_telemetry(telemetry::Telemetry* telemetry) { telemetry_ = telemetry; }

  /// Advances the control plane's notion of simulated time; used only to
  /// stamp health events.
  void set_time_ms(double time_ms) { time_ms_ = time_ms; }
  double time_ms() const { return time_ms_; }

  /// Drops a whole device (XID-style): all its instances are destroyed and
  /// every subsequent operation on it returns kErrorGpuIsLost until
  /// restore_device() (device replacement) is called.
  [[nodiscard]] NvmlReturn fail_device(unsigned device, int xid = 79);

  /// Returns a lost device to service with a clean (instance-free) state,
  /// modelling a hardware replacement or node reboot.
  [[nodiscard]] NvmlReturn restore_device(unsigned device);

  bool device_lost(unsigned device) const;

  /// Number of control-plane operations performed (reconfiguration cost
  /// accounting for the Deployer tests).
  std::size_t operation_count() const { return operations_.size(); }
  const std::vector<std::string>& operation_log() const { return operations_; }
  void clear_operation_log() { operations_.clear(); }

  GpuCluster& cluster() { return *cluster_; }
  const GpuCluster& cluster() const { return *cluster_; }

 private:
  [[nodiscard]] NvmlReturn translate(const Status& status, const std::string& op);
  /// Shared precondition for instance creation: device exists, not lost,
  /// and the fault injector does not veto the call.
  [[nodiscard]] NvmlReturn check_create(unsigned device, const std::string& op);
  /// Appends to the operation log and mirrors the count into telemetry.
  void log_op(std::string op);

  GpuCluster* cluster_;
  FaultInjector* injector_ = nullptr;
  DcgmSim* dcgm_ = nullptr;
  telemetry::Telemetry* telemetry_ = nullptr;
  double time_ms_ = 0.0;
  std::vector<bool> lost_;
  std::vector<std::string> operations_;
};

}  // namespace parva::gpu
