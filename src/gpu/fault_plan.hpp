// Deterministic fault injection for the simulated control plane.
//
// Cloud fleets lose devices: ECC/XID events drop whole A100s mid-epoch and
// nvmlDeviceCreateGpuInstance intermittently fails with NVML_ERROR_IN_USE
// while the driver finishes tearing down a previous instance. The paper's
// evaluation assumes a healthy fleet; this module makes failure a
// first-class, *reproducible* input so every recovery path can be driven in
// CI. A FaultPlan is pure data (schedule + probabilities + seed); the
// FaultInjector interprets it with its own RNG stream, so two runs with the
// same plan inject byte-identical fault sequences.
//
// Real-hardware mapping (see DESIGN.md "Failure model"):
//   * GpuFailureEvent        <-> XID 79 "GPU has fallen off the bus" /
//                                XID 48 double-bit ECC; surfaced by DCGM
//                                health watches as a fatal device event.
//   * transient create fault <-> NVML_ERROR_IN_USE from
//                                nvmlDeviceCreateGpuInstance /
//                                nvmlGpuInstanceCreateComputeInstance.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace parva::gpu {

/// Upper bound on back-to-back transient create failures of the same retry
/// loop, mirroring the real driver (IN_USE clears once teardown completes).
/// The Deployer's retry budget is larger (a static_assert in deployer.cpp),
/// so retries always converge and transient faults never change the final
/// deployment (they only show in retry metrics).
inline constexpr int kMaxConsecutiveTransientFailures = 4;

/// Scheduled whole-device loss at a simulated time (XID-style).
struct GpuFailureEvent {
  double at_ms = 0.0;  ///< simulated time of the failure
  int gpu_index = -1;  ///< device that drops out
  int xid = 79;        ///< NVIDIA XID code (79 = GPU fell off the bus)

  bool operator==(const GpuFailureEvent&) const = default;
};

/// Declarative fault schedule. Deterministic: all randomness derives from
/// `seed`, so a plan replays identically across runs and platforms.
struct FaultPlan {
  std::uint64_t seed = 1234;

  /// Whole-GPU losses, executed by whoever owns the clock (the cluster
  /// simulator mid-run, or a test/bench calling NvmlSim::fail_device).
  std::vector<GpuFailureEvent> gpu_failures;

  /// Probability in [0,1] that one create_gpu_instance /
  /// create_compute_instance call fails transiently (NVML_ERROR_IN_USE).
  double transient_create_failure_prob = 0.0;

  /// Failures sorted by time (the plan itself may list them in any order).
  std::vector<GpuFailureEvent> sorted_gpu_failures() const;
};

/// Runtime interpreter of a FaultPlan. Owns the derived RNG stream and the
/// injection counters; one injector instance should drive one control
/// plane so the fault sequence is a pure function of the plan.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }

  /// Decides whether the next instance-creation call fails transiently.
  /// Deterministic given the plan seed and call sequence; never returns
  /// true more than kMaxConsecutiveTransientFailures times in a row.
  bool next_create_fails();

  /// Call after a create succeeds (or was not attempted) to close a retry
  /// run; resets the consecutive-failure bound.
  void note_create_succeeded() { consecutive_failures_ = 0; }

  int transient_failures_injected() const { return transient_failures_injected_; }

  /// Restarts the injector from the plan seed (for replay tests).
  void reset();

 private:
  FaultPlan plan_;
  Rng rng_;
  int consecutive_failures_ = 0;
  int transient_failures_injected_ = 0;
};

}  // namespace parva::gpu
