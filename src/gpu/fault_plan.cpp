#include "gpu/fault_plan.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace parva::gpu {

std::vector<GpuFailureEvent> FaultPlan::sorted_gpu_failures() const {
  std::vector<GpuFailureEvent> sorted = gpu_failures;
  std::sort(sorted.begin(), sorted.end(),
            [](const GpuFailureEvent& a, const GpuFailureEvent& b) {
              return a.at_ms != b.at_ms ? a.at_ms < b.at_ms : a.gpu_index < b.gpu_index;
            });
  return sorted;
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)), rng_(plan_.seed) {
  PARVA_REQUIRE(plan_.transient_create_failure_prob >= 0.0 &&
                    plan_.transient_create_failure_prob <= 1.0,
                "transient failure probability must be in [0,1]");
}

bool FaultInjector::next_create_fails() {
  if (plan_.transient_create_failure_prob <= 0.0) return false;
  // Draw unconditionally so the RNG stream (and thus every later decision)
  // does not depend on whether the consecutive-failure cutoff was hit.
  bool fails = rng_.next_double() < plan_.transient_create_failure_prob;
  if (consecutive_failures_ >= kMaxConsecutiveTransientFailures) {
    // The driver has finished its teardown; the instance slot is free again.
    fails = false;
  }
  if (fails) {
    ++consecutive_failures_;
    ++transient_failures_injected_;
  } else {
    consecutive_failures_ = 0;
  }
  return fails;
}

void FaultInjector::reset() {
  rng_.reseed(plan_.seed);
  consecutive_failures_ = 0;
  transient_failures_injected_ = 0;
}

}  // namespace parva::gpu
