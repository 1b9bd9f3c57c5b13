// Admission policy for generative-LLM execution in the cluster simulation
// (DESIGN.md §4.7).
//
// A service with a core::LlmWorkload runs phase-structured: an admitted
// batch holds its slot through one Prefill event and then a chain of
// Decode steps of 32 tokens each, while a per-instance KV-cache ledger
// tracks resident token memory. The one selectable axis is admission —
// what happens when a batch's KV need exceeds free ledger capacity:
//   kReject refuses it up front (reserving prompt+generation worst-case
//           so decode never overflows);
//   kEvict  admits on prompt footprint alone and, when decode growth
//           overflows, evicts resident batches in admission order.
// LLM requests reach a service's replicas through the same least-loaded
// dispatch as fixed-latency ones. Neither dispatch nor eviction draws
// randomness: token lengths are the only draws the generative path adds.
#pragma once

#include <cstdint>
#include <string_view>

namespace parva::serving {

/// What to do when an arriving batch does not fit in the KV ledger.
enum class LlmAdmissionPolicy : std::uint8_t {
  kReject,  ///< refuse the batch; reservation covers prompt + generation
  kEvict,   ///< admit on prompt footprint; evict victims on decode growth
};

/// Per-run LLM execution knobs (SimulationOptions.llm).
struct LlmSimOptions {
  LlmAdmissionPolicy admission = LlmAdmissionPolicy::kReject;
};

const char* to_string(LlmAdmissionPolicy policy);

/// Parse the CLI spelling "reject"/"evict". Return false on unknown input.
[[nodiscard]] bool parse_llm_admission(std::string_view text, LlmAdmissionPolicy* out);

}  // namespace parva::serving
