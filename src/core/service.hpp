// Service and segment vocabulary of the paper (Tables II & III).
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "profiler/profile_types.hpp"

namespace parva::core {

/// Generative-LLM request shape attached to a service. Token counts are
/// drawn per request from a clamped lognormal: exp(N(log(mean) - s^2/2, s))
/// rounded and clamped to [1, max], so `*_mean` is the expected count. A
/// mean of zero produces zero tokens for that phase without consuming any
/// random variates (the degenerate fixed-latency contract, DESIGN.md §4.7).
struct LlmWorkload {
  double prompt_tokens_mean = 0.0;   ///< expected prompt length (0: none)
  double prompt_tokens_sigma = 0.0;  ///< lognormal sigma (log-space)
  int prompt_tokens_max = 8192;      ///< hard clamp on drawn prompt length
  double gen_tokens_mean = 0.0;      ///< expected generation length (0: none)
  double gen_tokens_sigma = 0.0;     ///< lognormal sigma (log-space)
  int gen_tokens_max = 2048;         ///< hard clamp on drawn generation
  /// KV-cache footprint per resident token in bytes; 0 disables the
  /// per-instance memory ledger entirely.
  double kv_bytes_per_token = 0.0;
};

/// Fraction of the SLO latency usable inside the GPU; the other half is
/// reserved for request queueing on the server (paper Section IV-A,
/// following Nexus [12]). ParvaGPU and every baseline size against
/// `slo_latency_ms * kInternalLatencyFactor`.
inline constexpr double kInternalLatencyFactor = 0.5;

/// A client-registered inference service: model + SLO + request rate.
struct ServiceSpec {
  int id = -1;
  std::string model;
  double slo_latency_ms = 0.0;  ///< end-to-end SLO latency target
  double request_rate = 0.0;    ///< requests/s the service must sustain
  /// Generative workload descriptor; disengaged for the fixed-latency
  /// CNN models of Table IV (the scheduler ignores it — sizing always
  /// uses the profiled WorkloadTraits surface).
  std::optional<LlmWorkload> llm;
};

/// Parses a services CSV: a header line, then one
/// `id,model,slo_latency_ms,request_rate` row per service. Returns
/// kInvalidArgument, naming the row, for a malformed row, an id above
/// INT_MAX, a non-finite or non-positive SLO, a non-finite or negative
/// rate, or a repeated id.
[[nodiscard]] Result<std::vector<ServiceSpec>> services_from_csv(std::string_view csv);

/// An operating triplet (instance size, batch size, process count) together
/// with its profiled performance. A triplet materialised on a GPU becomes a
/// "GPU segment" (an MPS-activated MIG instance).
struct Triplet {
  int gpcs = 0;
  int batch = 0;
  int procs = 0;
  double throughput = 0.0;
  double latency_ms = 0.0;
  double sm_occupancy = 0.0;
  double memory_gib = 0.0;

  bool valid() const { return gpcs > 0; }
  /// GPC efficiency: the quantity Demand Matching maximises (Eq. 2).
  double throughput_per_gpc() const {
    return gpcs == 0 ? 0.0 : throughput / static_cast<double>(gpcs);
  }
};

/// Builds a Triplet from a profiled point.
Triplet to_triplet(const profiler::ProfilePoint& point);

/// Index of an instance size within the optimal-triplet array.
/// Sizes {1,2,3,4,7} map to indices {0,1,2,3,4}.
int instance_size_index(int gpcs);
int instance_size_from_index(int index);
inline constexpr int kInstanceSizeCount = 5;

/// A service after the Segment Configurator ran (Table II's member
/// variables: opt_tri_array, opt_seg, num_opt_seg, last_seg).
struct ConfiguredService {
  ServiceSpec spec;
  /// Best triplet per instance size under the internal latency bound;
  /// nullopt where no feasible point exists (e.g. OOM or SLO too strict).
  std::array<std::optional<Triplet>, kInstanceSizeCount> opt_tri_array;
  /// The GPC-efficiency-optimal triplet (Demand Matching).
  Triplet opt_seg;
  /// How many optimal segments the request rate requires.
  int num_opt_seg = 0;
  /// The segment covering the remaining rate; nullopt when the rate divides
  /// exactly.
  std::optional<Triplet> last_seg;

  /// Total GPCs the configuration consumes.
  int total_gpcs() const {
    int total = num_opt_seg * opt_seg.gpcs;
    if (last_seg.has_value()) total += last_seg->gpcs;
    return total;
  }
  /// Aggregate configured throughput.
  double total_throughput() const {
    double total = static_cast<double>(num_opt_seg) * opt_seg.throughput;
    if (last_seg.has_value()) total += last_seg->throughput;
    return total;
  }
};

/// One segment awaiting placement: which service it serves and at which
/// operating point.
struct Segment {
  int service_id = -1;
  Triplet triplet;
};

/// Service id -> position in a service list, through one open-addressed
/// table: power-of-two slots at a load of at most 1/2, a fixed
/// multiplicative hash of the id (so the layout is deterministic) and
/// linear probing. O(n) to build, O(1) expected per lookup. Ids are
/// inserted in list order, so when ids repeat the first position wins, as
/// a front-to-back scan would, and the first repeat is noted on the way.
class ServiceIdIndex {
 public:
  explicit ServiceIdIndex(std::span<const ServiceSpec> services);
  /// The same index over configured services, keyed on `spec.id`.
  static ServiceIdIndex for_configured(std::span<const ConfiguredService> services);

  /// Position of the first service with `id`; nullopt when none has it.
  std::optional<std::size_t> find(int id) const;

  /// The first position, in list order, whose id an earlier service
  /// already has; nullopt when every id is unique.
  std::optional<std::size_t> first_repeat() const { return first_repeat_; }

 private:
  /// Sizes the table for `count` ids and inserts id_of(0), id_of(1), ...
  template <typename IdOf>
  ServiceIdIndex(std::size_t count, IdOf id_of);

  /// The slot holding `id`, or the empty slot where probing for it stops.
  std::size_t probe(int id) const;

  /// Position of a slot no id occupies; a list cannot be this long.
  static constexpr std::size_t kEmpty = static_cast<std::size_t>(-1);

  struct Slot {
    int id = 0;
    std::size_t position = kEmpty;
  };

  std::vector<Slot> slots_;
  int shift_ = 0;  ///< 64 - log2(slots_.size()): keeps the hash's top bits
  std::optional<std::size_t> first_repeat_;
};

/// Refuses a service list in which two services share an id, because every
/// stage after it keys on the id: kInvalidArgument naming the first repeat
/// (`by_id.first_repeat()`), ok otherwise. `by_id` must index `services`.
/// Every scheduler calls this before it plans anything.
[[nodiscard]] Status check_unique_ids(std::span<const ServiceSpec> services,
                                      const ServiceIdIndex& by_id);

}  // namespace parva::core
