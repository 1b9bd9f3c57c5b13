// Interactive profile explorer: inspect a model's profiled operating grid,
// its optimal triplets under an SLO, and the Demand Matching outcome for a
// request rate — the data ParvaGPU's decisions are made of.
//
//   $ ./examples/profile_explorer --model inceptionv3 --slo-ms 419 --rate 5722
//
// A flag it does not read exits 2; a bad value exits 1, naming the flag.
#include <cmath>
#include <iostream>

#include "common/cli.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/configurator.hpp"
#include "profiler/profiler.hpp"

int main(int argc, char** argv) {
  using namespace parva;
  const CliArgs args(argc, argv);
  if (const auto unknown = args.first_unknown({"model", "slo-ms", "rate"})) {
    std::cerr << "error: profile_explorer has no flag --" << *unknown << "\n";
    return 2;
  }
  const std::string model = args.get("model", "inceptionv3");
  double slo_ms = 419.0;
  if (args.has("slo-ms") && (!parse_double(args.get("slo-ms", ""), slo_ms) ||
                             !std::isfinite(slo_ms) || slo_ms <= 0.0)) {
    std::cerr << "bad --slo-ms '" << args.get("slo-ms", "")
              << "' (want a finite positive number)\n";
    return 1;
  }
  double rate = 5722.0;
  if (args.has("rate") &&
      (!parse_double(args.get("rate", ""), rate) || !std::isfinite(rate) || rate < 0.0)) {
    std::cerr << "bad --rate '" << args.get("rate", "")
              << "' (want a finite non-negative number)\n";
    return 1;
  }

  const auto& catalog = perfmodel::ModelCatalog::builtin();
  if (catalog.find(model) == nullptr) {
    std::cerr << "unknown model '" << model << "'. Available: ";
    for (const auto& name : catalog.names()) std::cerr << name << " ";
    std::cerr << "\n";
    return 1;
  }

  perfmodel::AnalyticalPerfModel perf(catalog);
  profiler::Profiler profiler(perf);
  const profiler::ProfileTable table = profiler.profile(model);

  std::cout << "=== profile grid for " << model << " (feasible points) ===\n";
  TextTable grid({"gpcs", "batch", "procs", "throughput", "latency_ms", "memory_gib"});
  for (const auto& point : table.points()) {
    if (point.oom) continue;
    grid.add_row({std::to_string(point.gpcs), std::to_string(point.batch),
                  std::to_string(point.procs), format_double(point.throughput, 1),
                  format_double(point.latency_ms, 2), format_double(point.memory_gib, 2)});
  }
  grid.print(std::cout);

  std::cout << "\n=== Segment Configurator @ SLO " << slo_ms << " ms, rate " << rate
            << " req/s ===\n";
  core::SegmentConfigurator configurator;
  const core::ServiceSpec spec{0, model, slo_ms, rate};
  auto configured = configurator.triplet_decision(spec, profiler::ProfileSurface(table));
  if (!configured.ok()) {
    std::cout << "no instance size meets the internal latency bound of " << slo_ms * 0.5
              << " ms\n";
    return 0;
  }
  if (!configurator.demand_matching(configured.value()).ok()) return 1;
  const auto& c = configured.value();

  TextTable triplets({"instance", "batch", "procs", "throughput", "latency_ms", "tp/GPC"});
  for (const auto& slot : c.opt_tri_array) {
    if (!slot.has_value()) continue;
    triplets.add_row({std::to_string(slot->gpcs) + "g", std::to_string(slot->batch),
                      std::to_string(slot->procs), format_double(slot->throughput, 1),
                      format_double(slot->latency_ms, 2),
                      format_double(slot->throughput_per_gpc(), 1)});
  }
  std::cout << "optimal triplets (max throughput per instance size):\n";
  triplets.print(std::cout);

  std::cout << "\nDemand Matching:\n  optimal segment: " << c.opt_seg.gpcs << "g batch "
            << c.opt_seg.batch << " x" << c.opt_seg.procs << " procs ("
            << format_double(c.opt_seg.throughput, 1) << " req/s)\n  whole segments:  "
            << c.num_opt_seg << "\n";
  if (c.last_seg.has_value()) {
    std::cout << "  last segment:    " << c.last_seg->gpcs << "g batch " << c.last_seg->batch
              << " x" << c.last_seg->procs << " procs ("
              << format_double(c.last_seg->throughput, 1) << " req/s)\n";
  }
  std::cout << "  total: " << c.total_gpcs() << " GPCs, capacity "
            << format_double(c.total_throughput(), 1) << " req/s for " << rate
            << " req/s offered (load " << format_double(100.0 * rate / c.total_throughput(), 1)
            << "%)\n";
  return 0;
}
