// Autoscaling walkthrough: follow a diurnal demand curve for one simulated
// day, reconfiguring only drifted services each epoch (Section III-F), and
// compare GPU-hours against static peak provisioning.
//
//   $ ./examples/autoscaling [--epoch-minutes 30]   (at least 1)
//
// A flag it does not read exits 2; a bad value exits 1, naming the flag.
#include <cmath>
#include <iostream>

#include "common/cli.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "profiler/profiler.hpp"
#include "serving/autoscaler.hpp"

int main(int argc, char** argv) {
  using namespace parva;
  const CliArgs args(argc, argv);
  if (const auto unknown = args.first_unknown({"epoch-minutes"})) {
    std::cerr << "error: autoscaling has no flag --" << *unknown << "\n";
    return 2;
  }

  serving::AutoscalerOptions options;
  if (args.has("epoch-minutes")) {
    double value = 0.0;
    if (!parse_double(args.get("epoch-minutes", ""), value) || !std::isfinite(value) ||
        value < serving::kMinEpochMinutes) {
      std::cerr << "bad --epoch-minutes '" << args.get("epoch-minutes", "")
                << "' (want a finite number of minutes, at least "
                << serving::kMinEpochMinutes << ")\n";
      return 1;
    }
    options.epoch_minutes = value;
  }

  perfmodel::AnalyticalPerfModel perf(perfmodel::ModelCatalog::builtin());
  profiler::Profiler profiler(perf);
  const auto profiles = profiler.profile_all(perfmodel::ModelCatalog::builtin().names());

  const std::vector<core::ServiceSpec> services = {
      {0, "resnet-50", 205, 2500},
      {1, "inceptionv3", 419, 2000},
      {2, "mobilenetv2", 167, 3500},
      {3, "vgg-19", 397, 1100},
      {4, "bert-large", 6434, 120},
  };

  serving::Autoscaler autoscaler(profiles, perf, options);
  const auto report = autoscaler.run_day(services, serving::RateTrace::diurnal());
  if (!report.ok()) {
    std::cerr << "autoscaling failed: " << report.error().to_string() << "\n";
    return 1;
  }

  TextTable table({"hour", "load", "offered req/s", "GPUs", "reconfigs", "compliance",
                   "slack"});
  for (const serving::EpochRecord& epoch : report.value().epochs) {
    if (std::fmod(epoch.t_hours, 2.0) > 1e-9) continue;  // print every 2nd hour
    table.add_row({format_double(epoch.t_hours, 1), format_double(epoch.multiplier, 2),
                   format_double(epoch.offered_total, 0), std::to_string(epoch.gpus),
                   std::to_string(epoch.services_reconfigured),
                   format_double(epoch.slo_compliance, 4),
                   format_double(epoch.internal_slack, 3)});
  }
  table.print(std::cout);

  std::cout << "\nelastic fleet:     " << format_double(report.value().gpu_hours, 1)
            << " GPU-hours/day (peak " << report.value().peak_gpus << " GPUs)\n"
            << "static (peak-provisioned): "
            << format_double(report.value().static_gpu_hours, 1) << " GPU-hours/day\n"
            << "saving:            "
            << format_double(100.0 * report.value().saving_vs_static(), 1) << "% ("
            << report.value().total_reconfigurations << " service reconfigurations)\n";
  return 0;
}
