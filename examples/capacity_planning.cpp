// Capacity planning with the predictor (paper Section IV-D): without
// touching any GPU, estimate how many A100s each framework needs as a
// client scales its S5 service portfolio, and what the bill difference is.
//
//   $ ./examples/capacity_planning [--max-fold 6] [--gpu-hour-usd 4.1]
//
// A flag it does not read exits 2; a bad value exits 1, naming the flag.
#include <cmath>
#include <iostream>

#include "common/cli.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "scenarios/experiment.hpp"

int main(int argc, char** argv) {
  using namespace parva;
  using namespace parva::scenarios;
  const CliArgs args(argc, argv);
  if (const auto unknown = args.first_unknown({"max-fold", "gpu-hour-usd"})) {
    std::cerr << "error: capacity_planning has no flag --" << *unknown << "\n";
    return 2;
  }
  constexpr long long kMaxFold = 1000;
  if (args.has("max-fold") && !args.int_in_range("max-fold", 1, kMaxFold)) {
    std::cerr << "bad --max-fold '" << args.get("max-fold", "")
              << "' (want an integer in [1, " << kMaxFold << "])\n";
    return 1;
  }
  const int max_fold = static_cast<int>(args.get_int("max-fold", 6));
  // p4de.24xlarge on-demand is ~$40.96/h for 8 GPUs => ~$5.12 per GPU-hour;
  // default rounds down to a typical reserved price.
  double gpu_hour_usd = 4.1;
  if (args.has("gpu-hour-usd") &&
      (!parse_double(args.get("gpu-hour-usd", ""), gpu_hour_usd) ||
       !std::isfinite(gpu_hour_usd) || gpu_hour_usd < 0.0)) {
    std::cerr << "bad --gpu-hour-usd '" << args.get("gpu-hour-usd", "")
              << "' (want a finite non-negative price)\n";
    return 1;
  }

  std::cout << "Capacity planning on scenario S5 (predictor mode, no GPUs touched)\n\n";
  const ExperimentContext context = ExperimentContext::create();

  TextTable table({"services", "gpulet", "MIG-serving", "ParvaGPU", "monthly saving vs best baseline"});
  for (int fold = 1; fold <= max_fold; ++fold) {
    const Scenario scaled = scale_scenario(scenario("S5"), fold);
    const auto gpulet = run_experiment(context, Framework::kGpulet, scaled);
    const auto mig = run_experiment(context, Framework::kMigServing, scaled);
    const auto parva = run_experiment(context, Framework::kParvaGpu, scaled);
    const int best_baseline = std::min(gpulet.gpu_count, mig.gpu_count);
    const double saving =
        (best_baseline - parva.gpu_count) * gpu_hour_usd * 24 * 30;
    table.add_row({std::to_string(scaled.services.size()), std::to_string(gpulet.gpu_count),
                   std::to_string(mig.gpu_count), std::to_string(parva.gpu_count),
                   "$" + format_double(saving, 0)});
  }
  table.print(std::cout);
  std::cout << "\n(at $" << gpu_hour_usd << "/GPU-hour; iGniter omitted: it cannot run S5)\n";
  return 0;
}
