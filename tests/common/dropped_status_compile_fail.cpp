// Compile-fail fixture: a dropped status is a build error in every target.
// Each line marked `// rejected` discards a Status, Result, Error, ErrorCode
// or gpu::NvmlReturn, from functions declared without [[nodiscard]] or as a
// temporary; the flags on parva_warnings must turn each into an
// unused-result/unused-value error. The `(void)` line is the deliberate
// discard that still compiles. Built only by the dropped_status_compile_fail
// test (tests/tools/compile_fail_test.sh), never by the default target.
#include "common/error.hpp"
#include "gpu/nvml_sim.hpp"

namespace fixture {

parva::Status make_status();
parva::Result<int> make_result();
parva::Error make_error();
parva::gpu::NvmlReturn make_nvml_return();
parva::ErrorCode make_code();

void drop_every_status_shape() {
  make_status();  // rejected
  make_result();  // rejected
  make_error();  // rejected
  make_nvml_return();  // rejected
  make_code();  // rejected
  parva::Status(parva::ErrorCode::kInternal, "lost");  // rejected
  parva::Error(parva::ErrorCode::kInternal, "lost");  // rejected
  parva::Result<int>(parva::Error(parva::ErrorCode::kInternal, "lost"));  // rejected
  (void)make_status();
}

}  // namespace fixture
