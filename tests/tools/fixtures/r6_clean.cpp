// Golden fixture: status-returning code that satisfies R6 -- every call
// consumes or propagates its result, and the one (void) cast silences an
// unused parameter, not a call. The audit must report nothing.
namespace fixture {

enum class [[nodiscard]] NvmlReturn { kSuccess, kError };

NvmlReturn create_instance(int gpu);
NvmlReturn destroy_instance(int gpu);

inline NvmlReturn provision(int gpu, int attempt) {
  (void)attempt;
  const NvmlReturn created = create_instance(gpu);
  if (created != NvmlReturn::kSuccess) return created;
  return destroy_instance(gpu);
}

inline bool try_provision(int gpu) { return provision(gpu, 0) == NvmlReturn::kSuccess; }

}  // namespace fixture
