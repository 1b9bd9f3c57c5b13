// Golden fixture: rule R6 -- a statement that (void)-casts a call must say
// why with `// parva-audit: allow(R6) <why>`. A discard without the cast is
// a compile error (-Werror=unused-result), so R6 does not look for one.
// Violation lines are pinned in audit_test.cpp.
namespace fixture {

enum class [[nodiscard]] NvmlReturn { kSuccess, kError };

NvmlReturn destroy_instance(int gpu);

struct Controller {
  NvmlReturn reset();
};

inline void teardown(Controller& controller, bool lost) {
  (void)destroy_instance(1);
  (void)controller.reset();
  if (lost) (void)destroy_instance(2);
}

}  // namespace fixture
