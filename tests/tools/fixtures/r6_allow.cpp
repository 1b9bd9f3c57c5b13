// Golden fixture: rule R6 with every (void) cast carrying a justified
// allow() suppression -- the audit must report nothing for this file.
namespace fixture {

enum class [[nodiscard]] NvmlReturn { kSuccess, kError };

NvmlReturn fire_and_forget(int gpu);

inline void rollback() {
  // parva-audit: allow(R6) best-effort rollback; the original error is reported
  (void)fire_and_forget(0);
  (void)fire_and_forget(1);  // parva-audit: allow(R6) teardown on a lost device cannot fail usefully
}

}  // namespace fixture
