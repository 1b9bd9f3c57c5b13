// Golden fixture: rule R10 -- RNG stream-tag discipline. Plants a
// duplicate registry value, a literal tag, and an unregistered constant.
// Violation lines are pinned in audit_test.cpp. Registry values start at
// 40 so merged-scan-set runs never collide with the real registry (1-4).
struct Rng {
  static Rng stream(unsigned long long seed, unsigned long long tag,
                    unsigned long long index);
};

enum class RngStreamTag : unsigned long long {
  kFixtureArrival = 40,
  kFixtureJitter = 41,
  kFixtureDuplicate = 41,
};

namespace fixture_r10 {

constexpr unsigned long long kRogueTag = 49;

inline void draw_streams(unsigned long long seed) {
  Rng::stream(seed, RngStreamTag::kFixtureArrival, 0);
  Rng::stream(seed, 47, 0);
  Rng::stream(seed, kRogueTag, 0);
}

}  // namespace fixture_r10
