// Golden fixture: rule R10 satisfied -- a registry with distinct values
// and call sites that only pass registered enumerators. The audit must
// report nothing.
struct Rng {
  static Rng stream(unsigned long long seed, unsigned long long tag,
                    unsigned long long index);
};

enum class RngStreamTag : unsigned long long {
  kFixturePrefill = 60,
  kFixtureDecode = 61,
};

namespace fixture_r10_clean {

inline void draw_streams(unsigned long long seed) {
  Rng::stream(seed, RngStreamTag::kFixturePrefill, 0);
  Rng::stream(seed, RngStreamTag::kFixtureDecode, 1);
}

}  // namespace fixture_r10_clean
