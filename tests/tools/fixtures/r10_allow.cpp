// Golden fixture: rule R10 with every violation carrying a justified
// allow() suppression -- the audit must report nothing for this file.
struct Rng {
  static Rng stream(unsigned long long seed, unsigned long long tag,
                    unsigned long long index);
};

enum class RngStreamTag : unsigned long long {
  kFixtureReplay = 50,
  // parva-audit: allow(R10) frozen golden-trace value; duplication is the point of the replay test
  kFixtureReplayTwin = 50,
};

namespace fixture_r10_allow {

inline void replay(unsigned long long seed) {
  // parva-audit: allow(R10) golden trace pins the raw tag byte-for-byte
  Rng::stream(seed, 57, 0);
}

}  // namespace fixture_r10_allow
