// Golden fixture: rule R11 satisfied -- the hot-path root
// Shard::advance reaches only pure arithmetic helpers.
// The audit must report nothing.
struct Shard {
  unsigned long long advance(unsigned long long draws);
  unsigned long long mix(unsigned long long value);
};

inline unsigned long long Shard::advance(unsigned long long draws) {
  return mix(draws) + 1;
}

inline unsigned long long Shard::mix(unsigned long long value) {
  return value * 2654435761ULL;
}
