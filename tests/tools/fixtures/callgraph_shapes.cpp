// Golden fixture for the phase-1.5 call-graph builder (no rule findings
// expected). Exercises the resolution shapes pinned as (caller, callee)
// edge lists in audit_test.cpp:
//   - self-recursion (cg_factorial) and mutual recursion (cg_ping/cg_pong)
//   - an overload set collapsing to one node name (cg_scale)
//   - method vs. free function with the same bare name (CgCounter::bump
//     vs. ::bump) resolved through a declared receiver type
//   - an unresolvable receiver that still resolves because the bare name
//     is defined in exactly one class (cg_widget_source().poke())
//   - an unresolvable receiver over an ambiguous bare name
//     (cg_mystery_source().measure() -- defined in two classes): no edge.
struct CgWidget {
  void poke();
};
struct CgAlpha {
  int measure();
};
struct CgBeta {
  int measure();
};
CgWidget& cg_widget_source();
CgAlpha& cg_mystery_source();

inline void CgWidget::poke() {}
inline int CgAlpha::measure() { return 1; }
inline int CgBeta::measure() { return 2; }

inline unsigned long long cg_factorial(unsigned long long n) {
  if (n < 2) return 1;
  return n * cg_factorial(n - 1);
}

inline unsigned long long cg_ping(unsigned long long n);
inline unsigned long long cg_pong(unsigned long long n) {
  return n == 0 ? 0 : cg_ping(n - 1);
}
inline unsigned long long cg_ping(unsigned long long n) {
  return n == 0 ? 1 : cg_pong(n - 1);
}

inline int cg_scale(int v) { return v * 2; }
inline double cg_scale(double v) { return v * 2.0; }

struct CgCounter {
  int total = 0;
  void bump() { ++total; }
};

inline void bump() {}

inline void cg_drive() {
  CgCounter counter;
  counter.bump();
  bump();
  cg_scale(3);
  cg_scale(3.0);
  cg_widget_source().poke();
  cg_mystery_source().measure();
}
