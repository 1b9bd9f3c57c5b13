// Spans around the benchmark's calls into the library's public API.
//
// A span records a name, start, end and the span that was open when it
// began (its parent). Spans are kept in memory and written out once, as
// Chrome trace-event JSON, when the run ends. A disabled tracer records
// nothing: Span construction is then one branch, so the untraced run times
// the library alone.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace parvabench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point start, Clock::time_point stop) {
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

struct SpanRecord {
  std::string name;
  int parent = -1;  ///< index of the enclosing span, -1 at top level
  double start_ms = 0.0;
  double end_ms = 0.0;
  double duration_ms() const { return end_ms - start_ms; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// RAII span; closes at scope exit. Spans must nest (single thread).
  class Span {
   public:
    Span(Tracer& tracer, std::string_view name) : tracer_(tracer.enabled_ ? &tracer : nullptr) {
      if (tracer_ != nullptr) index_ = tracer_->open(name);
    }
    ~Span() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  /// Durations of every closed span called `name`, in recording order.
  std::vector<double> durations(std::string_view name) const;

  /// Chrome trace-event JSON ("X" complete events; args.parent links the
  /// causing span).
  std::string to_chrome_json() const;

 private:
  int open(std::string_view name);
  void close(int index);

  bool enabled_;
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;  ///< stack of open span indices
};

}  // namespace parvabench
