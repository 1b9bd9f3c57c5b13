#include "tracer.hpp"

#include <cstdio>

namespace parvabench {

int Tracer::open(std::string_view name) {
  SpanRecord record;
  record.name = std::string(name);
  record.parent = open_.empty() ? -1 : open_.back();
  record.start_ms = ms_between(origin_, Clock::now());
  spans_.push_back(std::move(record));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ms = ms_between(origin_, Clock::now());
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const SpanRecord& span : spans_) {
    if (span.name == name) out.push_back(span.duration_ms());
  }
  return out;
}

std::string Tracer::to_chrome_json() const {
  std::string out = "{\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    if (i > 0) out += ",\n";
    out += "{\"name\":\"" + span.name + "\",\"ph\":\"X\",\"pid\":1,\"tid\":1";
    std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                  span.start_ms * 1000.0, span.duration_ms() * 1000.0, i, span.parent);
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace parvabench
