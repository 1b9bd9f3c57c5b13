#include "serving/llm_engine.hpp"

namespace parva::serving {

const char* to_string(LlmAdmissionPolicy policy) {
  switch (policy) {
    case LlmAdmissionPolicy::kReject: return "reject";
    case LlmAdmissionPolicy::kEvict: return "evict";
  }
  return "unknown";
}

bool parse_llm_admission(std::string_view text, LlmAdmissionPolicy* out) {
  if (text == "reject") {
    *out = LlmAdmissionPolicy::kReject;
    return true;
  }
  if (text == "evict") {
    *out = LlmAdmissionPolicy::kEvict;
    return true;
  }
  return false;
}

}  // namespace parva::serving
