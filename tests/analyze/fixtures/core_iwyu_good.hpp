// Known-good twin of core_iwyu_bad.hpp: every curated std:: symbol used in
// code has its header. Mentions in comments (std::string) or in literals do
// not count.
#pragma once

#include <cstdint>
#include <vector>

inline std::vector<std::int64_t> ramp(std::int64_t n) {
  std::vector<std::int64_t> out;
  for (std::int64_t i = 0; i < n; ++i) out.push_back(i);
  return out;
}

inline const char* ramp_label() { return "std::string-free ramp"; }
