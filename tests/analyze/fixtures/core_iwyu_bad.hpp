// Known-bad fixture: a header using std:: symbols whose headers it does not
// include, so it compiles only by luck of include order. In a repo run the
// rule covers .hpp files directly under src/core, src/tensor and src/train.
#pragma once

#include <cstdint>

inline std::vector<std::int64_t> ramp(std::int64_t n) {  // EXPECT: core-iwyu
  std::vector<std::int64_t> out;
  for (std::int64_t i = 0; i < n; ++i) out.push_back(i);
  return out;
}
