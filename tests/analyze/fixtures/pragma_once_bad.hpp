// Known-bad fixture: a header whose first non-comment line is not
// `#pragma once`, so a second inclusion in one translation unit redefines
// everything below it.

#include <cstddef>  // EXPECT: pragma-once

inline std::size_t twice(std::size_t n) { return 2 * n; }
