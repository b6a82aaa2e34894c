// Known-good twin of pragma_once_bad.hpp: comments may precede the guard,
// as long as `#pragma once` is the first line of code.

#pragma once

#include <cstddef>

inline std::size_t twice(std::size_t n) { return 2 * n; }
