#pragma once
// Error handling for ORBIT-2: a single exception type carrying file:line
// context, plus CHECK/REQUIRE macros used across every module.
//
// Conventions:
//   ORBIT2_CHECK(cond, msg...)   -- internal invariants; failure is a bug.
//   ORBIT2_REQUIRE(cond, msg...) -- caller-facing precondition validation.
// Both throw orbit2::Error; the distinction is documentary.
//
// Evaluation guarantee: the condition expression is evaluated EXACTLY once,
// in every build configuration — these macros are never compiled out and
// never re-evaluate the condition to build the failure message. The message
// stream arguments are evaluated only on the failure path. Despite the
// single-evaluation guarantee, side-effecting condition arguments are
// forbidden by tools/orbit2_analyze.py (require-pure) so the guarantee is
// never load-bearing.

#include <sstream>
#include <stdexcept>
#include <string>

namespace orbit2 {

/// Exception thrown by all ORBIT-2 precondition/invariant failures.
class Error : public std::runtime_error {
 public:
  Error(std::string message, const char* file, int line)
      : std::runtime_error(format(message, file, line)),
        message_(std::move(message)),
        file_(file),
        line_(line) {}

  /// The message without file:line decoration.
  const std::string& message() const noexcept { return message_; }
  const char* file() const noexcept { return file_; }
  int line() const noexcept { return line_; }

 private:
  static std::string format(const std::string& message, const char* file,
                            int line) {
    std::ostringstream os;
    os << file << ":" << line << ": " << message;
    return os.str();
  }

  std::string message_;
  const char* file_;
  int line_;
};

namespace detail {

// Builds the failure message lazily: the stream machinery only runs on the
// failure path.
class CheckMessageBuilder {
 public:
  template <typename T>
  CheckMessageBuilder& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }
  std::string str() const { return stream_.str(); }

 private:
  std::ostringstream stream_;
};

[[noreturn]] void throw_check_failure(const char* kind, const char* expr,
                                      const std::string& detail,
                                      const char* file, int line);

}  // namespace detail
}  // namespace orbit2

#define ORBIT2_CHECK_IMPL(kind, cond, ...)                                   \
  do {                                                                       \
    if (!(cond)) {                                                           \
      ::orbit2::detail::CheckMessageBuilder orbit2_msg_builder;              \
      static_cast<void>(orbit2_msg_builder __VA_OPT__(<< __VA_ARGS__));         \
      ::orbit2::detail::throw_check_failure(kind, #cond,                     \
                                            orbit2_msg_builder.str(),        \
                                            __FILE__, __LINE__);             \
    }                                                                        \
  } while (false)

/// Internal invariant: failure indicates a bug in ORBIT-2 itself.
#define ORBIT2_CHECK(cond, ...) ORBIT2_CHECK_IMPL("CHECK", cond, __VA_ARGS__)

/// Caller-facing precondition: failure indicates misuse of a public API.
#define ORBIT2_REQUIRE(cond, ...) \
  ORBIT2_CHECK_IMPL("REQUIRE", cond, __VA_ARGS__)

/// Unconditional failure (unreachable code paths, unsupported configs).
#define ORBIT2_FAIL(...)                                                  \
  do {                                                                    \
    ::orbit2::detail::CheckMessageBuilder orbit2_msg_builder;             \
    static_cast<void>(orbit2_msg_builder __VA_OPT__(<< __VA_ARGS__));        \
    ::orbit2::detail::throw_check_failure("FAIL", "unreachable",          \
                                          orbit2_msg_builder.str(),       \
                                          __FILE__, __LINE__);            \
  } while (false)
