// Known-good twin of raw_new_bad.cpp: RAII ownership. Deleted special
// members and class-level operator new/delete definitions are not raw
// new/delete expressions.

#include <cstddef>
#include <memory>
#include <new>

struct Node {
  Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  static void* operator new(std::size_t size) { return ::operator new(size); }
  static void operator delete(void* p) noexcept { ::operator delete(p); }

  int value = 0;
};

int owned_value() {
  const std::unique_ptr<Node> node = std::make_unique<Node>();
  return node->value;
}
