// Known-bad fixture: owning raw new/delete expressions. In a repo run the
// rule covers src/ only; ownership there goes through make_unique,
// make_shared or a container.

struct Node {
  int value = 0;
};

int leak_prone_value() {
  Node* node = new Node{};  // EXPECT: no-raw-new
  const int value = node->value;
  delete node;  // EXPECT: no-raw-new
  return value;
}
