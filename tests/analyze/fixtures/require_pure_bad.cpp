// Known-bad fixture: side effects inside check-macro conditions. The check
// macros evaluate their condition once, but a side-effecting condition
// reads as load-bearing and breaks in builds that compile checks out. The
// macros are stubbed so the fixture parses standalone.

#define ORBIT2_REQUIRE(cond, msg) ((void)(cond))
#define ORBIT2_CHECK(cond) ((void)(cond))

int advance(int* cursor, int limit) {
  ORBIT2_REQUIRE(++*cursor < limit, "cursor overran");  // EXPECT: require-pure
  int seen = 0;
  ORBIT2_CHECK(seen = *cursor);  // EXPECT: require-pure
  ORBIT2_CHECK((limit -= 1) > 0);  // EXPECT: require-pure
  return seen + limit;
}
