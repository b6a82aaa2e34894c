// Known-good twin of require_pure_bad.cpp: the side effect is hoisted out
// of the check, comparisons are not assignments, and an '=' inside a
// literal does not count. The macros are stubbed as in the bad twin.

#define ORBIT2_REQUIRE(cond, msg) ((void)(cond))
#define ORBIT2_CHECK(cond) ((void)(cond))

int advance(int* cursor, int limit, const char* label) {
  ++*cursor;
  ORBIT2_REQUIRE(*cursor < limit && *cursor != 0 && limit >= 1,
                 "cursor overran; want cursor += 1 per call");
  ORBIT2_CHECK(*cursor <= limit && label[0] != '=');
  return *cursor == limit ? 0 : *cursor;
}
