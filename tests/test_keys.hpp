// Key and value strings for tests.
//
// `numbered("key-", 7)` builds "key-7" by appending. The tests use it
// instead of `"key-" + std::to_string(7)`: at -O3 GCC 12 reports
// -Wrestrict / -Wstringop-overread inside libstdc++'s prepending
// operator+ for that pattern, which would fail a -Werror Release build.
#pragma once

#include <string>
#include <string_view>

namespace rhik::test {

/// `prefix` followed by the decimal form of `n`.
template <class Int>
std::string numbered(std::string_view prefix, Int n) {
  std::string s(prefix);
  s += std::to_string(n);
  return s;
}

}  // namespace rhik::test
