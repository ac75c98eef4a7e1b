// String building by append. `"literal" + std::string` (operator+ with the
// string on the right) trips a GCC 12 -Wrestrict false positive at -O3, which
// -Werror turns into a Release build failure; StrCat appends instead.
#ifndef ORCHESTRA_COMMON_STRINGS_H_
#define ORCHESTRA_COMMON_STRINGS_H_

#include <initializer_list>
#include <string>
#include <string_view>

namespace orchestra {

/// Appends every piece to `out`.
inline void StrAppend(std::string* out, std::initializer_list<std::string_view> pieces) {
  for (std::string_view p : pieces) out->append(p);
}

/// The concatenation of `pieces`.
inline std::string StrCat(std::initializer_list<std::string_view> pieces) {
  std::string out;
  StrAppend(&out, pieces);
  return out;
}

}  // namespace orchestra

#endif  // ORCHESTRA_COMMON_STRINGS_H_
