#include <string_view>

#include "common/serial.h"

namespace orchestra::query {
// Decoding an id-list entry's hash by hand, outside the keys codec: must
// flag.
bool ReadHash(Reader* r, std::string_view* hash_be20) {
  return r->GetRawView(hash_be20, 20).ok();
}
}  // namespace orchestra::query
