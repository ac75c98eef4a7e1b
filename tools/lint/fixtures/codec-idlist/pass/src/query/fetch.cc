#include "storage/keys.h"

namespace orchestra::query {
// Id-list entries decode through the one codec.
bool ReadId(Reader* r, storage::keys::WireId* id) {
  return storage::keys::GetWireId(r, id).ok();
}
}  // namespace orchestra::query
