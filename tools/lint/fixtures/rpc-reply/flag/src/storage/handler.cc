#include "net/rpc.h"

namespace orchestra::storage {
// A handler that replies on its own can return early without replying:
// must flag.
void HandleGet(net::NodeHost* host, net::NodeId to, uint64_t req_id, bool bad) {
  if (bad) return;
  net::RpcClient::SendReply(host, to, net::ServiceId::kStorage, 1, req_id,
                            Status::OK(), {});
}
}  // namespace orchestra::storage
